//! The coordination-engine abstraction: how a fleet's round barriers are
//! driven and how the per-round work is scheduled onto OS threads.
//!
//! Two engines implement [`FleetEngine`]:
//!
//! * **Round** (the reference): the original loop — every round touches
//!   every server, workers are scoped threads spawned afresh per round.
//!   Simple, obviously correct, and the semantics the digests pin.
//! * **Event**: a picosecond-ordered wake queue (the `simkernel`
//!   [`EventQueue`](simkernel::EventQueue) kernel) where servers schedule
//!   their own next coordination wake. Quiesced servers never wake again,
//!   so per-barrier cost scales with the *active* set; stepping runs on a
//!   persistent [`WorkerPool`] instead of per-round thread spawns; and the
//!   coordinator re-splits the budget only when the dirty set (telemetry
//!   deltas above [`CapCache`]'s dead-band) is non-empty, falling back to
//!   a full recursion whenever membership or the budget changes.
//!
//! The two are **bit-identical** at the default zero dead-band: every cap
//! split is a pure function of `(budget, membership, telemetry)`, inactive
//! servers take no part in any discipline's arithmetic, and with a zero
//! dead-band the cache only replays an allocation whose inputs match the
//! previous barrier's bit for bit. `tests/engine_equivalence.rs` proves the
//! equivalence differentially across the config space.

use crate::coordinator::{split_caps, ServerDemand, SlaSignal};
use crate::CapSplit;
use simkernel::Ps;
use std::collections::BinaryHeap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// Which coordination engine drives the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The reference round-barrier loop: every round touches every server.
    Round,
    /// The wake-queue engine: done servers skip barriers entirely, caps are
    /// re-split only when telemetry moved, stepping uses a persistent
    /// worker pool.
    Event,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EngineKind::Round => "round",
            EngineKind::Event => "event",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<EngineKind, String> {
        match s {
            "round" => Ok(EngineKind::Round),
            "event" => Ok(EngineKind::Event),
            other => Err(format!("unknown engine '{other}' (known: round, event)")),
        }
    }
}

/// A coordination engine: consumes a fully built simulation and produces
/// its result. Both the batch-cluster and serving-fleet layers expose one
/// reference [`EngineKind::Round`] implementation and one
/// [`EngineKind::Event`] implementation behind this trait; the differential
/// harness runs the same configuration through both and compares digests.
pub trait FleetEngine {
    /// The layer's result type (`ClusterResult`, `ServiceResult`, …).
    type Output;

    /// Which engine this is.
    fn kind(&self) -> EngineKind;

    /// Runs the simulation to completion.
    fn run(self) -> Self::Output;
}

/// A persistent pool of worker threads stepping simulation objects.
///
/// The round engines spawn scoped threads afresh at every barrier; at
/// thousand-server scale that spawn/join churn is pure overhead. A
/// `WorkerPool` spawns its threads once and then moves `(index, T)` jobs
/// through channels: the coordinator sends the servers due this barrier,
/// workers step them with the fixed `step` closure, and
/// [`WorkerPool::run`] reinstalls each result by index. Determinism is
/// untouched — servers are stepped independently and only re-joined at the
/// barrier, exactly like the scoped fan-out.
pub struct WorkerPool<T: Send + 'static> {
    injector: Option<mpsc::Sender<(usize, T)>>,
    results: mpsc::Receiver<(usize, T)>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `threads` workers, each applying `step` to every job it
    /// receives for the pool's whole lifetime.
    pub fn new<F>(threads: usize, step: F) -> WorkerPool<T>
    where
        F: Fn(&mut T) + Send + Sync + 'static,
    {
        assert!(threads > 0, "worker pool needs at least one thread");
        let (injector, job_rx) = mpsc::channel::<(usize, T)>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (done_tx, results) = mpsc::channel();
        let step = Arc::new(step);
        let workers = (0..threads)
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let done_tx = done_tx.clone();
                let step = Arc::clone(&step);
                std::thread::spawn(move || loop {
                    // Hold the lock only to receive: the next idle worker
                    // takes it while this one steps its job.
                    let job = job_rx.lock().expect("pool lock poisoned").recv();
                    match job {
                        Ok((i, mut t)) => {
                            step(&mut t);
                            if done_tx.send((i, t)).is_err() {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                })
            })
            .collect();
        WorkerPool {
            injector: Some(injector),
            results,
            workers,
        }
    }

    /// Runs one barrier's batch: sends every `(index, item)` job, then
    /// receives exactly that many results (in completion order) and hands
    /// each to `reinstall`. Returns when the whole batch is done.
    pub fn run(&self, jobs: Vec<(usize, T)>, mut reinstall: impl FnMut(usize, T)) {
        let n = jobs.len();
        let injector = self.injector.as_ref().expect("pool already shut down");
        for job in jobs {
            injector.send(job).expect("worker pool hung up");
        }
        for _ in 0..n {
            let (i, t) = self.results.recv().expect("worker thread died");
            reinstall(i, t);
        }
    }
}

impl<T: Send + 'static> Drop for WorkerPool<T> {
    fn drop(&mut self) {
        // Closing the injector ends every worker's recv loop.
        self.injector.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The event engine's incremental cap-split cache.
///
/// A cap split is a pure function of the budget, the fleet membership and
/// the per-server telemetry, so when none of those inputs moved between two
/// barriers the previous allocation *is* the recompute. `CapCache` keeps
/// the telemetry an allocation was computed from (the reference) and the
/// allocation itself; [`CapCache::lookup`] replays the allocation while the
/// dirty set — servers whose telemetry moved more than `dead_band_w` from
/// the reference — stays empty, and returns `None` (recompute, then
/// [`CapCache::store`]) the moment it is not. Membership or budget changes
/// must [`CapCache::invalidate`] the cache entirely: they reshape the
/// allocation for every server, not just the dirty ones.
///
/// At the default `dead_band_w == 0.0` a server is dirty unless its
/// telemetry matches the reference **bit for bit** (comparison is on the
/// raw f64 bits, so NaNs and signed zeros conservatively recompute), which
/// is what makes the event engine digest-identical to the round engine. A
/// positive dead-band trades that exactness for fewer re-splits on fleets
/// with jittery-but-stable telemetry.
#[derive(Clone, Debug)]
pub struct CapCache {
    dead_band_w: f64,
    reference: Vec<ServerDemand>,
    reference_sla: Vec<SlaSignal>,
    reference_crit: Vec<f64>,
    caps: Vec<f64>,
    valid: bool,
    hits: u64,
    misses: u64,
}

impl CapCache {
    /// An empty cache with the given dead-band (0 for exact replay).
    pub fn new(dead_band_w: f64) -> CapCache {
        assert!(
            dead_band_w >= 0.0 && !dead_band_w.is_nan(),
            "dead band must be a non-negative number"
        );
        CapCache {
            dead_band_w,
            reference: Vec::new(),
            reference_sla: Vec::new(),
            reference_crit: Vec::new(),
            caps: Vec::new(),
            valid: false,
            hits: 0,
            misses: 0,
        }
    }

    /// Drops the cached allocation. Call on any membership change (a
    /// server joined, left, or went idle) or budget change.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Replays the cached allocation if the dirty set is empty, else
    /// `None`. Counts a hit or miss either way.
    pub fn lookup(
        &mut self,
        demands: &[ServerDemand],
        sla: Option<&[SlaSignal]>,
        crit: Option<&[f64]>,
    ) -> Option<Vec<f64>> {
        if self.lookup_clean(demands, sla, crit) {
            self.hits += 1;
            Some(self.caps.clone())
        } else {
            self.misses += 1;
            None
        }
    }

    fn lookup_clean(
        &self,
        demands: &[ServerDemand],
        sla: Option<&[SlaSignal]>,
        crit: Option<&[f64]>,
    ) -> bool {
        if !self.valid || demands.len() != self.reference.len() {
            return false;
        }
        let sla = sla.unwrap_or(&[]);
        if sla.len() != self.reference_sla.len() {
            return false;
        }
        let crit = crit.unwrap_or(&[]);
        if crit.len() != self.reference_crit.len() {
            return false;
        }
        let clean = |a: f64, b: f64| {
            if self.dead_band_w == 0.0 {
                a.to_bits() == b.to_bits()
            } else {
                (a - b).abs() <= self.dead_band_w
            }
        };
        // Critical-path shares are dimensionless fractions, not watts — a
        // watt-denominated dead band has no business blurring them, so any
        // bit-level movement in the trace signal recomputes the split.
        demands.iter().zip(&self.reference).all(|(d, r)| {
            d.active == r.active && clean(d.demand_w, r.demand_w) && clean(d.min_w, r.min_w)
        }) && sla
            .iter()
            .zip(&self.reference_sla)
            .all(|(s, r)| clean(s.p99_s, r.p99_s) && clean(s.target_s, r.target_s))
            && crit
                .iter()
                .zip(&self.reference_crit)
                .all(|(c, r)| c.to_bits() == r.to_bits())
    }

    /// Records a freshly computed allocation and the telemetry it came
    /// from.
    pub fn store(
        &mut self,
        demands: &[ServerDemand],
        sla: Option<&[SlaSignal]>,
        crit: Option<&[f64]>,
        caps: &[f64],
    ) {
        self.reference.clear();
        self.reference.extend_from_slice(demands);
        self.reference_sla.clear();
        self.reference_sla.extend_from_slice(sla.unwrap_or(&[]));
        self.reference_crit.clear();
        self.reference_crit.extend_from_slice(crit.unwrap_or(&[]));
        self.caps.clear();
        self.caps.extend_from_slice(caps);
        self.valid = true;
    }

    /// Barriers whose allocation was replayed from cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Barriers that recomputed the split.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// [`split_caps`] restricted to the active servers: the discipline runs
/// over a compacted active-only slice and the results scatter back to fleet
/// positions.
///
/// Bit-identical to `split_caps` over the full slice: inactive servers take
/// no part in any discipline's arithmetic (every sum, bid and tie-break
/// filters on `active`, and compaction preserves relative order, so
/// "lowest index" ties resolve to the same server), they simply receive a
/// zero cap — which is exactly what the scatter leaves behind. The
/// quantum greedies already cost `O(log active)` per quantum, so on a
/// 90%-idle fleet compaction mostly saves the `O(fleet)` passes that build
/// floors and the bid heap.
pub fn split_caps_active(
    split: CapSplit,
    global_cap_w: f64,
    demands: &[ServerDemand],
    quantum_w: f64,
) -> Vec<f64> {
    let n = demands.len();
    let active_idx: Vec<usize> = (0..n).filter(|&i| demands[i].active).collect();
    if active_idx.len() == n {
        return split_caps(split, global_cap_w, demands, quantum_w);
    }
    let mut caps = vec![0.0; n];
    if active_idx.is_empty() {
        return caps;
    }
    let compact: Vec<ServerDemand> = active_idx.iter().map(|&i| demands[i]).collect();
    let compact_caps = split_caps(split, global_cap_w, &compact, quantum_w);
    for (&i, c) in active_idx.iter().zip(compact_caps) {
        caps[i] = c;
    }
    caps
}

/// One scheduled wake in a [`ShardedWakeQueue`] shard.
///
/// Ordered like `simkernel::EventQueue` entries — earliest time first,
/// FIFO (global sequence) among equal times — via the reversed comparison
/// that turns `BinaryHeap`'s max-heap into a min-heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ShardEntry {
    time: Ps,
    seq: u64,
    server: usize,
}

impl Ord for ShardEntry {
    fn cmp(&self, other: &ShardEntry) -> std::cmp::Ordering {
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ShardEntry {
    fn partial_cmp(&self, other: &ShardEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The event engine's wake queue, sharded so each worker-sized slice of
/// the fleet owns a local picosecond heap.
///
/// A single global [`EventQueue`](simkernel::EventQueue) serializes every
/// push and pop through one `O(log fleet)` heap; at 100k servers that heap
/// is the barrier's contention point. `ShardedWakeQueue` routes each
/// server's wakes to the shard `server % shards`, so pushes touch an
/// `O(log (fleet / shards))` local heap and only the *due* entries cross
/// shards at a barrier.
///
/// Determinism is preserved exactly: every push is stamped with a single
/// global sequence number (never reset, exactly like the kernel queue's),
/// and [`ShardedWakeQueue::pop_due`] merges the due entries of all shards
/// in ascending sequence order — which reproduces, bit for bit, the pop
/// order the global queue would have produced for the same pushes, since
/// entries due at one barrier share the same time and the kernel orders
/// equal-time entries FIFO by sequence.
#[derive(Debug)]
pub struct ShardedWakeQueue {
    shards: Vec<BinaryHeap<ShardEntry>>,
    next_seq: u64,
    len: usize,
    due: Vec<(u64, usize)>,
}

impl ShardedWakeQueue {
    /// An empty queue with `shards` shards (clamped to at least one).
    pub fn new(shards: usize) -> ShardedWakeQueue {
        ShardedWakeQueue {
            shards: (0..shards.max(1)).map(|_| BinaryHeap::new()).collect(),
            next_seq: 0,
            len: 0,
            due: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Pending wakes across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no wakes are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `server` to wake at `time`.
    pub fn push(&mut self, time: Ps, server: usize) {
        let shard = server % self.shards.len();
        self.shards[shard].push(ShardEntry {
            time,
            seq: self.next_seq,
            server,
        });
        self.next_seq += 1;
        self.len += 1;
    }

    /// The earliest pending wake time, if any.
    pub fn peek_time(&self) -> Option<Ps> {
        self.shards
            .iter()
            .filter_map(|s| s.peek().map(|e| e.time))
            .min()
    }

    /// Pops every wake scheduled exactly at `now` and appends the woken
    /// servers to `out` in global FIFO-of-equal-time order.
    pub fn pop_due(&mut self, now: Ps, out: &mut Vec<usize>) {
        self.due.clear();
        for shard in &mut self.shards {
            while shard.peek().is_some_and(|e| e.time == now) {
                let e = shard.pop().expect("peeked entry present");
                self.due.push((e.seq, e.server));
                self.len -= 1;
            }
        }
        // Per-shard pops are already seq-ascending (same time ⇒ FIFO), so
        // this sort is a merge of sorted runs; it restores the exact order
        // a single global heap would have popped.
        self.due.sort_unstable();
        out.extend(self.due.iter().map(|&(_, server)| server));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_parse_display_round_trip() {
        for k in [EngineKind::Round, EngineKind::Event] {
            assert_eq!(k.to_string().parse::<EngineKind>().unwrap(), k);
        }
        assert!("async".parse::<EngineKind>().is_err());
    }

    #[test]
    fn worker_pool_returns_every_job_by_index() {
        let pool: WorkerPool<u64> = WorkerPool::new(3, |x| *x *= 2);
        for batch in [0usize, 1, 7, 64] {
            let jobs: Vec<(usize, u64)> = (0..batch).map(|i| (i, i as u64 + 1)).collect();
            let mut out = vec![0u64; batch];
            pool.run(jobs, |i, x| out[i] = x);
            for (i, &x) in out.iter().enumerate() {
                assert_eq!(x, 2 * (i as u64 + 1));
            }
        }
    }

    fn d(demand_w: f64, min_w: f64, active: bool) -> ServerDemand {
        ServerDemand {
            demand_w,
            min_w,
            active,
        }
    }

    #[test]
    fn active_split_matches_full_split_bit_for_bit() {
        // Awkward fractions on purpose: the scatter must reproduce the
        // full computation's exact float arithmetic, not approximate it.
        let demands = vec![
            d(97.3, 24.1, true),
            d(55.7, 19.9, false),
            d(130.0, 30.0, true),
            d(61.9, 21.3, false),
            d(88.8, 26.2, true),
            d(42.0, 18.0, false),
        ];
        for split in [
            CapSplit::Uniform,
            CapSplit::DemandProportional,
            CapSplit::FastCap,
            CapSplit::SlaAware,
        ] {
            for budget in [90.0, 217.5, 400.0] {
                let full = split_caps(split, budget, &demands, 1.0);
                let fast = split_caps_active(split, budget, &demands, 1.0);
                let full_bits: Vec<u64> = full.iter().map(|c| c.to_bits()).collect();
                let fast_bits: Vec<u64> = fast.iter().map(|c| c.to_bits()).collect();
                assert_eq!(full_bits, fast_bits, "{split} at {budget} W");
            }
        }
    }

    #[test]
    fn cap_cache_replays_only_on_clean_telemetry() {
        let mut cache = CapCache::new(0.0);
        let demands = vec![d(100.0, 30.0, true), d(80.0, 25.0, true)];
        assert!(
            cache.lookup(&demands, None, None).is_none(),
            "cold cache misses"
        );
        cache.store(&demands, None, None, &[60.0, 40.0]);
        assert_eq!(cache.lookup(&demands, None, None), Some(vec![60.0, 40.0]));

        // Any bit of telemetry movement is a dirty server at dead-band 0.
        let mut moved = demands.clone();
        moved[1].demand_w += 1e-12;
        assert!(cache.lookup(&moved, None, None).is_none());

        // An activity flip is a membership change even at a wide dead-band.
        let mut cache = CapCache::new(5.0);
        cache.store(&demands, None, None, &[60.0, 40.0]);
        let mut jitter = demands.clone();
        jitter[0].demand_w += 3.0;
        assert!(
            cache.lookup(&jitter, None, None).is_some(),
            "within dead-band"
        );
        let mut idled = demands.clone();
        idled[1].active = false;
        assert!(cache.lookup(&idled, None, None).is_none());

        // Explicit invalidation always recomputes.
        let mut cache = CapCache::new(0.0);
        cache.store(&demands, None, None, &[60.0, 40.0]);
        cache.invalidate();
        assert!(cache.lookup(&demands, None, None).is_none());
    }

    #[test]
    fn sharded_wake_queue_matches_global_queue_pop_order() {
        // Drive both queues through an interleaved schedule and require the
        // sharded merge to reproduce the kernel queue's order exactly.
        for shards in [1usize, 2, 3, 8] {
            let mut sharded = ShardedWakeQueue::new(shards);
            let mut global: simkernel::EventQueue<usize> = simkernel::EventQueue::new();
            let mut rng = simkernel::SimRng::new(42);
            let mut pushed = 0usize;
            for wave in 0..6u64 {
                let now = Ps::new(wave * 10);
                for _ in 0..10 {
                    let server = (rng.next_u64() % 23) as usize;
                    let when = Ps::new(now.as_ps() + 10 * (1 + rng.next_u64() % 3));
                    sharded.push(when, server);
                    global.push(when, server);
                    pushed += 1;
                }
                let due = Ps::new((wave + 1) * 10);
                let mut got = Vec::new();
                sharded.pop_due(due, &mut got);
                let mut want = Vec::new();
                while global.peek_time() == Some(due) {
                    want.push(global.pop().expect("peeked entry present").1);
                }
                assert_eq!(got, want, "wave {wave} shards {shards}");
                pushed -= got.len();
                assert_eq!(sharded.len(), pushed);
                assert_eq!(sharded.peek_time(), global.peek_time());
            }
        }
    }

    #[test]
    fn cap_cache_tracks_sla_signals() {
        let mut cache = CapCache::new(0.0);
        let demands = vec![d(100.0, 30.0, true)];
        let sla = vec![SlaSignal {
            p99_s: 0.8e-3,
            target_s: 1e-3,
        }];
        cache.store(&demands, Some(&sla), None, &[70.0]);
        assert!(cache.lookup(&demands, Some(&sla), None).is_some());
        let hot = vec![SlaSignal {
            p99_s: 1.2e-3,
            target_s: 1e-3,
        }];
        assert!(cache.lookup(&demands, Some(&hot), None).is_none());
        // Presenting signals to a cache stored without them (or vice
        // versa) can never replay.
        assert!(cache.lookup(&demands, None, None).is_none());
    }
}
