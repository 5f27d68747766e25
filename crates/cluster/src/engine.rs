//! How a fleet's round work reaches OS threads, and the coordinator's
//! whole-split replay cache.
//!
//! Both fleet layers step their servers on one persistent [`WorkerPool`]
//! at every barrier. The control plane's coordinator replays its previous
//! flat split through [`CapCache`] while no server's telemetry moved beyond
//! the configured dead-band; at the default zero band a replay happens only
//! when the inputs match the previous barrier's bit for bit, so it is
//! indistinguishable from a recompute.

use crate::coordinator::{split_caps, ServerDemand};
use crate::CapSplit;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

/// What a worker sends back: the stepped job, or the payload of the panic
/// that interrupted it.
type Outcome<T> = (usize, Result<T, Box<dyn Any + Send>>);

/// A persistent pool of worker threads stepping simulation objects.
///
/// A `WorkerPool` spawns its threads once and then moves `(index, T)` jobs
/// through channels: the coordinator sends the servers due this barrier,
/// each idle worker takes the next job, steps it with the fixed `step`
/// closure, and [`WorkerPool::run`] reinstalls each result by index.
/// Because workers pull jobs one at a time, a few slow servers spread over
/// all threads instead of landing in one thread's contiguous chunk.
/// Determinism is untouched: servers are stepped independently and only
/// re-joined at the barrier.
pub struct WorkerPool<T: Send + 'static> {
    injector: Option<mpsc::Sender<(usize, T)>>,
    results: mpsc::Receiver<Outcome<T>>,
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
                    let Ok((i, mut t)) = job else { break };
                    // A panicking step must reach the caller, not strand it
                    // waiting for a result that never comes.
                    let outcome =
                        panic::catch_unwind(AssertUnwindSafe(|| step(&mut t))).map(|()| t);
                    if done_tx.send((i, outcome)).is_err() {
                        break;
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
    ///
    /// # Panics
    ///
    /// If any step panicked, re-raises the first such panic once the rest
    /// of the batch is back, so the pool stays usable.
    pub fn run(&self, jobs: Vec<(usize, T)>, mut reinstall: impl FnMut(usize, T)) {
        let n = jobs.len();
        let injector = self.injector.as_ref().expect("pool already shut down");
        for job in jobs {
            injector.send(job).expect("worker pool hung up");
        }
        let mut panicked = None;
        for _ in 0..n {
            match self.results.recv().expect("worker thread died") {
                (i, Ok(t)) => reinstall(i, t),
                (_, Err(payload)) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
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

/// The coordinator's whole-split replay cache.
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
/// makes a replay identical to a recompute. A positive dead-band trades
/// that exactness for fewer re-splits on fleets with jittery-but-stable
/// telemetry.
#[derive(Clone, Debug)]
pub struct CapCache {
    dead_band_w: f64,
    reference: Vec<ServerDemand>,
    caps: Vec<f64>,
    valid: bool,
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
            caps: Vec::new(),
            valid: false,
        }
    }

    /// Drops the cached allocation. Call on any membership change (a
    /// server joined, left, or went idle) or budget change.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Replays the cached allocation if the dirty set is empty, else
    /// `None`.
    pub fn lookup(&self, demands: &[ServerDemand]) -> Option<Vec<f64>> {
        if !self.valid || demands.len() != self.reference.len() {
            return None;
        }
        let clean = |a: f64, b: f64| {
            if self.dead_band_w == 0.0 {
                a.to_bits() == b.to_bits()
            } else {
                (a - b).abs() <= self.dead_band_w
            }
        };
        demands
            .iter()
            .zip(&self.reference)
            .all(|(d, r)| {
                d.active == r.active && clean(d.demand_w, r.demand_w) && clean(d.min_w, r.min_w)
            })
            .then(|| self.caps.clone())
    }

    /// Records a freshly computed allocation and the telemetry it came
    /// from.
    pub fn store(&mut self, demands: &[ServerDemand], caps: &[f64]) {
        self.reference.clear();
        self.reference.extend_from_slice(demands);
        self.caps.clear();
        self.caps.extend_from_slice(caps);
        self.valid = true;
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn worker_pool_reraises_a_panicking_step() {
        // Driven from a helper thread behind a watchdog, so a pool that
        // strands its caller fails this test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            let pool: WorkerPool<u64> = WorkerPool::new(2, |x| {
                assert_ne!(*x, 3, "step refused job 3");
                *x *= 2;
            });
            let jobs: Vec<(usize, u64)> = (0..6).map(|i| (i, i as u64)).collect();
            let caught = panic::catch_unwind(AssertUnwindSafe(|| pool.run(jobs, |_, _| {})));
            let message = caught
                .err()
                .and_then(|p| p.downcast::<String>().ok())
                .map(|m| *m);
            // The pool survives the panic and steps the next batch.
            let mut out = vec![0u64; 2];
            pool.run(vec![(0, 4), (1, 5)], |i, x| out[i] = x);
            tx.send((message, out)).expect("watchdog listening");
        });
        let (message, out) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("WorkerPool::run hung after a step panicked");
        caller.join().expect("caller thread finished cleanly");
        let message = message.expect("the step's panic reached the caller");
        assert!(message.contains("step refused job 3"), "{message}");
        assert_eq!(out, vec![8, 10]);
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
        assert!(cache.lookup(&demands).is_none(), "cold cache misses");
        cache.store(&demands, &[60.0, 40.0]);
        assert_eq!(cache.lookup(&demands), Some(vec![60.0, 40.0]));

        // Any bit of telemetry movement is a dirty server at dead-band 0.
        let mut moved = demands.clone();
        moved[1].demand_w += 1e-12;
        assert!(cache.lookup(&moved).is_none());

        // An activity flip is a membership change even at a wide dead-band.
        let mut cache = CapCache::new(5.0);
        cache.store(&demands, &[60.0, 40.0]);
        let mut jitter = demands.clone();
        jitter[0].demand_w += 3.0;
        assert!(cache.lookup(&jitter).is_some(), "within dead-band");
        let mut idled = demands.clone();
        idled[1].active = false;
        assert!(cache.lookup(&idled).is_none());

        // Explicit invalidation always recomputes.
        let mut cache = CapCache::new(0.0);
        cache.store(&demands, &[60.0, 40.0]);
        cache.invalidate();
        assert!(cache.lookup(&demands).is_none());
    }
}
