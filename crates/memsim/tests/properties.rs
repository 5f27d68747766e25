//! Property-based tests for the DDR3 memory simulator: timing legality,
//! conservation of requests, and frequency-scaling monotonicity.

use memsim::{
    AddrMap, Completion, IdleMemPolicy, IdleMode, LineAddr, MemConfig, MemEvent, MemorySystem,
    Outcome, PagePolicy, SchedPolicy,
};
use proptest::prelude::*;
use simkernel::{EventQueue, Ps};

/// All interesting memory-configuration variants, by index.
fn config_variant(v: u8) -> MemConfig {
    let mut c = MemConfig::default();
    match v % 5 {
        0 => {}
        1 => {
            c.page_policy = PagePolicy::Open;
        }
        2 => {
            c.page_policy = PagePolicy::Open;
            c.addr_map = AddrMap::RowInterleaved;
        }
        3 => {
            c.page_policy = PagePolicy::Open;
            c.addr_map = AddrMap::RowInterleaved;
            c.sched = SchedPolicy::FrFcfs;
        }
        _ => {
            c.idle_policy = Some(IdleMemPolicy {
                threshold: Ps::from_us(1),
                mode: IdleMode::SelfRefresh,
            });
        }
    }
    c
}

/// A simulation's event loop: delivers the memory system's wakeups in
/// time order.
struct EventLoop {
    /// Wakeups, each with its channel's count of `Schedule` pushes so far.
    queue: EventQueue<(MemEvent, u64)>,
    schedules: Vec<u64>,
    /// Skip every `Schedule` but each channel's latest, as the `coscale`
    /// engine's agenda does. Otherwise every wakeup is delivered, as from
    /// an append-only queue.
    latest_only: bool,
    done: Vec<Completion>,
}

impl EventLoop {
    fn new(mem: &MemorySystem, latest_only: bool) -> Self {
        EventLoop {
            queue: EventQueue::new(),
            schedules: vec![0; mem.config().channels],
            latest_only,
            done: Vec::new(),
        }
    }

    /// Takes `out`'s completions and wakeups, leaving it empty.
    fn absorb(&mut self, out: &mut Outcome) {
        self.done.append(&mut out.completions);
        for (t, e) in out.wakeups.drain(..) {
            let n = match e {
                MemEvent::Schedule { channel } => {
                    self.schedules[channel] += 1;
                    self.schedules[channel]
                }
                MemEvent::Refresh { .. } => 0,
            };
            self.queue.push(t, (e, n));
        }
    }

    /// Delivers every wakeup due by `t_end`.
    fn run_until(&mut self, mem: &mut MemorySystem, t_end: Ps) {
        let mut out = Outcome::default();
        let mut steps = 0usize;
        while self.queue.peek_time().is_some_and(|t| t <= t_end) {
            let (t, (e, n)) = self.queue.pop().expect("peeked");
            match e {
                MemEvent::Schedule { channel }
                    if self.latest_only && n != self.schedules[channel] => {}
                MemEvent::Refresh { .. }
                    if mem.queued_requests() == 0 && mem.outstanding_reads() == 0 => {}
                _ => {
                    mem.handle(t, e, &mut out);
                    self.absorb(&mut out);
                    steps += 1;
                    assert!(steps < 2_000_000, "runaway event loop");
                }
            }
        }
    }
}

/// Drives the memory system until every queued request has been serviced,
/// delivering every wakeup.
fn drain(mem: &mut MemorySystem, mut seed_out: Outcome) -> Vec<Completion> {
    let mut events = EventLoop::new(mem, false);
    events.absorb(&mut seed_out);
    events.run_until(mem, Ps::MAX);
    events.done
}

/// Drives `mem` through `requests` until each has been serviced: a read of
/// `line` arriving at `at` for `Some(tag)`, a writeback for `None`, in
/// arrival order. At the middle arrival the bus moves to grid point
/// `fidx`, and requests queue up behind the recalibration stall.
///
/// With `latest_only` the event loop works like the `coscale` engine: before
/// each arrival it delivers the wakeups due by then, so an arrival can
/// supersede its channel's later pending pass, and it keeps only each
/// channel's latest `Schedule`. Otherwise it enqueues requests ahead of
/// their wakeups, stopping only at the frequency change, and delivers
/// every wakeup.
fn serve(
    mem: &mut MemorySystem,
    requests: &[(Ps, LineAddr, Option<u64>)],
    fidx: usize,
    latest_only: bool,
) -> Vec<Completion> {
    let mut events = EventLoop::new(mem, latest_only);
    let mut out = Outcome::default();
    for (i, &(at, line, tag)) in requests.iter().enumerate() {
        let dvfs = i == requests.len() / 2;
        if latest_only || dvfs {
            events.run_until(mem, at);
        }
        if dvfs {
            mem.set_frequency(at, fidx, &mut out);
        }
        match tag {
            Some(tag) => mem.enqueue_read(at, line, tag, &mut out),
            None => mem.enqueue_writeback(at, line, &mut out),
        }
        events.absorb(&mut out);
    }
    events.run_until(mem, Ps::MAX);
    events.done
}

/// A randomized request pattern: (line, gap_ns, is_write).
fn pattern() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    prop::collection::vec((0u64..4096, 0u64..200, any::<bool>()), 1..150)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every read completes exactly once, no matter the pattern, under
    /// every page-policy/scheduler/address-map/idle-state variant, across
    /// a frequency change, under either event loop.
    #[test]
    fn reads_complete_exactly_once(pat in pattern(), variant in 0u8..5, fidx in 0usize..10, latest_only in any::<bool>()) {
        let mut mem = MemorySystem::new(config_variant(variant));
        let mut now = Ps::ZERO;
        let mut requests = Vec::new();
        let mut expected = Vec::new();
        for (i, &(line, gap, is_write)) in pat.iter().enumerate() {
            now += Ps::from_ns(gap);
            let tag = (!is_write).then_some(i as u64);
            requests.push((now, LineAddr(line), tag));
            expected.extend(tag);
        }
        let done = serve(&mut mem, &requests, fidx, latest_only);
        let mut tags: Vec<u64> = done.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        prop_assert_eq!(tags, expected);
        prop_assert_eq!(mem.outstanding_reads(), 0);
    }

    /// Completion time is never before the unloaded service latency after
    /// arrival, and counters decompose latency exactly, across a frequency
    /// change, under either event loop. Under open page the unloaded floor is
    /// the row-hit service (tCL + burst + overhead) at the starting (top)
    /// frequency.
    #[test]
    fn latency_lower_bound_and_decomposition(pat in pattern(), variant in 0u8..4, fidx in 0usize..10, latest_only in any::<bool>()) {
        let cfg = config_variant(variant);
        let open = cfg.page_policy == PagePolicy::Open;
        let mut mem = MemorySystem::new(cfg);
        let mut now = Ps::ZERO;
        let mut requests = Vec::new();
        for (i, &(line, gap, _)) in pat.iter().enumerate() {
            now += Ps::from_ns(gap);
            requests.push((now, LineAddr(line), Some(i as u64)));
        }
        let t = &mem.config().timings;
        let unloaded = if open {
            t.t_cl + t.burst_time(mem.bus_freq()) + t.mc_overhead
        } else {
            t.fixed_read_service() + t.burst_time(mem.bus_freq())
        };
        let done = serve(&mut mem, &requests, fidx, latest_only);
        for c in &done {
            let arrival = requests[c.tag as usize].0;
            prop_assert!(c.finish >= arrival + unloaded,
                "finish {:?} too early for arrival {:?}", c.finish, arrival);
        }
        // Counter identity: latency = bank wait + bus wait + service.
        let ctr = mem.counters();
        let lhs = ctr.read_latency_sum.as_ps();
        let rhs = (ctr.bank_wait_sum + ctr.bus_wait_sum + ctr.bank_service_sum).as_ps();
        prop_assert_eq!(lhs, rhs);
    }

    /// Open page: row hits + conflicts never exceed reads + writes, and
    /// every access is page-accounted (opens = closes + still-open rows).
    #[test]
    fn open_page_accounting(pat in pattern()) {
        let mut mem = MemorySystem::new(config_variant(2));
        let mut out = Outcome::default();
        let mut now = Ps::ZERO;
        for (i, &(line, gap, is_write)) in pat.iter().enumerate() {
            now += Ps::from_ns(gap);
            if is_write {
                mem.enqueue_writeback(now, LineAddr(line), &mut out);
            } else {
                mem.enqueue_read(now, LineAddr(line), i as u64, &mut out);
            }
        }
        let _ = drain(&mut mem, out);
        let ctr = mem.counters();
        let accesses = ctr.reads + ctr.writes;
        prop_assert!(ctr.row_hits + ctr.row_conflicts <= accesses);
        prop_assert!(ctr.page_closes <= ctr.page_opens);
        prop_assert!(ctr.page_opens <= accesses);
    }

    /// Data bursts never overlap on a channel's bus: total bus busy time of
    /// a channel can never exceed the span of the run.
    #[test]
    fn bus_occupancy_fits_in_wallclock(pat in pattern(), fidx in 0usize..10) {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut out = Outcome::default();
        mem.set_frequency(Ps::ZERO, fidx, &mut out);
        let mut now = Ps::from_us(1);
        for (i, &(line, gap, _)) in pat.iter().enumerate() {
            now += Ps::from_ns(gap);
            mem.enqueue_read(now, LineAddr(line), i as u64, &mut out);
        }
        let done = drain(&mut mem, out);
        let end = done.iter().map(|c| c.finish).max().unwrap();
        let channels = mem.config().channels as u64;
        prop_assert!(mem.counters().bus_busy <= end * channels);
    }

    /// Lowering the bus frequency never reduces any individual completion
    /// time for an identical request pattern (monotonicity the DVFS policy
    /// depends on).
    #[test]
    fn slower_bus_is_never_faster(pat in pattern()) {
        let run = |fidx: usize| {
            let mut mem = MemorySystem::new(MemConfig::default());
            // Discards the recalibration wakeups of the initial set.
            mem.set_frequency(Ps::ZERO, fidx, &mut Outcome::default());
            let mut out = Outcome::default();
            let mut now = Ps::from_us(1);
            for (i, &(line, gap, _)) in pat.iter().enumerate() {
                now += Ps::from_ns(gap);
                mem.enqueue_read(now, LineAddr(line), i as u64, &mut out);
            }
            let mut done = drain(&mut mem, out);
            done.sort_by_key(|c| c.tag);
            done
        };
        let slow = run(0);
        let fast = run(9);
        for (s, f) in slow.iter().zip(fast.iter()) {
            prop_assert!(s.finish >= f.finish,
                "tag {} finished earlier at 200MHz ({:?}) than 800MHz ({:?})",
                s.tag, s.finish, f.finish);
        }
    }

    /// Counters are monotone non-decreasing over time, under every variant.
    #[test]
    fn counters_are_monotone(pat in pattern(), variant in 0u8..5) {
        let mut mem = MemorySystem::new(config_variant(variant));
        let mut out = Outcome::default();
        let mut prev = *mem.counters();
        let mut now = Ps::ZERO;
        for (i, &(line, gap, is_write)) in pat.iter().enumerate() {
            now += Ps::from_ns(gap);
            if is_write {
                mem.enqueue_writeback(now, LineAddr(line), &mut out);
            } else {
                mem.enqueue_read(now, LineAddr(line), i as u64, &mut out);
            }
            let c = *mem.counters();
            // delta() debug-asserts on underflow; reaching here means monotone.
            let d = c.delta(&prev);
            prop_assert!(d.reads <= c.reads);
            prev = c;
        }
        let _ = drain(&mut mem, out);
        let _ = mem.counters().delta(&prev);
    }
}
