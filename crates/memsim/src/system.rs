//! The top-level memory system: channels, refresh generation, DVFS.

use crate::channel::{Channel, Request};
use crate::config::T_REFI;
use crate::{map_line, LineAddr, MemConfig, MemCounters, CHANNELS, RANKS, RANKS_PER_CHANNEL};
use simkernel::{stats::Histogram, Freq, Ps};

/// DLL re-lock time in bus cycles when the bus frequency changes
/// (tDLLK ≈ 512).
const RECAL_CYCLES: u64 = 512;
/// Penalty on top of the DLL re-lock when changing bus frequency (28 ns in
/// the paper: fast-exit precharge powerdown).
const RECAL_EXTRA: Ps = Ps::from_ns(28);

/// Events the memory system asks the simulation driver to deliver back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemEvent {
    /// Make a scheduling decision on `channel`.
    Schedule {
        /// Channel index.
        channel: usize,
    },
    /// Issue a periodic refresh to `rank` of `channel`.
    Refresh {
        /// Channel index.
        channel: usize,
        /// Rank index within the channel.
        rank: usize,
    },
}

/// A finished read: the `tag` passed to [`MemorySystem::enqueue_read`] and
/// the time its data is available to the core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Caller-chosen request identifier.
    pub tag: u64,
    /// Data-return time.
    pub finish: Ps,
}

/// Out-parameters of one interaction with the memory system. Calls append
/// to both lists, so a caller reuses one `Outcome` across calls, to avoid
/// per-event allocation, by draining both lists after each call.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Reads that finished as a result of this interaction.
    pub completions: Vec<Completion>,
    /// Events to deliver back to [`MemorySystem::handle`] at the given times.
    pub wakeups: Vec<(Ps, MemEvent)>,
}

/// The simulated DDR3 memory subsystem.
///
/// The driver (the epoch engine in the `coscale` crate) owns the global
/// event queue. `MemorySystem` communicates through [`Outcome`]: enqueue and
/// handle calls append wakeup requests, and the driver feeds them back via
/// [`MemorySystem::handle`] at the requested times.
///
/// # Example
///
/// ```
/// use memsim::{MemConfig, MemorySystem, Outcome, LineAddr};
/// use simkernel::Ps;
///
/// let config = MemConfig::default();
/// let mut mem = MemorySystem::new(config);
/// let mut out = Outcome::default();
/// mem.enqueue_read(Ps::ZERO, LineAddr(7), 42, &mut out);
/// // Drive the returned wakeups until the read completes.
/// let mut done = Vec::new();
/// while done.is_empty() {
///     let mut next = Outcome::default();
///     for (t, ev) in out.wakeups.clone() {
///         mem.handle(t, ev, &mut next);
///     }
///     done.extend(next.completions.iter().copied());
///     out = next;
/// }
/// assert_eq!(done[0].tag, 42);
/// ```
#[derive(Clone, Debug)]
pub struct MemorySystem {
    config: MemConfig,
    channels: Vec<Channel>,
    freq_idx: usize,
    /// All activity is frozen until this time after a frequency change.
    recal_until: Ps,
    counters: MemCounters,
    outstanding_reads: usize,
    /// Distribution of demand-read latencies, picoseconds.
    read_latency_hist: Histogram,
}

impl MemorySystem {
    /// Creates a memory system at the highest frequency in the grid.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`MemConfig::validate`].
    pub fn new(config: MemConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid memory config: {e}");
        }
        let channels = (0..CHANNELS).map(|_| Channel::new()).collect();
        let freq_idx = config.max_freq_idx();
        MemorySystem {
            config,
            channels,
            freq_idx,
            recal_until: Ps::ZERO,
            counters: MemCounters::default(),
            outstanding_reads: 0,
            read_latency_hist: Histogram::new(),
        }
    }

    /// The refresh events every driver must schedule once at startup,
    /// staggered across ranks so refreshes do not align system-wide.
    pub fn initial_events(&self) -> Vec<(Ps, MemEvent)> {
        let mut evs = Vec::new();
        let mut i = 0u64;
        for channel in 0..CHANNELS {
            for rank in 0..RANKS_PER_CHANNEL {
                let offset = T_REFI * i / RANKS as u64;
                evs.push((offset, MemEvent::Refresh { channel, rank }));
                i += 1;
            }
        }
        evs
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Current bus frequency.
    pub fn bus_freq(&self) -> Freq {
        self.config.freq_grid[self.freq_idx]
    }

    /// Current bus frequency index into the grid.
    pub fn freq_idx(&self) -> usize {
        self.freq_idx
    }

    /// Cumulative performance counters.
    pub fn counters(&self) -> &MemCounters {
        &self.counters
    }

    /// Distribution of demand-read latencies (picosecond samples).
    pub fn read_latency_histogram(&self) -> &Histogram {
        &self.read_latency_hist
    }

    /// Number of reads accepted but not yet completed.
    pub fn outstanding_reads(&self) -> usize {
        self.outstanding_reads
    }

    /// Total queued (not yet issued) requests across channels.
    pub fn queued_requests(&self) -> usize {
        self.channels
            .iter()
            .map(|c| c.queued_reads() + c.queued_writes())
            .sum()
    }

    /// Enqueues a demand read of `line`. A [`Completion`] carrying `tag`
    /// is eventually produced by a later [`MemorySystem::handle`] call.
    pub fn enqueue_read(&mut self, now: Ps, line: LineAddr, tag: u64, out: &mut Outcome) {
        let loc = map_line(&self.config, line);
        let channel = loc.channel;
        self.outstanding_reads += 1;
        self.channels[channel].push_read(Request {
            tag,
            loc,
            arrival: now,
            is_write: false,
        });
        self.kick(channel, now, out);
    }

    /// Enqueues a writeback of `line`; writebacks complete silently.
    pub fn enqueue_writeback(&mut self, now: Ps, line: LineAddr, out: &mut Outcome) {
        let loc = map_line(&self.config, line);
        let channel = loc.channel;
        self.channels[channel].push_write(Request {
            tag: 0,
            loc,
            arrival: now,
            is_write: true,
        });
        self.kick(channel, now, out);
    }

    /// Requests a scheduling pass on `channel` at `max(now, recal_until)`
    /// unless an earlier or simultaneous pass is already pending. A request
    /// supersedes the channel's pending pass (see [`MemorySystem::handle`]).
    fn kick(&mut self, channel: usize, now: Ps, out: &mut Outcome) {
        let at = now.max(self.recal_until);
        let ch = &mut self.channels[channel];
        match ch.next_schedule {
            Some(t) if t <= at => {}
            _ => {
                ch.next_schedule = Some(at);
                out.wakeups.push((at, MemEvent::Schedule { channel }));
            }
        }
    }

    /// Delivers an event previously requested through [`Outcome::wakeups`].
    ///
    /// A channel has at most one pending scheduling pass and a rank exactly
    /// one pending refresh, and a later wakeup for either supersedes the
    /// earlier one. So an event loop may keep only the latest wakeup per
    /// channel and per rank, as the `coscale` engine does. It may also
    /// deliver every wakeup from an append-only queue: a superseded
    /// `Schedule` that pops at a time other than its channel's pending pass
    /// is ignored, and one that pops at that time runs the pending pass.
    pub fn handle(&mut self, now: Ps, event: MemEvent, out: &mut Outcome) {
        match event {
            MemEvent::Schedule { channel } => self.handle_schedule(channel, now, out),
            MemEvent::Refresh { channel, rank } => {
                let at = now.max(self.recal_until);
                self.channels[channel].refresh_rank(at, rank, &mut self.counters);
                out.wakeups
                    .push((now + T_REFI, MemEvent::Refresh { channel, rank }));
            }
        }
    }

    fn handle_schedule(&mut self, channel: usize, now: Ps, out: &mut Outcome) {
        if self.channels[channel].next_schedule != Some(now) {
            return; // a superseded pass, from a loop that keeps every wakeup
        }
        self.channels[channel].next_schedule = None;

        if now < self.recal_until {
            self.kick(channel, self.recal_until, out);
            return;
        }

        let bus = self.bus_freq();
        let issued = {
            let config = &self.config;
            self.channels[channel].issue_next(now, config, bus, &mut self.counters)
        };
        let Some(issued) = issued else {
            return;
        };
        if let Some((tag, finish, latency)) = issued.completion {
            self.outstanding_reads -= 1;
            self.read_latency_hist.record(latency.as_ps());
            out.completions.push(Completion { tag, finish });
        }
        if self.channels[channel].has_pending() {
            let at = issued.next_decision.max(now);
            self.channels[channel].next_schedule = Some(at);
            out.wakeups.push((at, MemEvent::Schedule { channel }));
        }
    }

    /// Changes the bus frequency to grid index `idx`, halting all memory
    /// traffic for the recalibration window (512 bus cycles at the *old*
    /// frequency plus the powerdown-exit penalty). Returns the time at which
    /// the subsystem resumes. A no-op change returns `now`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the frequency grid.
    pub fn set_frequency(&mut self, now: Ps, idx: usize, out: &mut Outcome) -> Ps {
        assert!(
            idx < self.config.freq_grid.len(),
            "bad frequency index {idx}"
        );
        if idx == self.freq_idx {
            return now;
        }
        let old = self.bus_freq();
        let stall = old.cycles_to_ps(RECAL_CYCLES) + RECAL_EXTRA;
        let until = now + stall;
        self.freq_idx = idx;
        self.recal_until = self.recal_until.max(until);
        self.counters.recal_stall += stall;
        for ch in 0..self.channels.len() {
            // Entering powerdown for recalibration implies precharging all
            // open rows (§3: the DIMM frequency is reset in precharge
            // powerdown).
            self.channels[ch].close_all_rows(now, &mut self.counters);
            self.channels[ch].stall_until(until);
            if self.channels[ch].has_pending() {
                self.kick(ch, until, out);
            }
        }
        until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::EventQueue;

    /// Drives the memory system alone until all queues drain; returns
    /// completions in finish order.
    fn drain(mem: &mut MemorySystem, out: &mut Outcome) -> Vec<Completion> {
        let mut q = EventQueue::new();
        let mut done = Vec::new();
        for (t, e) in out.wakeups.drain(..) {
            q.push(t, e);
        }
        done.append(&mut out.completions);
        let mut guard = 0;
        while let Some((t, e)) = q.pop() {
            // Stop refresh events from keeping the loop alive forever.
            if matches!(e, MemEvent::Refresh { .. })
                && mem.queued_requests() == 0
                && mem.outstanding_reads() == 0
            {
                continue;
            }
            let mut o = Outcome::default();
            mem.handle(t, e, &mut o);
            done.extend(o.completions.iter().copied());
            for (wt, we) in o.wakeups {
                q.push(wt, we);
            }
            guard += 1;
            assert!(guard < 1_000_000, "runaway event loop");
        }
        done
    }

    #[test]
    fn read_completes_with_expected_latency() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut out = Outcome::default();
        mem.enqueue_read(Ps::ZERO, LineAddr(0), 9, &mut out);
        let done = drain(&mut mem, &mut out);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 9);
        assert_eq!(done[0].finish, Ps::from_ns(40));
        assert_eq!(mem.outstanding_reads(), 0);
    }

    #[test]
    fn many_reads_all_complete_once() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut out = Outcome::default();
        let n = 200;
        for i in 0..n {
            mem.enqueue_read(Ps::from_ns(i), LineAddr(i * 3), i, &mut out);
        }
        let done = drain(&mut mem, &mut out);
        assert_eq!(done.len(), n as usize);
        let mut tags: Vec<u64> = done.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..n).collect::<Vec<_>>());
        assert_eq!(mem.counters().reads, n);
    }

    #[test]
    fn writebacks_do_not_produce_completions() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut out = Outcome::default();
        for i in 0..10 {
            mem.enqueue_writeback(Ps::ZERO, LineAddr(i), &mut out);
        }
        let done = drain(&mut mem, &mut out);
        assert!(done.is_empty());
        assert_eq!(mem.counters().writes, 10);
    }

    #[test]
    fn frequency_change_stalls_traffic() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut out = Outcome::default();
        let resume = mem.set_frequency(Ps::ZERO, 0, &mut out);
        // 512 cycles at 800 MHz = 640 ns, plus 28 ns.
        assert_eq!(resume, Ps::from_ns(668));
        assert_eq!(mem.bus_freq(), Freq::from_mhz(200));
        mem.enqueue_read(Ps::from_ns(10), LineAddr(0), 1, &mut out);
        let done = drain(&mut mem, &mut out);
        // Service can only start after recalibration.
        assert_eq!(done[0].finish, resume + Ps::from_ns(55));
        assert_eq!(mem.counters().recal_stall, Ps::from_ns(668));
    }

    #[test]
    fn noop_frequency_change_is_free() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut out = Outcome::default();
        let idx = mem.freq_idx();
        let resume = mem.set_frequency(Ps::from_ns(100), idx, &mut out);
        assert_eq!(resume, Ps::from_ns(100));
        assert_eq!(mem.counters().recal_stall, Ps::ZERO);
    }

    #[test]
    fn refresh_events_resubscribe() {
        let mem = MemorySystem::new(MemConfig::default());
        let evs = mem.initial_events();
        assert_eq!(evs.len(), 16); // 4 channels x 4 ranks
                                   // Staggered within one tREFI.
        assert!(evs.iter().all(|(t, _)| *t < T_REFI));
        let mut mem = mem;
        let mut out = Outcome::default();
        mem.handle(evs[0].0, evs[0].1, &mut out);
        assert_eq!(out.wakeups.len(), 1);
        assert_eq!(out.wakeups[0].0, evs[0].0 + T_REFI);
        assert_eq!(mem.counters().refreshes, 1);
    }

    #[test]
    fn completions_under_load_are_causally_ordered() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut out = Outcome::default();
        for i in 0..64u64 {
            mem.enqueue_read(Ps::ZERO, LineAddr(i), i, &mut out);
        }
        let done = drain(&mut mem, &mut out);
        assert_eq!(done.len(), 64);
        for c in &done {
            assert!(c.finish >= Ps::from_ns(40));
        }
        // Heavy same-time load must show queueing in the counters.
        let ctr = mem.counters();
        assert!(ctr.bank_wait_sum + ctr.bus_wait_sum > Ps::ZERO);
    }

    #[test]
    fn lower_frequency_raises_unloaded_latency_and_bus_busy() {
        let run = |idx: usize| {
            let mut mem = MemorySystem::new(MemConfig::default());
            mem.set_frequency(Ps::ZERO, idx, &mut Outcome::default());
            let mut out = Outcome::default();
            for i in 0..32u64 {
                mem.enqueue_read(
                    Ps::from_us(10) + Ps::from_ns(100 * i),
                    LineAddr(i * 5),
                    i,
                    &mut out,
                );
            }
            let done = drain(&mut mem, &mut out);
            let total: u64 = done.iter().map(|c| c.finish.as_ps()).sum();
            (total, mem.counters().bus_busy)
        };
        let (t_slow, busy_slow) = run(0);
        let (t_fast, busy_fast) = run(9);
        assert!(t_slow > t_fast);
        assert!(busy_slow > busy_fast);
    }

    #[test]
    #[should_panic(expected = "bad frequency index")]
    fn set_frequency_rejects_out_of_grid() {
        let mut mem = MemorySystem::new(MemConfig::default());
        let mut out = Outcome::default();
        mem.set_frequency(Ps::ZERO, 99, &mut out);
    }

    #[test]
    #[should_panic(expected = "invalid memory config")]
    fn new_rejects_invalid_config() {
        let mut c = MemConfig::default();
        c.freq_grid.clear();
        let _ = MemorySystem::new(c);
    }
}
