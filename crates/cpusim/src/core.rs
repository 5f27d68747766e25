//! The trace-driven core model: an in-order, single-issue pipeline with one
//! outstanding miss (Table 2), plus the paper's two §4.2.4 extensions — a
//! next-line prefetcher and an "MLP window" emulation of out-of-order
//! latency hiding.

use crate::{Access, CoreCounters, L2Cache};
use memsim::LineAddr;
use simkernel::{Freq, Ps};
use workloads::{AppProfile, TraceGen, TraceOp};

/// Pipeline behavior on L2 misses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineMode {
    /// Stall on every L2 miss (one outstanding miss): the zero-width MLP
    /// window.
    InOrder,
    /// Emulate out-of-order latency hiding: all memory operations within an
    /// `n`-instruction window are assumed independent, so the core keeps
    /// executing until the oldest outstanding miss falls `n` instructions
    /// behind (the paper uses 128).
    MlpWindow(u64),
}

/// Static per-core configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// L2 hit latency in wall-clock time. The L2 sits in a fixed uncore
    /// clock domain (30 cycles at the nominal 4 GHz = 7.5 ns), so this does
    /// not scale with core frequency.
    pub l2_hit_time: Ps,
    /// Miss-handling behavior.
    pub pipeline: PipelineMode,
    /// Enable the tagged next-line prefetcher.
    pub prefetch: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            l2_hit_time: Ps::new(7_500),
            pipeline: PipelineMode::InOrder,
            prefetch: false,
        }
    }
}

/// What the core needs next from its driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// Call [`CoreSim::advance`] again at this time.
    At(Ps),
    /// The core is blocked on memory; a completion will un-block it.
    Blocked,
}

/// Requests emitted by a core step, filled into caller-owned buffers.
#[derive(Clone, Debug, Default)]
pub struct CoreOutput {
    /// Demand reads to issue to the memory system.
    pub reads: Vec<LineAddr>,
    /// Prefetch reads to issue (fill-only; never block the core).
    pub prefetches: Vec<LineAddr>,
    /// Dirty evictions to drain to memory.
    pub writebacks: Vec<LineAddr>,
}

impl CoreOutput {
    /// Empties all buffers; call before reuse.
    pub fn clear(&mut self) {
        self.reads.clear();
        self.prefetches.clear();
        self.writebacks.clear();
    }

    /// Whether the step emitted nothing.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.prefetches.is_empty() && self.writebacks.is_empty()
    }
}

#[derive(Clone, Copy, Debug)]
enum State {
    /// Ready to fetch the next trace operation.
    Idle,
    /// Executing `instrs` instructions, finishing at `end`, then performing
    /// the L2 reference of `op`.
    Computing {
        start: Ps,
        end: Ps,
        instrs: u64,
        op: TraceOp,
    },
    /// Pipeline stalled on an L2 hit.
    L2Stall { end: Ps },
    /// MLP window full (for an in-order core, any miss outstanding):
    /// blocked until the oldest outstanding miss returns.
    WaitWindow,
}

/// One simulated core executing one application trace.
///
/// The core is driven externally: [`CoreSim::advance`] runs it forward at
/// the current simulated time and reports when to call again (or that it is
/// blocked); [`CoreSim::complete_read`] / [`CoreSim::complete_prefetch`]
/// deliver memory completions. All L2 interaction goes through the shared
/// [`L2Cache`] handed in by the driver.
#[derive(Clone, Debug)]
pub struct CoreSim {
    id: usize,
    config: CoreConfig,
    /// MLP window width in instructions; in-order is width 0.
    window: u64,
    freq: Freq,
    gen: TraceGen,
    state: State,
    /// Core may not execute before this time (DVFS transition).
    halt_until: Ps,
    /// When the current memory block began, for stall accounting.
    block_start: Ps,
    /// Outstanding demand misses: (line, instruction index at issue, store).
    outstanding: Vec<(LineAddr, u64, bool)>,
    /// Lines with an in-flight prefetch (dedup, bounded).
    outstanding_prefetches: Vec<LineAddr>,
    counters: CoreCounters,
}

/// Upper bound on in-flight prefetches per core; beyond this the prefetcher
/// simply skips (real prefetchers have finite request queues).
const MAX_INFLIGHT_PREFETCHES: usize = 32;

impl CoreSim {
    /// Creates a core executing `profile`, clocked at `freq`.
    pub fn new(id: usize, profile: AppProfile, seed: u64, freq: Freq, config: CoreConfig) -> Self {
        CoreSim {
            id,
            config,
            window: match config.pipeline {
                PipelineMode::InOrder => 0,
                PipelineMode::MlpWindow(w) => w,
            },
            freq,
            gen: TraceGen::new(profile, id, seed),
            state: State::Idle,
            halt_until: Ps::ZERO,
            block_start: Ps::ZERO,
            outstanding: Vec::new(),
            outstanding_prefetches: Vec::new(),
            counters: CoreCounters::default(),
        }
    }

    /// Current core clock.
    pub fn freq(&self) -> Freq {
        self.freq
    }

    /// Cumulative performance counters.
    pub fn counters(&self) -> &CoreCounters {
        &self.counters
    }

    /// Instructions committed so far.
    pub fn instrs(&self) -> u64 {
        self.counters.tic
    }

    /// The application profile this core runs.
    pub fn profile(&self) -> &AppProfile {
        self.gen.profile()
    }

    /// Pre-installs this core's hot footprint into the shared L2, emulating
    /// the warmup phase the paper's SimPoint traces include. Call once at
    /// simulation start; filling is clean, so no writebacks result.
    pub fn warm_l2(&self, l2: &mut L2Cache) {
        for line in self.gen.hot_footprint() {
            l2.fill(line, false, false);
        }
    }

    fn compute_span(&self, instrs: u64) -> Ps {
        let cycles = instrs as f64 * self.gen.profile().cpi_base;
        Ps::new((cycles * self.freq.period().as_ps() as f64).round() as u64)
    }

    fn commit(&mut self, instrs: u64, span: Ps) {
        let c = &mut self.counters;
        c.tic += instrs;
        c.busy_time += span;
        let mix = self.gen.profile().mix;
        let n = instrs as f64;
        c.cac_alu += n * mix.alu;
        c.cac_fpu += n * mix.fpu;
        c.cac_branch += n * mix.branch;
        c.cac_loadstore += n * mix.loadstore;
    }

    fn window_full(&self) -> bool {
        self.outstanding
            .first()
            .is_some_and(|&(_, at, _)| self.counters.tic.saturating_sub(at) >= self.window)
    }

    fn maybe_prefetch(&mut self, line: LineAddr, l2: &L2Cache, out: &mut CoreOutput) {
        if !self.config.prefetch
            || self.outstanding_prefetches.len() >= MAX_INFLIGHT_PREFETCHES
            || l2.contains(line)
            || self.outstanding_prefetches.contains(&line)
        {
            return;
        }
        self.outstanding_prefetches.push(line);
        out.prefetches.push(line);
    }

    /// Runs the core forward at time `now`. Emits memory requests into
    /// `out` and returns when to call again.
    ///
    /// Calling `advance` before the time it previously asked for is allowed
    /// and harmless (it re-reports the pending wake time), so a caller
    /// need not cancel a superseded wake.
    pub fn advance(&mut self, now: Ps, l2: &mut L2Cache, out: &mut CoreOutput) -> Wake {
        if now < self.halt_until {
            return Wake::At(self.halt_until);
        }
        loop {
            match self.state {
                State::Idle => {
                    if self.window_full() {
                        self.state = State::WaitWindow;
                        self.block_start = now;
                        return Wake::Blocked;
                    }
                    let op = self.gen.next_op();
                    let instrs = op.gap + 1;
                    let span = self.compute_span(instrs);
                    self.state = State::Computing {
                        start: now,
                        end: now + span,
                        instrs,
                        op,
                    };
                    return Wake::At(now + span);
                }
                State::Computing {
                    start,
                    end,
                    instrs,
                    op,
                } => {
                    if now < end {
                        return Wake::At(end);
                    }
                    self.commit(instrs, end - start);
                    self.counters.tla += 1;
                    match l2.access(op.line, op.is_store) {
                        Access::Hit {
                            first_use_of_prefetch,
                        } => {
                            self.counters.tms += 1;
                            self.counters.l2_stall_time += self.config.l2_hit_time;
                            if first_use_of_prefetch {
                                self.maybe_prefetch(LineAddr(op.line.0 + 1), l2, out);
                            }
                            self.state = State::L2Stall {
                                end: now + self.config.l2_hit_time,
                            };
                            return Wake::At(now + self.config.l2_hit_time);
                        }
                        Access::Miss => {
                            self.counters.tlm += 1;
                            self.counters.tls += 1;
                            // MSHR-style merge: if a prefetch for this line
                            // is already in flight, piggyback on it instead
                            // of issuing a duplicate read.
                            if !self.outstanding_prefetches.contains(&op.line) {
                                out.reads.push(op.line);
                            }
                            self.outstanding
                                .push((op.line, self.counters.tic, op.is_store));
                            // Stride-1 stream filter: only prefetch when the
                            // preceding line is resident, i.e. the miss looks
                            // like a sequential walk. Prefetching every miss
                            // wastes bandwidth on random accesses, which on a
                            // loaded 16-core memory system costs more than
                            // the hits gain.
                            if self.config.prefetch
                                && op.line.0 > 0
                                && l2.contains(LineAddr(op.line.0 - 1))
                            {
                                self.maybe_prefetch(LineAddr(op.line.0 + 1), l2, out);
                            }
                            // Loop: the Idle arm re-checks the window,
                            // which blocks an in-order core at once.
                            self.state = State::Idle;
                        }
                    }
                }
                State::L2Stall { end } => {
                    if now < end {
                        return Wake::At(end);
                    }
                    self.state = State::Idle;
                }
                State::WaitWindow => return Wake::Blocked,
            }
        }
    }

    /// Delivers a demand-read completion for `line` at time `now`, filling
    /// the L2 (possibly emitting a writeback into `out`). Returns `true` if
    /// the core became runnable and the driver should call
    /// [`CoreSim::advance`].
    ///
    /// # Panics
    ///
    /// Panics if `line` was never requested by this core.
    pub fn complete_read(
        &mut self,
        now: Ps,
        line: LineAddr,
        l2: &mut L2Cache,
        out: &mut CoreOutput,
    ) -> bool {
        let pos = self
            .outstanding
            .iter()
            .position(|&(l, _, _)| l == line)
            .unwrap_or_else(|| panic!("core {}: completion for unknown line {line:?}", self.id));
        let (_, _, is_store) = self.outstanding.remove(pos);
        if let Some(victim) = l2.fill(line, is_store, false) {
            out.writebacks.push(victim);
        }
        self.unblock_after_fill(now)
    }

    /// Re-evaluates blocking after a fill satisfied an outstanding miss.
    fn unblock_after_fill(&mut self, now: Ps) -> bool {
        if !matches!(self.state, State::WaitWindow) || self.window_full() {
            return false;
        }
        self.counters.mem_stall_time += now - self.block_start;
        self.state = State::Idle;
        true
    }

    /// Delivers a prefetch completion: fills the line tagged as prefetched.
    /// If a demand miss merged into this prefetch (MSHR behavior), the fill
    /// is treated as the demand's and the core may become runnable; returns
    /// `true` when the driver should call [`CoreSim::advance`].
    pub fn complete_prefetch(
        &mut self,
        now: Ps,
        line: LineAddr,
        l2: &mut L2Cache,
        out: &mut CoreOutput,
    ) -> bool {
        self.outstanding_prefetches.retain(|&l| l != line);
        if let Some(pos) = self.outstanding.iter().position(|&(l, _, _)| l == line) {
            let (_, _, is_store) = self.outstanding.remove(pos);
            if let Some(victim) = l2.fill(line, is_store, false) {
                out.writebacks.push(victim);
            }
            return self.unblock_after_fill(now);
        }
        if let Some(victim) = l2.fill(line, false, true) {
            out.writebacks.push(victim);
        }
        false
    }

    /// Applies a DVFS transition at `now`: the core halts for `halt` (it
    /// executes no instructions during a voltage/frequency change, §3) and
    /// resumes at `new_freq`. Returns the next wake time if the core has a
    /// timed continuation; blocked cores stay blocked.
    pub fn apply_dvfs(&mut self, now: Ps, new_freq: Freq, halt: Ps) -> Option<Wake> {
        self.counters.halt_time += halt;
        self.halt_until = now + halt;
        self.freq = new_freq;
        match self.state {
            State::Computing {
                start,
                end,
                instrs,
                op,
            } => {
                // Commit the completed fraction at the old frequency and
                // reschedule the remainder at the new one.
                let total = (end - start).as_ps() as f64;
                let done_frac = if total == 0.0 {
                    1.0
                } else {
                    ((now - start).as_ps() as f64 / total).min(1.0)
                };
                let done_instrs = (instrs as f64 * done_frac).floor() as u64;
                self.commit(done_instrs, now - start);
                let remaining = instrs - done_instrs;
                let span = self.compute_span(remaining);
                self.state = State::Computing {
                    start: self.halt_until,
                    end: self.halt_until + span,
                    instrs: remaining,
                    op,
                };
                Some(Wake::At(self.halt_until + span))
            }
            State::L2Stall { end } => {
                let remaining = end.saturating_sub(now);
                let new_end = self.halt_until + remaining;
                self.state = State::L2Stall { end: new_end };
                Some(Wake::At(new_end))
            }
            State::Idle => Some(Wake::At(self.halt_until)),
            State::WaitWindow => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheConfig;
    use workloads::{AppProfile, InstrMix, PhaseProfile};

    fn always_hit_app() -> AppProfile {
        AppProfile::simple(
            "hit",
            1.0,
            InstrMix::INT,
            PhaseProfile::uniform(10.0, 0.0, 0.0, 0.0),
        )
    }

    fn always_miss_app() -> AppProfile {
        AppProfile::simple(
            "miss",
            1.0,
            InstrMix::INT,
            PhaseProfile::uniform(10.0, 1.0, 0.0, 0.0),
        )
    }

    fn l2() -> L2Cache {
        L2Cache::new(CacheConfig::default())
    }

    fn core(profile: AppProfile, mode: PipelineMode, prefetch: bool) -> CoreSim {
        CoreSim::new(
            0,
            profile,
            42,
            Freq::from_ghz(4.0),
            CoreConfig {
                pipeline: mode,
                prefetch,
                ..CoreConfig::default()
            },
        )
    }

    /// Drive a lone core against a trivially fast "memory" that answers
    /// reads after `mem_lat`.
    fn run_solo(core: &mut CoreSim, l2: &mut L2Cache, mem_lat: Ps, until: Ps) {
        core.warm_l2(l2);
        let mut now = Ps::ZERO;
        let mut out = CoreOutput::default();
        // (finish_time, line) of in-flight reads.
        let mut inflight: Vec<(Ps, LineAddr)> = Vec::new();
        loop {
            out.clear();
            let wake = core.advance(now, l2, &mut out);
            for &line in &out.reads {
                inflight.push((now + mem_lat, line));
            }
            for &line in &out.prefetches.clone() {
                let mut o2 = CoreOutput::default();
                core.complete_prefetch(now, line, l2, &mut o2);
            }
            let next = match wake {
                Wake::At(t) => t,
                Wake::Blocked => inflight
                    .iter()
                    .map(|&(t, _)| t)
                    .min()
                    .expect("blocked with nothing in flight"),
            };
            now = next;
            if now > until {
                return;
            }
            inflight.sort_by_key(|&(t, _)| t);
            while let Some(&(t, line)) = inflight.first() {
                if t > now {
                    break;
                }
                inflight.remove(0);
                let mut o2 = CoreOutput::default();
                core.complete_read(t, line, l2, &mut o2);
            }
        }
    }

    #[test]
    fn hit_workload_splits_time_between_compute_and_l2() {
        let mut c = core(always_hit_app(), PipelineMode::InOrder, false);
        let mut cache = l2();
        run_solo(&mut c, &mut cache, Ps::from_ns(40), Ps::from_us(200));
        let ctr = c.counters();
        assert!(ctr.tic > 100_000);
        assert_eq!(ctr.tlm, 0, "hot footprint should stay resident");
        assert!(ctr.tms > 0);
        // alpha ~= 10 accesses per kiloinstruction = 0.01.
        assert!((ctr.alpha() - 0.01).abs() < 0.002, "alpha {}", ctr.alpha());
        assert_eq!(ctr.mem_stall_time, Ps::ZERO);
        assert_eq!(ctr.tpi_l2(), Ps::new(7_500));
    }

    #[test]
    fn miss_workload_stalls_on_memory() {
        let mut c = core(always_miss_app(), PipelineMode::InOrder, false);
        let mut cache = l2();
        run_solo(&mut c, &mut cache, Ps::from_ns(40), Ps::from_us(100));
        let ctr = c.counters();
        assert!(ctr.tlm > 0);
        assert_eq!(ctr.tls, ctr.tlm);
        // Every miss stalled for the full memory latency.
        assert_eq!(ctr.tpi_mem(), Ps::from_ns(40));
        assert!((ctr.beta() - 0.01).abs() < 0.002, "beta {}", ctr.beta());
    }

    #[test]
    fn mlp_window_hides_memory_latency() {
        let run = |mode| {
            let mut c = core(always_miss_app(), mode, false);
            let mut cache = l2();
            run_solo(&mut c, &mut cache, Ps::from_ns(100), Ps::from_us(100));
            let ctr = *c.counters();
            ctr.tic as f64 / (Ps::from_us(100).as_secs_f64() * 4e9) // IPC
        };
        let ipc_inorder = run(PipelineMode::InOrder);
        let ipc_ooo = run(PipelineMode::MlpWindow(128));
        assert!(
            ipc_ooo > ipc_inorder * 1.3,
            "MLP window should raise IPC: {ipc_inorder} vs {ipc_ooo}"
        );
    }

    #[test]
    fn window_limits_outstanding_misses() {
        // Window of 1 behaves like in-order for a miss-every-instruction
        // stream: cannot run more than ~1 op ahead.
        let mut c = core(always_miss_app(), PipelineMode::MlpWindow(1), false);
        let mut cache = l2();
        run_solo(&mut c, &mut cache, Ps::from_ns(100), Ps::from_us(50));
        assert!(c.counters().mem_stall_time > Ps::ZERO);
    }

    #[test]
    fn prefetcher_reduces_misses_on_streaming_workload() {
        let streaming = AppProfile::simple(
            "stream",
            1.0,
            InstrMix::FP,
            PhaseProfile::uniform(20.0, 1.0, 1.0, 0.0),
        );
        let run = |prefetch| {
            let mut c = core(streaming.clone(), PipelineMode::InOrder, prefetch);
            let mut cache = l2();
            run_solo(&mut c, &mut cache, Ps::from_ns(60), Ps::from_us(200));
            let ctr = *c.counters();
            ctr.mpki()
        };
        let mpki_off = run(false);
        let mpki_on = run(true);
        assert!(
            mpki_on < mpki_off * 0.6,
            "next-line prefetch should cut streaming MPKI: {mpki_off} -> {mpki_on}"
        );
    }

    #[test]
    fn lower_frequency_slows_compute_but_not_l2() {
        let run = |ghz| {
            let mut c = CoreSim::new(
                0,
                always_hit_app(),
                42,
                Freq::from_ghz(ghz),
                CoreConfig::default(),
            );
            let mut cache = l2();
            run_solo(&mut c, &mut cache, Ps::from_ns(40), Ps::from_us(100));
            let ctr = *c.counters();
            (ctr.tic, ctr.tpi_l2())
        };
        let (tic_fast, l2_fast) = run(4.0);
        let (tic_slow, l2_slow) = run(2.2);
        assert!(tic_fast as f64 > tic_slow as f64 * 1.4);
        assert_eq!(l2_fast, l2_slow, "L2 latency is uncore-clocked");
    }

    #[test]
    fn dvfs_transition_halts_and_rescales() {
        let mut c = core(always_hit_app(), PipelineMode::InOrder, false);
        let mut cache = l2();
        let mut out = CoreOutput::default();
        let wake = c.advance(Ps::ZERO, &mut cache, &mut out);
        let Wake::At(first_end) = wake else {
            panic!("expected timed wake")
        };
        // Halt mid-segment.
        let mid = first_end / 2;
        let wake = c
            .apply_dvfs(mid, Freq::from_ghz(2.0), Ps::from_us(20))
            .unwrap();
        let Wake::At(resumed) = wake else {
            panic!("expected timed wake")
        };
        assert!(resumed >= mid + Ps::from_us(20));
        assert_eq!(c.counters().halt_time, Ps::from_us(20));
        assert_eq!(c.freq(), Freq::from_ghz(2.0));
        // Advancing during the halt just re-reports the wake time.
        let w = c.advance(mid + Ps::from_ns(1), &mut cache, &mut out);
        assert_eq!(w, Wake::At(mid + Ps::from_us(20)));
    }

    #[test]
    #[should_panic(expected = "unknown line")]
    fn unknown_completion_panics() {
        let mut c = core(always_miss_app(), PipelineMode::InOrder, false);
        let mut cache = l2();
        let mut out = CoreOutput::default();
        c.complete_read(Ps::ZERO, LineAddr(1), &mut cache, &mut out);
    }

    #[test]
    fn determinism_across_clones() {
        let mut a = core(always_miss_app(), PipelineMode::MlpWindow(128), true);
        let mut b = a.clone();
        let mut ca = l2();
        let mut cb = l2();
        run_solo(&mut a, &mut ca, Ps::from_ns(50), Ps::from_us(50));
        run_solo(&mut b, &mut cb, Ps::from_ns(50), Ps::from_us(50));
        assert_eq!(a.counters(), b.counters());
    }
}
