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
    /// Call [`CoreSim::advance`] again at `at`. The core took an L2 hit
    /// whose stall ends at `stall_end`, and it has already drawn the next
    /// operation, whose compute span runs from `stall_end` to `at`.
    /// Nothing happens at `stall_end` itself; a caller that breaks ties by
    /// push order should order this wake as if it were pushed then.
    AfterStall {
        /// When the L2 hit's stall ends.
        stall_end: Ps,
        /// When to call [`CoreSim::advance`] again.
        at: Ps,
    },
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
    /// the L2 reference of `op`. A `start` still ahead is the end of an L2
    /// hit's stall.
    Computing {
        start: Ps,
        end: Ps,
        instrs: u64,
        op: TraceOp,
    },
    /// Pipeline stalled on an L2 hit taken with the MLP window full.
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

    /// Draws the next trace operation and computes its gap from `start`;
    /// returns when the computation ends.
    fn start_compute(&mut self, start: Ps) -> Ps {
        let op = self.gen.next_op();
        let instrs = op.gap + 1;
        let end = start + self.compute_span(instrs);
        self.state = State::Computing {
            start,
            end,
            instrs,
            op,
        };
        end
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
                    return Wake::At(self.start_compute(now));
                }
                State::Computing {
                    start,
                    end,
                    instrs,
                    op,
                } => {
                    if now < end {
                        return if now < start {
                            Wake::AfterStall {
                                stall_end: start,
                                at: end,
                            }
                        } else {
                            Wake::At(end)
                        };
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
                            let stall_end = now + self.config.l2_hit_time;
                            if self.window_full() {
                                self.state = State::L2Stall { end: stall_end };
                                return Wake::At(stall_end);
                            }
                            // The stall commits nothing and adds no
                            // miss, so the window is still free when it
                            // ends: draw the next operation now.
                            let at = self.start_compute(stall_end);
                            return Wake::AfterStall { stall_end, at };
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
    /// resumes at `new_freq`. Returns the next wake if the core has a
    /// timed continuation; blocked cores stay blocked.
    pub fn apply_dvfs(&mut self, now: Ps, new_freq: Freq, halt: Ps) -> Option<Wake> {
        self.counters.halt_time += halt;
        self.halt_until = now + halt;
        self.freq = new_freq;
        match self.state {
            State::Computing {
                start, instrs, op, ..
            } if now < start => {
                // Mid-stall: the rest of the stall follows the halt, and
                // the drawn operation computes at the new clock.
                let stall_end = self.halt_until + (start - now);
                let at = stall_end + self.compute_span(instrs);
                self.state = State::Computing {
                    start: stall_end,
                    end: at,
                    instrs,
                    op,
                };
                Some(Wake::AfterStall { stall_end, at })
            }
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
                Wake::At(t) | Wake::AfterStall { at: t, .. } => t,
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

    /// Takes `c` through its first compute span to its first L2 access,
    /// which always hits on `always_hit_app`. Returns the hit's time, the
    /// operation drawn after it, and the step's wake.
    fn first_hit(c: &mut CoreSim, cache: &mut L2Cache) -> (Ps, TraceOp, Wake) {
        c.warm_l2(cache);
        let mut out = CoreOutput::default();
        let Wake::At(hit) = c.advance(Ps::ZERO, cache, &mut out) else {
            panic!("expected timed wake")
        };
        let next = c.gen.clone().next_op();
        let wake = c.advance(hit, cache, &mut out);
        assert!(out.is_empty());
        (hit, next, wake)
    }

    #[test]
    fn a_hit_with_a_free_window_computes_the_next_op_from_the_stall_end() {
        let mut c = core(always_hit_app(), PipelineMode::InOrder, false);
        let mut cache = l2();
        let (hit, next, wake) = first_hit(&mut c, &mut cache);
        let stall_end = hit + Ps::new(7_500);
        // CPI 1 at 4 GHz: 250 ps per instruction.
        let at = stall_end + Ps::new((next.gap + 1) * 250);
        assert_eq!(wake, Wake::AfterStall { stall_end, at });
        let ctr = *c.counters();
        assert_eq!((ctr.tla, ctr.tms, ctr.tlm), (1, 1, 0));
        assert_eq!(ctr.l2_stall_time, Ps::new(7_500));
        assert_eq!(ctr.busy_time, hit);
        assert_eq!(ctr.tic * 250, hit.as_ps());
        // Mid-stall the pending wake is re-reported; after it, the plain
        // compute span's end.
        let mut out = CoreOutput::default();
        let w = c.advance(hit + Ps::new(1), &mut cache, &mut out);
        assert_eq!(w, Wake::AfterStall { stall_end, at });
        assert_eq!(c.advance(stall_end, &mut cache, &mut out), Wake::At(at));
        assert_eq!(*c.counters(), ctr, "the stall's end commits nothing");
        c.advance(at, &mut cache, &mut out);
        assert_eq!(c.instrs(), ctr.tic + next.gap + 1);
        assert_eq!(c.counters().busy_time, hit + (at - stall_end));
    }

    #[test]
    fn dvfs_during_a_stall_resumes_its_rest_after_the_halt() {
        let mut c = core(always_hit_app(), PipelineMode::InOrder, false);
        let mut cache = l2();
        let (hit, next, _) = first_hit(&mut c, &mut cache);
        let halt = Ps::from_us(20);
        let wake = c.apply_dvfs(hit + Ps::new(3_000), Freq::from_ghz(2.0), halt);
        // The stall's last 4.5 ns follow the halt; then the drawn op
        // computes at 500 ps per instruction.
        let stall_end = hit + Ps::new(3_000) + halt + Ps::new(4_500);
        let at = stall_end + Ps::new((next.gap + 1) * 500);
        assert_eq!(wake, Some(Wake::AfterStall { stall_end, at }));
        assert_eq!(c.counters().halt_time, halt);
        let tic = c.instrs();
        let mut out = CoreOutput::default();
        c.advance(at, &mut cache, &mut out);
        assert_eq!(c.instrs(), tic + next.gap + 1);
        assert_eq!(c.counters().busy_time, hit + (at - stall_end));
    }

    #[test]
    fn a_hit_with_a_full_window_stalls_until_the_stall_end() {
        let half_miss = AppProfile::simple(
            "half",
            1.0,
            InstrMix::INT,
            PhaseProfile::uniform(10.0, 0.5, 0.0, 0.0),
        );
        let mut c = core(half_miss, PipelineMode::MlpWindow(1), false);
        let mut cache = l2();
        c.warm_l2(&mut cache);
        let mut out = CoreOutput::default();
        let mut now = Ps::ZERO;
        let mut inflight: Vec<(Ps, LineAddr)> = Vec::new();
        let (mut full, mut free) = (0, 0);
        for _ in 0..10_000 {
            out.clear();
            let tms = c.counters().tms;
            let wake = c.advance(now, &mut cache, &mut out);
            inflight.extend(out.reads.iter().map(|&l| (now + Ps::from_ns(100), l)));
            if c.counters().tms > tms {
                let stall_end = now + Ps::new(7_500);
                if c.window_full() {
                    assert_eq!(wake, Wake::At(stall_end));
                    full += 1;
                } else {
                    assert!(
                        matches!(wake, Wake::AfterStall { stall_end: s, .. } if s == stall_end),
                        "{wake:?}"
                    );
                    free += 1;
                }
            }
            now = match wake {
                Wake::At(t) | Wake::AfterStall { at: t, .. } => t,
                Wake::Blocked => inflight[0].0,
            };
            while inflight.first().is_some_and(|&(t, _)| t <= now) {
                let (t, line) = inflight.remove(0);
                c.complete_read(t, line, &mut cache, &mut out);
            }
        }
        assert!(full > 0 && free > 0, "{full} full-window hits, {free} free");
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
