//! Trace generation: turns an [`AppProfile`] into an infinite, deterministic
//! stream of instruction blocks and L2 references.

use crate::AppProfile;
use memsim::LineAddr;
use simkernel::{Geometric, SimRng};

/// One step of an application trace: execute `gap` non-memory-stalling
/// instructions, then reference `line` (the reference itself is also one
/// instruction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Instructions committed before the L2 reference.
    pub gap: u64,
    /// Line referenced (an L1 miss, i.e. an L2 access).
    pub line: LineAddr,
    /// Whether the reference is a store.
    pub is_store: bool,
}

/// Per-core address-space layout. Each core owns a disjoint slice of the
/// line-address space; low-order line bits still interleave across memory
/// channels, so all cores spread load over all channels.
#[derive(Clone, Copy, Debug)]
struct Layout {
    hot_base: u64,
    hot_lines: u64,
    rand_base: u64,
    rand_lines: u64,
    stream_base: u64,
    stream_lines: u64,
}

impl Layout {
    fn for_core(core: usize) -> Layout {
        let base = (core as u64) << 32;
        Layout {
            // 4096 lines = 256 KiB: 16 cores jointly fill a quarter of the
            // 16 MiB L2, so hot footprints stay resident even under
            // streaming pressure from co-runners.
            hot_base: base,
            hot_lines: 4 * 1024,
            // 16M lines = 1 GiB: far larger than any L2 share, always misses.
            rand_base: base + (1 << 28),
            rand_lines: 1 << 24,
            stream_base: base + (1 << 29),
            stream_lines: 1 << 24,
        }
    }
}

/// The highest line any trace of a `cores`-core configuration can
/// reference. Each core's slice of the address space lies above the
/// previous core's, and its stream region is the highest of its three,
/// so this is the top of the last core's stream region. A shared L2 must
/// be able to tag this line and the next-line prefetcher's probe one
/// above it.
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn max_line(cores: usize) -> LineAddr {
    let last = Layout::for_core(cores.checked_sub(1).expect("at least one core"));
    LineAddr(last.stream_base + last.stream_lines - 1)
}

/// An infinite, deterministic generator of [`TraceOp`]s for one application
/// instance on one core.
///
/// The generator walks the profile's phases cyclically by instruction count.
/// Within a phase, gaps between L2 references are geometrically distributed
/// with mean `1000 / l2_apki - 1`; each reference targets
///
/// * the **hot** footprint (L2-resident after warm-up) with probability
///   `1 - miss_frac`,
/// * a **streaming** walk of sequential lines (prefetchable) with
///   probability `miss_frac · streaming_frac`, or
/// * a **random** cold line (not prefetchable) otherwise.
///
/// # Example
///
/// ```
/// use workloads::{app, TraceGen};
/// let mut gen = TraceGen::new(app("milc"), 0, 42);
/// let op = gen.next_op();
/// assert!(op.gap < 10_000);
/// ```
#[derive(Clone, Debug)]
pub struct TraceGen {
    profile: AppProfile,
    rng: SimRng,
    layout: Layout,
    phase_idx: usize,
    instrs_in_phase: u64,
    phase_len: u64,
    /// The current phase's gap law, built when the phase is entered.
    gap_law: Geometric,
    stream_ptr: u64,
    total_instrs: u64,
}

impl TraceGen {
    /// Creates a generator for `profile` pinned to `core`, seeded so that
    /// different `(core, seed)` pairs produce independent streams.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation.
    pub fn new(profile: AppProfile, core: usize, seed: u64) -> Self {
        if let Err(e) = profile.validate() {
            panic!("invalid profile: {e}");
        }
        let mut root = SimRng::new(seed);
        let rng = root.fork(core as u64);
        let phase_len = Self::phase_len_of(&profile, 0);
        let gap_law = Self::gap_law_of(&profile, 0);
        TraceGen {
            profile,
            rng,
            layout: Layout::for_core(core),
            phase_idx: 0,
            instrs_in_phase: 0,
            phase_len,
            gap_law,
            stream_ptr: 0,
            total_instrs: 0,
        }
    }

    fn phase_len_of(profile: &AppProfile, idx: usize) -> u64 {
        let w = profile.phases[idx].weight;
        ((profile.phase_cycle_instrs as f64) * w).round().max(1.0) as u64
    }

    /// Phase `idx`'s gap law: a mean gap that puts one reference every
    /// `1000 / l2_apki` instructions, counting the referencing
    /// instruction itself.
    fn gap_law_of(profile: &AppProfile, idx: usize) -> Geometric {
        let period = (1000.0 / profile.phases[idx].l2_apki).max(1.0);
        Geometric::new((1.0 / period).clamp(1e-9, 1.0))
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// Total instructions generated so far (gaps plus references).
    pub fn total_instrs(&self) -> u64 {
        self.total_instrs
    }

    /// The lines of this application's hot (cache-resident) footprint, for
    /// warmup pre-filling. Trace-driven simulators conventionally warm the
    /// cache state before measurement (the paper's SimPoints include M5
    /// warmup); pre-installing the hot set avoids polluting short windows
    /// with compulsory misses the paper's traces would not contain.
    pub fn hot_footprint(&self) -> impl Iterator<Item = LineAddr> + '_ {
        (self.layout.hot_base..self.layout.hot_base + self.layout.hot_lines).map(LineAddr)
    }

    /// Produces the next trace operation. Never returns `None`; traces wrap
    /// around their phase cycle forever, which is how the engine keeps
    /// finished applications applying realistic pressure while slower
    /// co-runners complete (§4.1 of the paper).
    pub fn next_op(&mut self) -> TraceOp {
        let phase = self.profile.phases[self.phase_idx];
        let gap = self.gap_law.sample(&mut self.rng);

        let is_store = self.rng.chance(phase.store_frac);
        let line = if self.rng.chance(phase.miss_frac) {
            if self.rng.chance(phase.streaming_frac) {
                let l = self.layout.stream_base + (self.stream_ptr % self.layout.stream_lines);
                self.stream_ptr += 1;
                l
            } else {
                self.layout.rand_base + self.rng.below(self.layout.rand_lines)
            }
        } else {
            self.layout.hot_base + self.rng.below(self.layout.hot_lines)
        };

        self.advance_instrs(gap + 1);
        TraceOp {
            gap,
            line: LineAddr(line),
            is_store,
        }
    }

    fn advance_instrs(&mut self, n: u64) {
        self.total_instrs += n;
        self.instrs_in_phase += n;
        while self.instrs_in_phase >= self.phase_len {
            self.instrs_in_phase -= self.phase_len;
            self.phase_idx = (self.phase_idx + 1) % self.profile.phases.len();
            self.phase_len = Self::phase_len_of(&self.profile, self.phase_idx);
            self.gap_law = Self::gap_law_of(&self.profile, self.phase_idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{app, AppProfile, InstrMix, PhaseProfile};

    fn flat(l2_apki: f64, miss: f64, stream: f64) -> AppProfile {
        AppProfile::simple(
            "t",
            1.0,
            InstrMix::INT,
            PhaseProfile::uniform(l2_apki, miss, stream, 0.3),
        )
    }

    /// Every registered application, plus two edge profiles: one phase at
    /// 1000 APKI (p = 1, so no gap is drawn) beside an ordinary phase, and
    /// one at an APKI so low that `p` clamps to 1e-9.
    fn reference_profiles() -> Vec<AppProfile> {
        let mut all: Vec<AppProfile> = crate::ALL_APPS.iter().map(|n| app(n)).collect();
        let mut dense = flat(1000.0, 0.5, 0.5);
        dense.phases[0].weight = 0.5;
        let mut sparse_phase = PhaseProfile::uniform(8.0, 0.3, 0.2, 0.3);
        sparse_phase.weight = 0.5;
        dense.phases.push(sparse_phase);
        dense.phase_cycle_instrs = 40_000;
        all.push(dense);
        let mut sparse = flat(1e-7, 0.5, 0.5);
        sparse.phase_cycle_instrs = 1_000_000_000_000;
        all.push(sparse);
        all
    }

    /// Every gap is the draw the generator made before its gap law moved
    /// to phase entry: `SimRng::geometric` at a `p` recomputed from the
    /// current phase, on the same rng state. Runs past one full phase
    /// cycle, so every phase entry is crossed at least once.
    #[test]
    fn gaps_match_per_op_geometric_draws() {
        for (i, profile) in reference_profiles().into_iter().enumerate() {
            let mut g = TraceGen::new(profile.clone(), i % 16, 7 + i as u64);
            let horizon = profile.phase_cycle_instrs + profile.phase_cycle_instrs / 4;
            let mut ops = 0u64;
            while g.total_instrs() <= horizon {
                let period = (1000.0 / profile.phases[g.phase_idx].l2_apki).max(1.0);
                let want = g.rng.clone().geometric((1.0 / period).clamp(1e-9, 1.0));
                assert_eq!(g.next_op().gap, want, "{} op {ops}", profile.name);
                ops += 1;
            }
        }
    }

    #[test]
    fn deterministic_streams() {
        let mut a = TraceGen::new(app("swim"), 3, 99);
        let mut b = TraceGen::new(app("swim"), 3, 99);
        for _ in 0..1000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn cores_get_disjoint_address_spaces() {
        let mut a = TraceGen::new(app("swim"), 0, 7);
        let mut b = TraceGen::new(app("swim"), 1, 7);
        for _ in 0..500 {
            let la = a.next_op().line.0 >> 32;
            let lb = b.next_op().line.0 >> 32;
            assert_eq!(la, 0);
            assert_eq!(lb, 1);
        }
    }

    /// `cpusim::L2Cache` tags `line >> log2(sets)` in 30 bits and panics
    /// on a line whose tag does not fit, so `SimConfig::validate` checks
    /// the L2 against `max_line` plus the prefetcher's probe. That bound
    /// must cover every region of every core, and it is reached: the
    /// stream region's last line. At the 16 cores `SimConfig` allows it
    /// and the probe lie below 2^36, so an L2 of 64 sets or more fits
    /// any configuration.
    #[test]
    fn every_line_fits_the_l2_tag() {
        for cores in 1..=16 {
            let bound = max_line(cores).0;
            for core in 0..cores {
                let l = Layout::for_core(core);
                let tops = [
                    l.hot_base + l.hot_lines - 1,
                    l.rand_base + l.rand_lines - 1,
                    l.stream_base + l.stream_lines - 1,
                ];
                for top in tops {
                    assert!(top <= bound, "{cores} cores: core {core} top {top:#x}");
                }
            }
            let mut g = TraceGen::new(flat(20.0, 1.0, 1.0), cores - 1, 3);
            g.stream_ptr = g.layout.stream_lines - 1;
            assert_eq!(g.next_op().line.0, bound, "{cores} cores");
        }
        assert!(max_line(16).0 + 1 < 1 << 36);
    }

    #[test]
    fn reference_rate_matches_apki() {
        let mut g = TraceGen::new(flat(20.0, 0.5, 0.0), 0, 1);
        let mut refs = 0u64;
        while g.total_instrs() < 2_000_000 {
            g.next_op();
            refs += 1;
        }
        let apki = refs as f64 * 1000.0 / g.total_instrs() as f64;
        assert!((apki - 20.0).abs() < 1.0, "apki {apki}");
    }

    #[test]
    fn miss_fraction_matches_profile() {
        let mut g = TraceGen::new(flat(20.0, 0.25, 0.0), 0, 2);
        let layout_split = 1u64 << 28;
        let mut cold = 0;
        let n = 20_000;
        for _ in 0..n {
            if g.next_op().line.0 >= layout_split {
                cold += 1;
            }
        }
        let frac = cold as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "cold frac {frac}");
    }

    #[test]
    fn streaming_accesses_are_sequential() {
        let mut g = TraceGen::new(flat(20.0, 1.0, 1.0), 0, 3);
        let first = g.next_op().line.0;
        for i in 1..100u64 {
            assert_eq!(g.next_op().line.0, first + i);
        }
    }

    #[test]
    fn phases_cycle_in_order() {
        let mut profile = app("milc");
        profile.phase_cycle_instrs = 100_000; // shrink for the test
        let mut g = TraceGen::new(profile, 0, 4);
        let mut seen = Vec::new();
        let mut last = usize::MAX;
        while g.total_instrs() < 350_000 {
            g.next_op();
            if g.phase_idx != last {
                last = g.phase_idx;
                seen.push(last);
            }
        }
        // Phases 0,1,2 repeat cyclically.
        assert!(seen.len() >= 4);
        for (i, &p) in seen.iter().enumerate() {
            assert_eq!(p, seen[0].wrapping_add(i) % 3);
        }
    }

    #[test]
    fn store_fraction_is_respected() {
        let mut g = TraceGen::new(flat(20.0, 0.5, 0.5), 0, 5);
        let n = 20_000;
        let stores = (0..n).filter(|_| g.next_op().is_store).count();
        let frac = stores as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "store frac {frac}");
    }

    #[test]
    #[should_panic(expected = "invalid profile")]
    fn invalid_profile_is_rejected() {
        let mut p = flat(20.0, 0.5, 0.0);
        p.phases.clear();
        let _ = TraceGen::new(p, 0, 0);
    }
}
