//! Property-based tests for the cache and core models.

use cpusim::{Access, CacheConfig, CoreConfig, CoreOutput, CoreSim, L2Cache, PipelineMode, Wake};
use memsim::LineAddr;
use proptest::prelude::*;
use simkernel::{Freq, Ps};
use workloads::{AppProfile, InstrMix, PhaseProfile};

fn tiny_cache() -> L2Cache {
    L2Cache::new(CacheConfig {
        size_bytes: 8 * 1024,
        ways: 4,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After a fill, the line is resident until evicted; a hit immediately
    /// after a fill is guaranteed.
    #[test]
    fn fill_then_access_hits(lines in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut c = tiny_cache();
        for &l in &lines {
            c.fill(LineAddr(l), false, false);
            prop_assert!(c.contains(LineAddr(l)));
            let hit = matches!(c.access(LineAddr(l), false), Access::Hit { .. });
            prop_assert!(hit);
        }
    }

    /// Stats identities: hits + misses equals accesses; writebacks never
    /// exceed fills of dirty data.
    #[test]
    fn cache_stats_identities(ops in prop::collection::vec((0u64..4096, any::<bool>()), 1..500)) {
        let mut c = tiny_cache();
        let mut accesses = 0u64;
        for &(line, is_store) in &ops {
            accesses += 1;
            if let Access::Miss = c.access(LineAddr(line), is_store) {
                c.fill(LineAddr(line), is_store, false);
            }
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, accesses);
        // Store hits also dirty lines, so writebacks ≤ all stores, but they
        // can never exceed total misses (each writeback needs an eviction).
        prop_assert!(s.writebacks <= s.misses);
    }

    /// The cache never reports more prefetch-useful events than prefetch
    /// fills.
    #[test]
    fn prefetch_accounting_bounded(ops in prop::collection::vec((0u64..2048, any::<bool>()), 1..300)) {
        let mut c = tiny_cache();
        for &(line, pf) in &ops {
            if pf {
                c.fill(LineAddr(line), false, true);
            } else if let Access::Miss = c.access(LineAddr(line), false) {
                c.fill(LineAddr(line), false, false);
            }
        }
        let s = c.stats();
        prop_assert!(s.prefetch_useful + s.prefetch_unused <= s.prefetch_fills + 1);
        let acc = s.prefetch_accuracy();
        prop_assert!((0.0..=1.0).contains(&acc));
    }

    /// A core's committed-instruction count only grows, and its counter
    /// identities hold at every step, for any memory latency.
    #[test]
    fn core_counters_are_consistent(
        seed in any::<u64>(),
        lat_ns in 20u64..400,
        miss_frac in 0.0f64..1.0,
    ) {
        let profile = AppProfile::simple(
            "prop",
            1.1,
            InstrMix::INT,
            PhaseProfile::uniform(25.0, miss_frac, 0.3, 0.3),
        );
        let mut core = CoreSim::new(0, profile, seed, Freq::from_ghz(3.0), CoreConfig::default());
        let mut l2 = L2Cache::new(CacheConfig::default());
        core.warm_l2(&mut l2);
        let mut out = CoreOutput::default();
        let mut now = Ps::ZERO;
        let mut inflight: Vec<(Ps, LineAddr)> = Vec::new();
        let mut last_tic = 0u64;
        for _ in 0..300 {
            out.clear();
            let wake = core.advance(now, &mut l2, &mut out);
            for &line in &out.reads {
                inflight.push((now + Ps::from_ns(lat_ns), line));
            }
            prop_assert!(core.instrs() >= last_tic);
            last_tic = core.instrs();
            let c = core.counters();
            prop_assert!(c.tms + c.tlm <= c.tla, "stalls exceed accesses");
            prop_assert!(c.tls <= c.tlm);
            prop_assert!(c.tla <= c.tic.max(1));
            now = match wake {
                Wake::At(t) | Wake::AfterStall { at: t, .. } => t,
                Wake::Blocked => {
                    let (t, line) = inflight.remove(0);
                    let mut o = CoreOutput::default();
                    core.complete_read(t.max(now), line, &mut l2, &mut o);
                    t.max(now)
                }
            };
        }
        // CAC fractions sum to the committed instruction count.
        let c = core.counters();
        let cac_sum = c.cac_alu + c.cac_fpu + c.cac_branch + c.cac_loadstore;
        prop_assert!((cac_sum - c.tic as f64).abs() < 1.0);
    }

    /// The MLP window is a relaxation: for the same trace and latency, an
    /// MLP-window core always commits at least as many instructions as the
    /// in-order core by any deadline.
    #[test]
    fn mlp_window_never_slower(seed in any::<u64>(), window in 2u64..256) {
        let profile = AppProfile::simple(
            "prop",
            1.0,
            InstrMix::FP,
            PhaseProfile::uniform(30.0, 0.8, 0.2, 0.3),
        );
        let run = |mode: PipelineMode| {
            let mut core = CoreSim::new(0, profile.clone(), seed, Freq::from_ghz(4.0), CoreConfig {
                pipeline: mode,
                ..CoreConfig::default()
            });
            let mut l2 = L2Cache::new(CacheConfig::default());
            core.warm_l2(&mut l2);
            let mut out = CoreOutput::default();
            let mut now = Ps::ZERO;
            let deadline = Ps::from_us(50);
            let mut inflight: Vec<(Ps, LineAddr)> = Vec::new();
            loop {
                out.clear();
                let wake = core.advance(now, &mut l2, &mut out);
                for &line in &out.reads {
                    inflight.push((now + Ps::from_ns(80), line));
                }
                inflight.sort_by_key(|&(t, _)| t);
                let next = match wake {
                    Wake::At(t) | Wake::AfterStall { at: t, .. } => t,
                    Wake::Blocked => inflight.first().map(|&(t, _)| t).unwrap_or(deadline),
                };
                if next > deadline {
                    break;
                }
                now = next;
                while let Some(&(t, line)) = inflight.first() {
                    if t > now { break; }
                    inflight.remove(0);
                    let mut o = CoreOutput::default();
                    core.complete_read(t, line, &mut l2, &mut o);
                }
            }
            core.instrs()
        };
        let inorder = run(PipelineMode::InOrder);
        let ooo = run(PipelineMode::MlpWindow(window));
        prop_assert!(ooo + 2_000 >= inorder,
            "window {window} slower than in-order: {ooo} vs {inorder}");
    }
}
