//! Property-based tests of the CoScale model and policies over randomized
//! profiles: monotonicity, feasibility, and grid-validity invariants.

use coscale::{
    CoScalePolicy, EpochProfile, MemScalePolicy, Model, OfflinePolicy, Plan, Policy,
    SemiCoordinatedPolicy, SimConfig, StaticMaxPolicy, UncoordinatedPolicy,
};
use memsim::MemConfig;
use powermodel::{MemGeometry, PowerConfig};
use proptest::prelude::*;
use simkernel::Ps;

/// Strategy: a plausible random epoch profile for `n` cores.
fn profile_strategy(n: usize) -> impl Strategy<Value = EpochProfile> {
    let core = (
        0.9f64..3.0,     // cpu cycles per instruction
        0.0f64..300e-12, // l2 seconds per instruction
        0.0f64..3e-9,    // mem seconds per instruction
        50_000u64..800_000,
    )
        .prop_map(|(cpu, l2, mem, instrs)| coscale::CoreProfile {
            cpu_cycles_pi: cpu,
            l2_s_pi: l2,
            mem_s_pi: mem,
            instrs,
            cac_pi: [0.45, 0.02, 0.18, 0.35],
        });
    (
        prop::collection::vec(core, n),
        0.0f64..50e-9,
        0.0f64..20e-9,
        1_000u64..200_000,
    )
        .prop_map(move |(cores, bank_wait, bus_wait, reads)| EpochProfile {
            core_freq_idx: vec![9; cores.len()],
            cores,
            mem: coscale::MemProfile {
                bank_wait_s: bank_wait,
                bus_wait_s: bus_wait,
                reads,
                page_opens: reads + reads / 4,
                refreshes: 38,
                rank_active_s: 1e-4,
                l2_accesses: reads * 3,
            },
            window: Ps::from_us(300),
            mem_freq_idx: 9,
        })
}

struct Fixture {
    core_grid: Vec<simkernel::Freq>,
    mem_cfg: MemConfig,
    power: PowerConfig,
    geom: MemGeometry,
}

fn fixture() -> Fixture {
    let mem_cfg = MemConfig::default();
    Fixture {
        core_grid: SimConfig::core_grid_with_steps(10),
        geom: MemGeometry::of(&mem_cfg),
        power: PowerConfig::default(),
        mem_cfg,
    }
}

fn build_model<'a>(fx: &'a Fixture, p: &'a EpochProfile, slack: &[f64]) -> Model<'a> {
    Model::new(
        p,
        &fx.core_grid,
        &fx.mem_cfg.freq_grid,
        &fx.power,
        fx.geom,
        &fx.mem_cfg.timings,
        slack,
        Ps::from_ms(5),
        0.10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// tpi is monotone non-increasing in both frequencies.
    #[test]
    fn tpi_monotone_in_frequencies(p in profile_strategy(4)) {
        let fx = fixture();
        let slack = vec![0.0; 4];
        let m = build_model(&fx, &p, &slack);
        for i in 0..4 {
            for fc in 0..9 {
                prop_assert!(m.tpi(i, fc, 9) >= m.tpi(i, fc + 1, 9) - 1e-18);
            }
            for fm in 0..9 {
                prop_assert!(m.tpi(i, 9, fm) >= m.tpi(i, 9, fm + 1) - 1e-18);
            }
        }
    }

    /// SER of the all-max plan is exactly 1, and the worst slowdown at max
    /// is 1.
    #[test]
    fn ser_normalized_at_max(p in profile_strategy(4)) {
        let fx = fixture();
        let slack = vec![0.0; 4];
        let m = build_model(&fx, &p, &slack);
        let max = Plan::max(4, 10, 10);
        prop_assert!((m.ser(&max) - 1.0).abs() < 1e-9);
        prop_assert!((m.worst_slowdown(&max) - 1.0).abs() < 1e-12);
    }

    /// Every policy returns a plan inside the grids, and (for the
    /// slack-aware policies) a plan the model itself deems feasible.
    #[test]
    fn policies_return_valid_feasible_plans(p in profile_strategy(6)) {
        let fx = fixture();
        let slack = vec![0.0; 6];
        let m = build_model(&fx, &p, &slack);
        let current = Plan::max(6, 10, 10);
        let mut policies: Vec<Box<dyn Policy>> = vec![
            Box::new(StaticMaxPolicy),
            Box::new(CoScalePolicy::default()),
            Box::new(CoScalePolicy { group_cores: false }),
            Box::new(MemScalePolicy),
            Box::new(coscale::CpuOnlyPolicy),
            Box::new(OfflinePolicy),
            Box::new(SemiCoordinatedPolicy::default()),
            Box::new(UncoordinatedPolicy),
        ];
        for pol in policies.iter_mut() {
            let plan = pol.decide(&m, &current);
            prop_assert_eq!(plan.cores.len(), 6);
            prop_assert!(plan.cores.iter().all(|&c| c < 10));
            prop_assert!(plan.mem < 10);
            // Slack-aware single-controller policies must respect the bound
            // under their own model.
            let name = format!("{}", pol.kind());
            if matches!(name.as_str(), "CoScale" | "MemScale" | "CPUOnly" | "Offline") {
                prop_assert!(m.plan_ok(&plan), "{} returned infeasible plan", name);
            }
        }
    }

    /// CoScale never does worse (in model SER) than the best single-knob
    /// policy, because their search spaces are subsets of its own walk's
    /// recorded configurations... at minimum it must not exceed MemScale's
    /// chosen SER.
    #[test]
    fn coscale_ser_not_worse_than_memscale(p in profile_strategy(5)) {
        let fx = fixture();
        let slack = vec![0.0; 5];
        let m = build_model(&fx, &p, &slack);
        let current = Plan::max(5, 10, 10);
        let co = CoScalePolicy::default().decide(&m, &current);
        let ms = MemScalePolicy.decide(&m, &current);
        prop_assert!(m.ser(&co) <= m.ser(&ms) + 1e-9,
            "CoScale SER {} vs MemScale SER {}", m.ser(&co), m.ser(&ms));
    }

    /// Offline's model-SER is a lower bound on CoScale's (it searches the
    /// exhaustive-equivalent space with the same model).
    #[test]
    fn offline_ser_lower_bounds_coscale(p in profile_strategy(5)) {
        let fx = fixture();
        let slack = vec![0.0; 5];
        let m = build_model(&fx, &p, &slack);
        let current = Plan::max(5, 10, 10);
        let co = CoScalePolicy::default().decide(&m, &current);
        let off = OfflinePolicy.decide(&m, &current);
        prop_assert!(m.ser(&off) <= m.ser(&co) + 1e-9,
            "Offline SER {} must not exceed CoScale SER {}", m.ser(&off), m.ser(&co));
    }

    /// Offline is exact: over all 10^4 plans of a 3-core server, its plan
    /// has the minimum model SER among those that pass `plan_ok`, or is the
    /// all-max plan when none passes.
    #[test]
    fn offline_matches_brute_force(p in profile_strategy(3)) {
        let fx = fixture();
        let slack = vec![0.0; 3];
        let m = build_model(&fx, &p, &slack);
        let max = Plan::max(3, 10, 10);
        let off = OfflinePolicy.decide(&m, &max);
        let best = (0..10_000usize)
            .map(|k| Plan { cores: vec![k % 10, k / 10 % 10, k / 100 % 10], mem: k / 1000 })
            .filter(|plan| m.plan_ok(plan))
            .map(|plan| m.ser(&plan))
            .fold(f64::INFINITY, f64::min);
        if best.is_finite() {
            prop_assert!(m.plan_ok(&off), "Offline plan {:?} breaks the bound", off);
            let ser = m.ser(&off);
            prop_assert!((ser - best).abs() <= 1e-12 * best,
                "Offline SER {} against the brute-force minimum {}", ser, best);
        } else {
            prop_assert_eq!(off, max);
        }
    }

    /// Negative slack (accumulated debt) never loosens the plan: the chosen
    /// frequencies under debt are at least as high as with zero slack.
    #[test]
    fn debt_never_lowers_frequencies(p in profile_strategy(4), debt in 0.0f64..2e-3) {
        let fx = fixture();
        let zero = vec![0.0; 4];
        let owed = vec![-debt; 4];
        let m0 = build_model(&fx, &p, &zero);
        let m1 = build_model(&fx, &p, &owed);
        let current = Plan::max(4, 10, 10);
        let p0 = CoScalePolicy::default().decide(&m0, &current);
        let p1 = CoScalePolicy::default().decide(&m1, &current);
        prop_assert!(p1.mem >= p0.mem || p1.cores.iter().zip(&p0.cores).any(|(a, b)| a >= b),
            "debt should not produce a uniformly lower plan");
        // And the debt plan is feasible under the debt model — unless the
        // debt is so deep that even all-max violates the bound, in which
        // case running at max is the only (and correct) choice.
        prop_assert!(m1.plan_ok(&p1) || p1 == current);
    }
}
