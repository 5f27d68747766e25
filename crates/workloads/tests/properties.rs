//! Property-based tests for workload generation: statistical calibration,
//! determinism and address-space discipline.

use proptest::prelude::*;
use workloads::{app, mix, AppProfile, InstrMix, PhaseProfile, TraceGen, ALL_APPS};

fn arb_phase() -> impl Strategy<Value = PhaseProfile> {
    (1.0f64..100.0, 0.01f64..1.0, 0.0f64..1.0, 0.0f64..1.0)
        .prop_map(|(apki, miss, stream, store)| PhaseProfile::uniform(apki, miss, stream, store))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The generated access rate tracks the profile's L2 APKI within 10%.
    #[test]
    fn access_rate_matches_profile(phase in arb_phase(), seed in any::<u64>()) {
        let profile = AppProfile::simple("t", 1.0, InstrMix::INT, phase);
        let mut g = TraceGen::new(profile, 0, seed);
        let mut ops = 0u64;
        while g.total_instrs() < 500_000 {
            g.next_op();
            ops += 1;
        }
        let apki = ops as f64 * 1000.0 / g.total_instrs() as f64;
        let target = phase.l2_apki.min(1000.0);
        prop_assert!((apki - target).abs() / target < 0.10,
            "apki {apki} vs target {target}");
    }

    /// Every generated address stays inside the core's private slice of the
    /// line-address space.
    #[test]
    fn addresses_stay_in_core_slice(core in 0usize..16, seed in any::<u64>()) {
        let mut g = TraceGen::new(app("swim"), core, seed);
        for _ in 0..2_000 {
            let op = g.next_op();
            prop_assert_eq!((op.line.0 >> 32) as usize, core);
        }
    }

    /// Two generators with the same (profile, core, seed) agree forever;
    /// different seeds diverge quickly.
    #[test]
    fn determinism_and_seed_sensitivity(seed in any::<u64>()) {
        let mut a = TraceGen::new(app("milc"), 3, seed);
        let mut b = TraceGen::new(app("milc"), 3, seed);
        for _ in 0..500 {
            prop_assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = TraceGen::new(app("milc"), 3, seed.wrapping_add(1));
        let diverged = (0..100).any(|_| a.next_op() != c.next_op());
        prop_assert!(diverged);
    }
}

#[test]
fn every_app_profile_generates_plausible_store_fractions() {
    for name in ALL_APPS {
        let profile = app(name);
        let expect: f64 = profile.phases.iter().map(|p| p.weight * p.store_frac).sum();
        let mut g = TraceGen::new(profile, 0, 42);
        let n = 30_000;
        let stores = (0..n).filter(|_| g.next_op().is_store).count();
        let got = stores as f64 / n as f64;
        assert!(
            (got - expect).abs() < 0.05,
            "{name}: store fraction {got} vs {expect}"
        );
    }
}

#[test]
fn mixes_reference_only_registered_apps() {
    for m in workloads::all_mixes() {
        for a in m.apps {
            assert!(ALL_APPS.contains(&a), "{} uses unknown app {a}", m.name);
        }
    }
    // And the Figure 7 subject exists where the paper needs it.
    assert!(mix("MIX2").unwrap().apps.contains(&"milc"));
}
