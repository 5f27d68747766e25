//! Property-based tests for the power models: monotonicity in frequency,
//! voltage and load, and physical bounds.

use cpusim::CoreCounters;
use memsim::MemCounters;
use powermodel::{core_power, l2_power, memory_power, MemGeometry, PowerConfig};
use proptest::prelude::*;
use simkernel::{Freq, Ps};

fn counters(window: Ps, busy_frac: f64, tic: u64) -> CoreCounters {
    CoreCounters {
        tic,
        busy_time: window.scale_f64(busy_frac),
        cac_alu: tic as f64 * 0.45,
        cac_fpu: tic as f64 * 0.02,
        cac_branch: tic as f64 * 0.18,
        cac_loadstore: tic as f64 * 0.35,
        ..CoreCounters::default()
    }
}

fn geom() -> MemGeometry {
    MemGeometry::of(&memsim::MemConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Core power is monotone non-decreasing in frequency for any activity.
    #[test]
    fn core_power_monotone_in_frequency(busy in 0.0f64..1.0, tic in 1u64..5_000_000) {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let c = counters(w, busy, tic);
        let mut last = 0.0;
        for ghz10 in 22..=40u64 {
            let f = Freq::from_ghz(ghz10 as f64 / 10.0);
            let p = core_power(&cfg, f, f, &c, w);
            prop_assert!(p >= last - 1e-12, "power dropped at {ghz10}: {last} -> {p}");
            last = p;
        }
    }

    /// Core power is bounded by leakage below and by ~2x the calibration
    /// point above (FPU-heavy mixes can exceed the typical-activity point).
    #[test]
    fn core_power_within_physical_bounds(busy in 0.0f64..1.0, tic in 1u64..5_000_000) {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let c = counters(w, busy, tic);
        let p = core_power(&cfg, cfg.core_fmax, cfg.core_fmax, &c, w);
        let leak_floor = cfg.core_max_power_w * cfg.core_leak_frac * 0.9;
        prop_assert!(p >= leak_floor, "below leakage: {p}");
        prop_assert!(p <= cfg.core_max_power_w * 2.0, "implausibly high: {p}");
    }

    /// A shared voltage domain never reduces a core's power, and equals the
    /// per-core model when the domain runs at the core's own frequency.
    #[test]
    fn shared_domain_voltage_dominates(busy in 0.0f64..1.0, fc in 0usize..10, fv in 0usize..10) {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let c = counters(w, busy, 1_000_000);
        let grid: Vec<Freq> = (0..10)
            .map(|k| Freq::from_ghz(2.2 + 1.8 * k as f64 / 9.0))
            .collect();
        let own = core_power(&cfg, grid[fc], grid[fc], &c, w);
        let shared = core_power(&cfg, grid[fc], grid[fv], &c, w);
        if fv >= fc {
            prop_assert!(shared >= own - 1e-12);
        } else {
            // Voltage-setting frequency below the core's own clamps up.
            prop_assert!((shared - own).abs() < 1e-12);
        }
    }

    /// Memory power is monotone in traffic intensity.
    #[test]
    fn memory_power_monotone_in_traffic(scale in 1u64..50) {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let mk = |k: u64| MemCounters {
            reads: 2_000 * k,
            page_opens: 2_500 * k,
            bus_busy: Ps::from_us(10) * k.min(95),
            rank_active: Ps::from_us(40) * k.min(399),
            refreshes: 2048,
            ..MemCounters::default()
        };
        let lo = memory_power(&cfg, &geom(), Freq::from_mhz(800), &mk(scale), w);
        let hi = memory_power(&cfg, &geom(), Freq::from_mhz(800), &mk(scale + 1), w);
        prop_assert!(hi.total() >= lo.total() - 1e-9);
    }

    /// L2 power grows linearly with access count.
    #[test]
    fn l2_power_linear_in_accesses(a in 0u64..10_000_000, b in 0u64..10_000_000) {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let pa = l2_power(&cfg, a, w) - cfg.l2_leakage_w;
        let pb = l2_power(&cfg, b, w) - cfg.l2_leakage_w;
        if a > 0 && b > 0 {
            let ratio = (pa / a as f64) / (pb / b as f64);
            prop_assert!((ratio - 1.0).abs() < 1e-9);
        } else {
            prop_assert!(pa >= 0.0 && pb >= 0.0);
        }
    }

    /// The voltage map is monotone and clamped to its endpoints.
    #[test]
    fn voltage_map_monotone(mhz in 1_000u64..6_000) {
        let cfg = PowerConfig::default();
        let v = cfg.core_voltage(Freq::from_mhz(mhz));
        prop_assert!((cfg.core_vmin..=cfg.core_vmax).contains(&v));
        let v2 = cfg.core_voltage(Freq::from_mhz(mhz + 100));
        prop_assert!(v2 >= v - 1e-12);
    }

    /// Sleep residency can only lower DIMM power, never raise it.
    #[test]
    fn sleep_never_raises_power(sleep_us in 0u64..1_000) {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let awake = MemCounters::default();
        let mut sleeping = awake;
        sleeping.rank_sleep = Ps::from_us(sleep_us) * 16;
        let p_awake = memory_power(&cfg, &geom(), Freq::from_mhz(800), &awake, w);
        let p_sleep = memory_power(&cfg, &geom(), Freq::from_mhz(800), &sleeping, w);
        prop_assert!(p_sleep.dimm_w <= p_awake.dimm_w + 1e-9);
    }
}
