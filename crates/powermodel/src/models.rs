//! The analytic power models: core, L2, DRAM, memory controller,
//! PLL/register, and full-system aggregation.
//!
//! Every function here is *pure*: the same functions score both observed
//! windows (energy accounting) and hypothetical frequency settings (the
//! policies' what-if predictions), exactly as the paper's controller uses
//! one model for both.

use crate::config::*;
use cpusim::CoreCounters;
use memsim::{MemCounters, DIMMS, RANKS, T_RAS, T_RFC, T_RP};
use simkernel::{Freq, Ps};

/// Relative switching cost of each instruction class, normalized so that a
/// typical integer mix has an activity factor near 1.0 (the approach of
/// event-driven energy accounting [Bellosa '00; Isci & Martonosi '03]).
const W_ALU: f64 = 1.0;
const W_FPU: f64 = 1.5;
const W_BRANCH: f64 = 0.8;
const W_LOADSTORE: f64 = 1.2;
/// Normalizer: activity factor of the reference mix.
const AF_REFERENCE: f64 = 1.05;

/// Average power of one core over a window, in watts.
///
/// `ctr` must be the counter *delta* for the window (see
/// [`CoreCounters::delta`]); `window` its wall-clock length; `freq` the
/// frequency the core ran at; `vfreq` the frequency that set its supply
/// voltage, the fastest clock in its *voltage domain* (§3.4 of the paper).
/// With per-core domains `vfreq == freq`; under a shared domain a slow core
/// pays the fast neighbour's voltage. A `vfreq` below `freq` counts as
/// `freq`.
///
/// The model is `P = P_dyn + P_leak` with
/// `P_dyn ∝ AF_eff · (V/Vmax)² · f` and `P_leak ∝ V`, where the effective
/// activity factor blends the instruction-mix activity while busy with a
/// residual idle activity while stalled.
pub fn core_power(
    cfg: &PowerConfig,
    freq: Freq,
    vfreq: Freq,
    ctr: &CoreCounters,
    window: Ps,
) -> f64 {
    if window == Ps::ZERO {
        return 0.0;
    }
    let v = cfg.core_voltage(vfreq.max(freq)) / CORE_VMAX;
    let f = freq.as_hz() as f64 / CORE_FMAX.as_hz() as f64;

    let af_busy = if ctr.tic == 0 {
        CORE_IDLE_ACTIVITY
    } else {
        let weighted = W_ALU * ctr.cac_alu
            + W_FPU * ctr.cac_fpu
            + W_BRANCH * ctr.cac_branch
            + W_LOADSTORE * ctr.cac_loadstore;
        (weighted / ctr.tic as f64) / AF_REFERENCE
    };
    let busy_frac = (ctr.busy_time.as_secs_f64() / window.as_secs_f64()).min(1.0);
    let af_eff = af_busy * busy_frac + CORE_IDLE_ACTIVITY * (1.0 - busy_frac);

    let k_dyn = CORE_MAX_POWER_W * (1.0 - CORE_LEAK_FRAC);
    let k_leak = CORE_MAX_POWER_W * CORE_LEAK_FRAC;
    k_dyn * af_eff * v * v * f + k_leak * v
}

/// Average power of the shared L2 over a window: fixed uncore leakage plus
/// per-access dynamic energy.
pub fn l2_power(accesses: u64, window: Ps) -> f64 {
    if window == Ps::ZERO {
        return L2_LEAKAGE_W;
    }
    L2_LEAKAGE_W + accesses as f64 * L2_ACCESS_ENERGY_J / window.as_secs_f64()
}

/// Memory-subsystem power split into its components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemPower {
    /// DRAM devices: background + activate/precharge + burst + refresh.
    pub dimm_w: f64,
    /// On-chip memory controller (voltage- and frequency-scaled).
    pub mc_w: f64,
    /// DIMM PLL and register devices.
    pub pllreg_w: f64,
}

impl MemPower {
    /// Total memory-subsystem power.
    pub fn total(&self) -> f64 {
        self.dimm_w + self.mc_w + self.pllreg_w
    }
}

/// Frequency-scaling factor for DRAM background currents.
fn dram_freq_factor(bus: Freq) -> f64 {
    let r = bus.as_hz() as f64 / MEM_FMAX.as_hz() as f64;
    IDD_FREQ_FLOOR + (1.0 - IDD_FREQ_FLOOR) * r.min(1.0)
}

/// Average memory-subsystem power over a window at bus frequency `bus`.
///
/// `ctr` must be the [`MemCounters`] delta for the window. Follows the
/// Micron power-calculator structure: per-rank background power chosen by
/// state residency (active standby vs precharge powerdown), per-activation
/// energy, burst power proportional to data-bus occupancy, and refresh
/// energy — plus the paper's MC (4.5–15 W, utilization- and DVFS-scaled)
/// and per-DIMM PLL/register (0.1–0.5 W) components, over the Table 2
/// geometry ([`memsim::RANKS`] ranks on [`memsim::DIMMS`] DIMMs).
pub fn memory_power(cfg: &PowerConfig, bus: Freq, ctr: &MemCounters, window: Ps) -> MemPower {
    if window == Ps::ZERO {
        return MemPower::default();
    }
    let w = window.as_secs_f64();
    let v = DRAM_VDD;
    let chips = CHIPS_PER_RANK * (RANK_CURRENT_SCALE * cfg.mem_scale);
    let ma = 1e-3;
    let ff = dram_freq_factor(bus);

    // Background: each rank is "some bank active" (active standby), idle
    // (fast-exit precharge powerdown, the mode MemScale/CoScale assume), or
    // — when an idle-state manager is configured — asleep in self-refresh.
    let act_frac = ctr.rank_active_fraction(window);
    let sleep_frac = ctr.rank_sleep_fraction(window).min(1.0 - act_frac);
    let idle_frac = (1.0 - act_frac - sleep_frac).max(0.0);
    let bg_per_rank = chips
        * v
        * ff
        * (act_frac * IDD_ACT_STBY_MA + idle_frac * IDD_PRE_PDN_MA + sleep_frac * IDD_SLEEP_MA)
        * ma;
    let background = bg_per_rank * RANKS as f64;

    // Activate/precharge energy per page open, over one row cycle
    // (tRC = tRAS + tRP).
    let e_act =
        (IDD_ACT_PRE_MA - IDD_ACT_STBY_MA).max(0.0) * ma * v * chips * (T_RAS + T_RP).as_secs_f64();
    let activate = ctr.page_opens as f64 * e_act / w;

    // Burst power while the data bus is occupied.
    let p_burst = (IDD_BURST_MA - IDD_ACT_STBY_MA).max(0.0) * ma * v * chips * ff;
    let burst = p_burst * ctr.bus_busy.as_secs_f64() / w;

    // Refresh.
    let e_ref = (IDD_REFRESH_MA - IDD_PRE_PDN_MA).max(0.0) * ma * v * chips * T_RFC.as_secs_f64();
    let refresh = ctr.refreshes as f64 * e_ref / w;

    let dimm_w = background + activate + burst + refresh;

    // Memory controller: linear in utilization, scaled by its own V²f.
    // Each endpoint is scaled on its own and the range is their
    // difference; `(max - min) * scale` would round differently.
    let util = ctr.bus_utilization(window);
    let f_mc = Freq::from_hz(2 * bus.as_hz());
    let v_mc = cfg.mc_voltage(f_mc) / MC_VMAX;
    let f_rel = bus.as_hz() as f64 / MEM_FMAX.as_hz() as f64;
    let (mc_min_w, mc_max_w) = (MC_MIN_W * cfg.mem_scale, MC_MAX_W * cfg.mem_scale);
    let mc_w = (mc_min_w + (mc_max_w - mc_min_w) * util) * v_mc * v_mc * f_rel;

    // PLL/register per DIMM: register part scales with utilization, PLL part
    // with frequency.
    let pll_scale = 0.5 + 0.5 * f_rel;
    let (pllreg_min_w, pllreg_max_w) = (PLLREG_MIN_W * cfg.mem_scale, PLLREG_MAX_W * cfg.mem_scale);
    let pllreg_w = (pllreg_min_w + (pllreg_max_w - pllreg_min_w) * util) * pll_scale * DIMMS as f64;

    MemPower {
        dimm_w,
        mc_w,
        pllreg_w,
    }
}

/// Full-system average power over one window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SystemPower {
    /// Per-core power, watts.
    pub cores_w: Vec<f64>,
    /// Shared L2 power.
    pub l2_w: f64,
    /// Memory subsystem breakdown.
    pub mem: MemPower,
    /// Fixed rest-of-system power.
    pub rest_w: f64,
}

impl SystemPower {
    /// Sum of all components, watts.
    pub fn total(&self) -> f64 {
        self.cores_w.iter().sum::<f64>() + self.l2_w + self.mem.total() + self.rest_w
    }

    /// Total CPU (all cores) power.
    pub fn cpu_total(&self) -> f64 {
        self.cores_w.iter().sum()
    }

    /// Energy over `window`, joules.
    pub fn energy(&self, window: Ps) -> f64 {
        self.total() * window.as_secs_f64()
    }
}

/// Evaluates the full-system power model for one window.
///
/// `core_windows` gives each core's clock, the clock that set its voltage
/// and its counter delta, as [`core_power`] takes them; `l2_accesses` is
/// the L2 access count in the window.
pub fn system_power(
    cfg: &PowerConfig,
    core_windows: &[(Freq, Freq, CoreCounters)],
    l2_accesses: u64,
    bus: Freq,
    mem_ctr: &MemCounters,
    window: Ps,
) -> SystemPower {
    SystemPower {
        cores_w: core_windows
            .iter()
            .map(|(f, v, c)| core_power(cfg, *f, *v, c, window))
            .collect(),
        l2_w: l2_power(l2_accesses, window),
        mem: memory_power(cfg, bus, mem_ctr, window),
        rest_w: cfg.rest_power_w,
    }
}

#[cfg(test)]
// Tests build counter/config fixtures incrementally from defaults on purpose.
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    fn busy_counters(window: Ps, busy_frac: f64, tic: u64) -> CoreCounters {
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

    #[test]
    fn core_power_at_max_matches_calibration() {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let fmax = CORE_FMAX;
        let p = core_power(&cfg, fmax, fmax, &busy_counters(w, 1.0, 1_000_000), w);
        // Typical INT mix AF ≈ 1.0 → close to the calibrated 7.5 W.
        assert!((p - 7.5).abs() < 0.3, "power {p}");
    }

    #[test]
    fn core_power_drops_superlinearly_with_frequency() {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let c = busy_counters(w, 1.0, 1_000_000);
        let (hi, lo) = (Freq::from_ghz(4.0), Freq::from_ghz(2.2));
        let p_hi = core_power(&cfg, hi, hi, &c, w);
        let p_lo = core_power(&cfg, lo, lo, &c, w);
        // V scales 1.2→0.65 and f 4.0→2.2: dynamic part falls by
        // (0.65/1.2)²·(2.2/4) ≈ 0.16, far below the 0.55 linear ratio.
        assert!(p_lo < p_hi * 0.45, "p_lo {p_lo}, p_hi {p_hi}");
        assert!(p_lo > 0.0);
    }

    #[test]
    fn stalled_core_draws_less_than_busy_core() {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let fmax = CORE_FMAX;
        let busy = core_power(&cfg, fmax, fmax, &busy_counters(w, 1.0, 1_000_000), w);
        let stalled = core_power(&cfg, fmax, fmax, &busy_counters(w, 0.1, 100_000), w);
        assert!(stalled < busy * 0.7, "stalled {stalled}, busy {busy}");
        // But never below leakage.
        assert!(stalled > CORE_MAX_POWER_W * CORE_LEAK_FRAC * 0.9);
    }

    #[test]
    fn fpu_heavy_mix_draws_more() {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let mut int_mix = busy_counters(w, 1.0, 1_000_000);
        let mut fp_mix = int_mix;
        fp_mix.cac_fpu = 320_000.0;
        fp_mix.cac_alu = 280_000.0;
        fp_mix.cac_branch = 80_000.0;
        fp_mix.cac_loadstore = 320_000.0;
        int_mix.cac_fpu = 20_000.0;
        let fmax = CORE_FMAX;
        let p_int = core_power(&cfg, fmax, fmax, &int_mix, w);
        let p_fp = core_power(&cfg, fmax, fmax, &fp_mix, w);
        assert!(p_fp > p_int);
    }

    #[test]
    fn memory_power_rises_with_traffic() {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let idle = MemCounters::default();
        let mut loaded = MemCounters::default();
        loaded.reads = 100_000;
        loaded.page_opens = 100_000;
        loaded.bus_busy = Ps::from_us(500) * 4;
        loaded.rank_active = Ps::from_us(700) * 16;
        loaded.refreshes = 2000;
        let p_idle = memory_power(&cfg, Freq::from_mhz(800), &idle, w);
        let p_load = memory_power(&cfg, Freq::from_mhz(800), &loaded, w);
        assert!(p_load.total() > p_idle.total() * 1.5);
        // MC spans its configured range.
        assert!(p_idle.mc_w >= MC_MIN_W * 0.99);
        assert!(p_load.mc_w > p_idle.mc_w);
        assert!(p_load.mc_w <= MC_MAX_W + 1e-9);
    }

    #[test]
    fn memory_power_falls_with_frequency_when_idle() {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let idle = MemCounters::default();
        let hi = memory_power(&cfg, Freq::from_mhz(800), &idle, w).total();
        let lo = memory_power(&cfg, Freq::from_mhz(200), &idle, w).total();
        assert!(lo < hi * 0.6, "lo {lo}, hi {hi}");
    }

    #[test]
    fn baseline_budget_matches_paper_split() {
        // At max frequencies with a busy 16-core system and a moderately
        // loaded memory subsystem, the split should be near 60/30/10.
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let cores: Vec<(Freq, Freq, CoreCounters)> = (0..16)
            .map(|_| (CORE_FMAX, CORE_FMAX, busy_counters(w, 0.85, 3_000_000)))
            .collect();
        let mut mem = MemCounters::default();
        mem.page_opens = 400_000;
        mem.bus_busy = Ps::from_us(350) * 4;
        mem.rank_active = Ps::from_us(600) * 16;
        mem.refreshes = 2048;
        let sys = system_power(&cfg, &cores, 2_000_000, Freq::from_mhz(800), &mem, w);
        let total = sys.total();
        let cpu_frac = sys.cpu_total() / total;
        let mem_frac = sys.mem.total() / total;
        let rest_frac = sys.rest_w / total;
        assert!((0.50..0.70).contains(&cpu_frac), "cpu {cpu_frac}");
        assert!((0.20..0.40).contains(&mem_frac), "mem {mem_frac}");
        assert!((0.05..0.15).contains(&rest_frac), "rest {rest_frac}");
    }

    #[test]
    fn sleep_residency_cuts_background_power() {
        let cfg = PowerConfig::default();
        let w = Ps::from_ms(1);
        let idle = MemCounters::default();
        let mut sleeping = MemCounters::default();
        // All 16 ranks asleep 90% of the window.
        sleeping.rank_sleep = Ps::from_us(900) * 16;
        let p_idle = memory_power(&cfg, Freq::from_mhz(800), &idle, w);
        let p_sleep = memory_power(&cfg, Freq::from_mhz(800), &sleeping, w);
        assert!(
            p_sleep.dimm_w < p_idle.dimm_w * 0.6,
            "self-refresh should cut background: {} vs {}",
            p_sleep.dimm_w,
            p_idle.dimm_w
        );
    }

    #[test]
    fn dram_freq_factor_bounds() {
        assert!((dram_freq_factor(Freq::from_mhz(800)) - 1.0).abs() < 1e-9);
        let f200 = dram_freq_factor(Freq::from_mhz(200));
        assert!(f200 > 0.35 && f200 < 0.6);
    }

    #[test]
    fn energy_integrates_power() {
        let sys = SystemPower {
            cores_w: vec![10.0; 2],
            l2_w: 2.0,
            mem: MemPower {
                dimm_w: 5.0,
                mc_w: 2.0,
                pllreg_w: 1.0,
            },
            rest_w: 10.0,
        };
        assert!((sys.total() - 40.0).abs() < 1e-12);
        assert!((sys.energy(Ps::from_ms(5)) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_window_degenerates_gracefully() {
        let cfg = PowerConfig::default();
        assert_eq!(
            core_power(
                &cfg,
                CORE_FMAX,
                CORE_FMAX,
                &CoreCounters::default(),
                Ps::ZERO
            ),
            0.0
        );
        let mp = memory_power(&cfg, Freq::from_mhz(800), &MemCounters::default(), Ps::ZERO);
        assert_eq!(mp.total(), 0.0);
    }
}
