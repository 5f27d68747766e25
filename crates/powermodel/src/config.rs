//! Power-model calibration constants and voltage maps.
//!
//! The paper estimates CPU power with McPAT and memory power with Micron's
//! DDR3 power calculator. Neither exists in Rust, so we use analytic models
//! with the paper's own calibration targets (§4.1):
//!
//! * at maximum frequencies the CPU accounts for ≈60%, the memory subsystem
//!   ≈30%, and the rest of the system ≈10% of total power;
//! * MC power ranges 4.5–15 W with utilization; PLL/register power ranges
//!   0.1–0.5 W per DIMM;
//! * core voltage scales linearly with frequency over 0.65–1.2 V
//!   (Sandy-Bridge-like), cores 2.2–4.0 GHz;
//! * DIMM voltage is fixed (only frequency scales), per §3.4.

use simkernel::Freq;

/// All calibration constants for the power models.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerConfig {
    /// Lowest core frequency (V = `core_vmin` here).
    pub core_fmin: Freq,
    /// Highest core frequency (V = `core_vmax` here).
    pub core_fmax: Freq,
    /// Core voltage at `core_fmin`.
    pub core_vmin: f64,
    /// Core voltage at `core_fmax`.
    pub core_vmax: f64,
    /// One core's power at `core_fmax`/`core_vmax` with typical activity.
    pub core_max_power_w: f64,
    /// Fraction of `core_max_power_w` that is static/leakage at `core_vmax`.
    pub core_leak_frac: f64,
    /// Activity factor attributed to a stalled (but clocked) pipeline,
    /// relative to the typical active factor of 1.0.
    pub core_idle_activity: f64,

    /// Shared-L2 leakage (uncore domain, never scaled).
    pub l2_leakage_w: f64,
    /// Dynamic energy per L2 access, joules.
    pub l2_access_energy_j: f64,

    /// Memory bus frequency at the top of the DVFS grid (device currents are
    /// specified at this point).
    pub mem_fmax: Freq,
    /// DRAM supply voltage (fixed; commercial parts lack DIMM DVFS, §3.4).
    pub dram_vdd: f64,
    /// DRAM chips per rank (x8 devices with ECC → 9).
    pub chips_per_rank: f64,
    /// Global scale on per-chip currents calibrating DIMM power to the
    /// paper's CPU:memory budget.
    pub rank_current_scale: f64,
    /// Per-chip precharge-powerdown current, mA (idle ranks powerdown).
    pub idd_pre_pdn_ma: f64,
    /// Per-chip active-standby current, mA.
    pub idd_act_stby_ma: f64,
    /// Per-chip activate-precharge current, mA (IDD0-like).
    pub idd_act_pre_ma: f64,
    /// Per-chip burst read/write current, mA (IDD4-like).
    pub idd_burst_ma: f64,
    /// Per-chip refresh current, mA.
    pub idd_refresh_ma: f64,
    /// Per-chip self-refresh current, mA (managed idle sleep; IDD6-class).
    pub idd_sleep_ma: f64,
    /// Fraction of background current that persists at the lowest device
    /// frequency (the rest scales linearly with frequency).
    pub idd_freq_floor: f64,

    /// Memory-controller power at zero utilization, full MC frequency.
    pub mc_min_w: f64,
    /// Memory-controller power at full utilization, full MC frequency.
    pub mc_max_w: f64,
    /// MC voltage at the lowest MC frequency (MC shares the core voltage
    /// technology but has its own domain, §3).
    pub mc_vmin: f64,
    /// MC voltage at the highest MC frequency.
    pub mc_vmax: f64,

    /// Per-DIMM PLL/register power at zero utilization.
    pub pllreg_min_w: f64,
    /// Per-DIMM PLL/register power at full utilization.
    pub pllreg_max_w: f64,

    /// Fixed rest-of-system power (everything except cores, L2, memory
    /// subsystem). Derived from the baseline fraction via
    /// [`PowerConfig::with_rest_fraction`].
    pub rest_power_w: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            core_fmin: Freq::from_ghz(2.2),
            core_fmax: Freq::from_ghz(4.0),
            core_vmin: 0.65,
            core_vmax: 1.2,
            core_max_power_w: 7.5,
            core_leak_frac: 0.30,
            core_idle_activity: 0.30,

            l2_leakage_w: 2.5,
            l2_access_energy_j: 2.0e-9,

            mem_fmax: Freq::from_mhz(800),
            dram_vdd: 1.5,
            chips_per_rank: 9.0,
            rank_current_scale: 1.5,
            idd_pre_pdn_ma: 45.0,
            idd_act_stby_ma: 67.0,
            idd_act_pre_ma: 120.0,
            idd_burst_ma: 250.0,
            idd_refresh_ma: 240.0,
            idd_sleep_ma: 10.0,
            idd_freq_floor: 0.35,

            mc_min_w: 4.5,
            mc_max_w: 15.0,
            mc_vmin: 0.65,
            mc_vmax: 1.2,

            pllreg_min_w: 0.1,
            pllreg_max_w: 0.5,

            // 10% of baseline total given ~120 W CPU + ~60 W memory:
            // rest = 180 * 0.1/0.9 = 20 W.
            rest_power_w: 20.0,
        }
    }
}

impl PowerConfig {
    /// Reference CPU+memory power used to anchor the rest-of-system share
    /// (16 cores at max plus a loaded memory subsystem).
    pub const REFERENCE_CPU_MEM_W: f64 = 180.0;

    /// Sets the rest-of-system power so that it would account for `frac` of
    /// baseline total system power (Figure 11 varies this 5–20%).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < frac < 1`.
    pub fn with_rest_fraction(mut self, frac: f64) -> Self {
        assert!(
            frac > 0.0 && frac < 1.0,
            "rest fraction {frac} out of (0,1)"
        );
        self.rest_power_w = Self::REFERENCE_CPU_MEM_W * frac / (1.0 - frac);
        self
    }

    /// Scales memory-side power by `ratio` relative to the default
    /// calibration (Figures 12–13 vary the CPU:memory power ratio).
    pub fn with_memory_power_scale(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0, "memory power scale must be positive");
        self.rank_current_scale *= ratio;
        self.mc_min_w *= ratio;
        self.mc_max_w *= ratio;
        self.pllreg_min_w *= ratio;
        self.pllreg_max_w *= ratio;
        self
    }

    /// Narrows the core (and MC) voltage range by raising the minimum
    /// voltage (Figure 14 uses 0.95–1.2 V).
    pub fn with_core_vmin(mut self, vmin: f64) -> Self {
        assert!(vmin > 0.0 && vmin <= self.core_vmax, "bad vmin {vmin}");
        self.core_vmin = vmin;
        self.mc_vmin = vmin;
        self
    }

    /// Core voltage at frequency `f`: linear in frequency between the two
    /// endpoints, clamped at the ends (matches the i7 measurement cited in
    /// §4.1).
    pub fn core_voltage(&self, f: Freq) -> f64 {
        linear_v(
            f,
            self.core_fmin,
            self.core_fmax,
            self.core_vmin,
            self.core_vmax,
        )
    }

    /// MC voltage at MC frequency `f_mc` (the MC runs at twice the bus
    /// frequency; its voltage map spans the doubled grid).
    pub fn mc_voltage(&self, f_mc: Freq) -> f64 {
        let lo = Freq::from_hz(2 * 200_000_000);
        let hi = Freq::from_hz(2 * self.mem_fmax.as_hz());
        linear_v(f_mc, lo, hi, self.mc_vmin, self.mc_vmax)
    }

    /// Frequency-scaling factor for DRAM background currents.
    pub fn dram_freq_factor(&self, bus: Freq) -> f64 {
        let r = bus.as_hz() as f64 / self.mem_fmax.as_hz() as f64;
        self.idd_freq_floor + (1.0 - self.idd_freq_floor) * r.min(1.0)
    }
}

fn linear_v(f: Freq, fmin: Freq, fmax: Freq, vmin: f64, vmax: f64) -> f64 {
    if f <= fmin {
        return vmin;
    }
    if f >= fmax {
        return vmax;
    }
    let span = (fmax.as_hz() - fmin.as_hz()) as f64;
    vmin + (vmax - vmin) * (f.as_hz() - fmin.as_hz()) as f64 / span
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_map_endpoints_and_midpoint() {
        let c = PowerConfig::default();
        assert!((c.core_voltage(Freq::from_ghz(2.2)) - 0.65).abs() < 1e-9);
        assert!((c.core_voltage(Freq::from_ghz(4.0)) - 1.2).abs() < 1e-9);
        let mid = c.core_voltage(Freq::from_ghz(3.1));
        assert!((mid - 0.925).abs() < 1e-9);
        // Clamped outside the range.
        assert!((c.core_voltage(Freq::from_ghz(1.0)) - 0.65).abs() < 1e-9);
        assert!((c.core_voltage(Freq::from_ghz(5.0)) - 1.2).abs() < 1e-9);
    }

    #[test]
    fn mc_voltage_follows_doubled_grid() {
        let c = PowerConfig::default();
        assert!((c.mc_voltage(Freq::from_mhz(400)) - 0.65).abs() < 1e-9);
        assert!((c.mc_voltage(Freq::from_mhz(1600)) - 1.2).abs() < 1e-9);
    }

    #[test]
    fn rest_fraction_math() {
        let c = PowerConfig::default().with_rest_fraction(0.10);
        assert!((c.rest_power_w - 20.0).abs() < 1e-9);
        let c = PowerConfig::default().with_rest_fraction(0.20);
        assert!((c.rest_power_w - 45.0).abs() < 1e-9);
    }

    #[test]
    fn scale_builders() {
        let c = PowerConfig::default().with_memory_power_scale(2.0);
        assert!((c.mc_max_w - 30.0).abs() < 1e-9);
        let c = PowerConfig::default().with_core_vmin(0.95);
        assert!((c.core_voltage(Freq::from_ghz(2.2)) - 0.95).abs() < 1e-9);
    }

    #[test]
    fn dram_freq_factor_bounds() {
        let c = PowerConfig::default();
        assert!((c.dram_freq_factor(Freq::from_mhz(800)) - 1.0).abs() < 1e-9);
        let f200 = c.dram_freq_factor(Freq::from_mhz(200));
        assert!(f200 > 0.35 && f200 < 0.6);
    }

    #[test]
    #[should_panic(expected = "out of (0,1)")]
    fn bad_rest_fraction_panics() {
        let _ = PowerConfig::default().with_rest_fraction(1.0);
    }
}
