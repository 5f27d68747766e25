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

/// Lowest core frequency, where the core runs at its minimum voltage.
pub(crate) const CORE_FMIN: Freq = Freq::from_hz(2_200_000_000);
/// Highest core frequency, where the core runs at [`CORE_VMAX`].
pub const CORE_FMAX: Freq = Freq::from_hz(4_000_000_000);
/// Core voltage at the lowest core frequency (2.2 GHz) unless
/// [`PowerConfig::with_core_vmin`] raises it.
pub const CORE_VMIN: f64 = 0.65;
/// Core voltage at [`CORE_FMAX`].
pub const CORE_VMAX: f64 = 1.2;
/// One core's power at [`CORE_FMAX`] and [`CORE_VMAX`] with typical
/// activity.
pub const CORE_MAX_POWER_W: f64 = 7.5;
/// Fraction of [`CORE_MAX_POWER_W`] that is static (leakage) at
/// [`CORE_VMAX`].
pub const CORE_LEAK_FRAC: f64 = 0.30;
/// Activity factor of a stalled but clocked pipeline, relative to the
/// typical active factor of 1.0.
pub(crate) const CORE_IDLE_ACTIVITY: f64 = 0.30;

/// Shared-L2 leakage (uncore domain, never scaled).
pub const L2_LEAKAGE_W: f64 = 2.5;
/// Dynamic energy per L2 access, joules.
pub(crate) const L2_ACCESS_ENERGY_J: f64 = 2.0e-9;

/// Memory bus frequency at the top of the DVFS grid, where the device
/// currents are specified.
pub(crate) const MEM_FMAX: Freq = Freq::from_hz(800_000_000);
/// DRAM supply voltage (fixed; commercial parts lack DIMM DVFS, §3.4).
pub(crate) const DRAM_VDD: f64 = 1.5;
/// DRAM chips per rank (x8 devices with ECC → 9).
pub(crate) const CHIPS_PER_RANK: f64 = 9.0;
/// Global scale on per-chip currents calibrating DIMM power to the paper's
/// CPU:memory budget.
pub(crate) const RANK_CURRENT_SCALE: f64 = 1.5;
/// Per-chip precharge-powerdown current, mA (idle ranks power down).
pub(crate) const IDD_PRE_PDN_MA: f64 = 45.0;
/// Per-chip active-standby current, mA.
pub(crate) const IDD_ACT_STBY_MA: f64 = 67.0;
/// Per-chip activate-precharge current, mA (IDD0-like).
pub(crate) const IDD_ACT_PRE_MA: f64 = 120.0;
/// Per-chip burst read/write current, mA (IDD4-like).
pub(crate) const IDD_BURST_MA: f64 = 250.0;
/// Per-chip refresh current, mA.
pub(crate) const IDD_REFRESH_MA: f64 = 240.0;
/// Per-chip self-refresh current, mA (managed idle sleep; IDD6-class).
pub(crate) const IDD_SLEEP_MA: f64 = 10.0;
/// Fraction of background current that persists at the lowest device
/// frequency (the rest scales linearly with frequency).
pub(crate) const IDD_FREQ_FLOOR: f64 = 0.35;

/// Memory-controller power at zero utilization and full MC frequency.
pub(crate) const MC_MIN_W: f64 = 4.5;
/// Memory-controller power at full utilization and full MC frequency.
pub(crate) const MC_MAX_W: f64 = 15.0;
/// MC voltage at the highest MC frequency. The MC shares the core's
/// voltage technology in a domain of its own (§3), so its lowest voltage
/// is the core's.
pub(crate) const MC_VMAX: f64 = 1.2;

/// Per-DIMM PLL/register power at zero utilization.
pub(crate) const PLLREG_MIN_W: f64 = 0.1;
/// Per-DIMM PLL/register power at full utilization.
pub(crate) const PLLREG_MAX_W: f64 = 0.5;

/// The power models' calibration: the paper's constants above, plus the
/// three axes §4.2.4 varies, each set through its own `with_` method.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerConfig {
    /// Core and MC voltage at the lowest frequency.
    pub(crate) vmin: f64,
    /// Scale on memory-side power: DRAM currents, MC and PLL/register.
    pub(crate) mem_scale: f64,
    /// Fixed rest-of-system power (everything except cores, L2 and the
    /// memory subsystem).
    pub(crate) rest_power_w: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            vmin: CORE_VMIN,
            mem_scale: 1.0,
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
    /// calibration (Figures 12–13 vary the CPU:memory power ratio): the
    /// DRAM currents, the MC range and the PLL/register range.
    pub fn with_memory_power_scale(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0, "memory power scale must be positive");
        self.mem_scale *= ratio;
        self
    }

    /// Narrows the core (and MC) voltage range by raising the minimum
    /// voltage (Figure 14 uses 0.95–1.2 V).
    pub fn with_core_vmin(mut self, vmin: f64) -> Self {
        assert!(vmin > 0.0 && vmin <= CORE_VMAX, "bad vmin {vmin}");
        self.vmin = vmin;
        self
    }

    /// Core voltage at frequency `f`: linear in frequency between the two
    /// endpoints, clamped at the ends (matches the i7 measurement cited in
    /// §4.1).
    pub fn core_voltage(&self, f: Freq) -> f64 {
        linear_v(f, CORE_FMIN, CORE_FMAX, self.vmin, CORE_VMAX)
    }

    /// MC voltage at MC frequency `f_mc` (the MC runs at twice the bus
    /// frequency; its voltage map spans the doubled grid).
    pub fn mc_voltage(&self, f_mc: Freq) -> f64 {
        let lo = Freq::from_hz(2 * 200_000_000);
        let hi = Freq::from_hz(2 * MEM_FMAX.as_hz());
        linear_v(f_mc, lo, hi, self.vmin, MC_VMAX)
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
        assert!((MC_MAX_W * c.mem_scale - 30.0).abs() < 1e-9);
        let c = PowerConfig::default().with_core_vmin(0.95);
        assert!((c.core_voltage(Freq::from_ghz(2.2)) - 0.95).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of (0,1)")]
    fn bad_rest_fraction_panics() {
        let _ = PowerConfig::default().with_rest_fraction(1.0);
    }
}
