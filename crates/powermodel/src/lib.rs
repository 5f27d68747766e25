//! Power models for the CoScale reproduction.
//!
//! The paper computes CPU power with McPAT and memory power with Micron's
//! DDR3 spreadsheet model; neither is available here, so this crate provides
//! analytic equivalents calibrated to the paper's stated budget — at maximum
//! frequency the CPU is ≈60%, the memory subsystem ≈30% and the rest of the
//! system ≈10% of total power, with MC power spanning 4.5–15 W and DIMM
//! PLL/register power 0.1–0.5 W by utilization (§4.1).
//!
//! All models are pure functions of performance-counter windows, so the
//! same code scores measured epochs (energy accounting) and hypothetical
//! frequency choices (the controllers' predictions).
//!
//! # The calibration
//!
//! The calibration is a set of named constants. A [`PowerConfig`] holds
//! only the three values §4.2.4 varies, each through its `with_` method: the
//! rest-of-system share ([`PowerConfig::with_rest_fraction`], fig11), a
//! scale on memory-side power ([`PowerConfig::with_memory_power_scale`],
//! fig12–13) and the lowest core and MC voltage
//! ([`PowerConfig::with_core_vmin`], fig14).
//!
//! | Constants | Value | Source |
//! |---|---|---|
//! | `CORE_FMIN`, [`CORE_FMAX`] | 2.2, 4.0 GHz | Table 2 core DVFS range |
//! | [`CORE_VMIN`], [`CORE_VMAX`] | 0.65, 1.2 V | §4.1, Sandy-Bridge-like |
//! | [`CORE_MAX_POWER_W`] | 7.5 W | 16 cores at 120 W, ≈60% of the baseline total |
//! | [`CORE_LEAK_FRAC`], `CORE_IDLE_ACTIVITY` | 0.30, 0.30 | McPAT-style leakage and stall activity |
//! | [`L2_LEAKAGE_W`], `L2_ACCESS_ENERGY_J` | 2.5 W, 2 nJ | uncore L2 |
//! | `MEM_FMAX` | 800 MHz | Table 2 top bus frequency |
//! | `DRAM_VDD`, `CHIPS_PER_RANK` | 1.5 V, 9 | DDR3, x8 devices with ECC |
//! | `RANK_CURRENT_SCALE` | 1.5 | fits DIMM power to the ≈30% memory share |
//! | `IDD_*_MA`, `IDD_FREQ_FLOOR` | 10–250 mA, 0.35 | Micron DDR3 power calculator currents |
//! | `MC_MIN_W`, `MC_MAX_W`, `MC_VMAX` | 4.5, 15 W, 1.2 V | §4.1: MC power 4.5–15 W |
//! | `PLLREG_MIN_W`, `PLLREG_MAX_W` | 0.1, 0.5 W | §4.1: PLL/register per DIMM |
//!
//! The memory model runs over `memsim`'s Table 2 geometry and timings
//! (16 ranks on 8 DIMMs over 4 channels; tRAS + tRP per activation, tRFC
//! per refresh).
//!
//! # Example
//!
//! ```
//! use powermodel::{core_power, PowerConfig};
//! use cpusim::CoreCounters;
//! use simkernel::{Freq, Ps};
//!
//! let cfg = PowerConfig::default();
//! let window = Ps::from_ms(1);
//! let idle = CoreCounters::default();
//! let f = Freq::from_ghz(2.2);
//! let p = core_power(&cfg, f, f, &idle, window);
//! assert!(p > 0.0 && p < 7.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod models;

pub use config::{
    PowerConfig, CORE_FMAX, CORE_LEAK_FRAC, CORE_MAX_POWER_W, CORE_VMAX, CORE_VMIN, L2_LEAKAGE_W,
};
pub use models::{core_power, l2_power, memory_power, system_power, MemPower, SystemPower};
