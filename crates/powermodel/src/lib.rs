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

pub use config::PowerConfig;
pub use models::{
    core_power, l2_power, memory_power, system_power, MemGeometry, MemPower, SystemPower,
};
