//! # CoScale: coordinated CPU and memory-system DVFS
//!
//! A full reproduction of *CoScale: Coordinating CPU and Memory System DVFS
//! in Server Systems* (Deng et al., MICRO 2012). CoScale is an epoch-based
//! OS-level controller that jointly selects per-core CPU frequencies and
//! the memory-bus frequency to minimize full-system energy while keeping
//! every application within a user-chosen slowdown bound γ.
//!
//! This crate contains the paper's contribution and its comparison points:
//!
//! * [`Model`] — the online performance model (CPI decomposition over core,
//!   L2 and memory time; the MemScale queueing model for memory latency at
//!   any bus frequency) and the full-system energy model (SER, Eq. 2).
//! * [`CoScalePolicy`] — the greedy gradient-descent search of Figures 2–3,
//!   with core grouping.
//! * [`MemScalePolicy`], [`CpuOnlyPolicy`], [`UncoordinatedPolicy`],
//!   [`SemiCoordinatedPolicy`], [`OfflinePolicy`], [`StaticMaxPolicy`] —
//!   the five alternatives of §3.2 plus the no-management baseline.
//! * [`System`] / [`Runner`] — the event-driven 16-core + DDR3 simulation
//!   engine with profiling windows, DVFS transition penalties, per-epoch
//!   slack accounting, and per-component energy integration.
//!
//! # Quick start
//!
//! ```no_run
//! use coscale::{run_policy, PolicyKind, SimConfig};
//! use workloads::mix;
//!
//! let cfg = SimConfig::small(mix("MIX2").unwrap());
//! let baseline = run_policy(cfg.clone(), PolicyKind::StaticMax);
//! let managed = run_policy(cfg, PolicyKind::CoScale);
//! println!("energy savings: {:.1}%", 100.0 * managed.energy_savings_vs(&baseline));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agenda;
mod config;
mod engine;
mod model;
mod policy;

pub use config::{PolicyKind, SimConfig};
pub use engine::{run_policy, EpochRecord, RunResult, Runner, Snapshot, System};
pub use model::{extract_profile, CoreProfile, EpochProfile, MemProfile, Model, Plan, StepUtility};
pub use policy::{
    make_policy, CoScalePolicy, CpuOnlyPolicy, MemScalePolicy, OfflinePolicy, Policy,
    PowerCapPolicy, SemiCoordinatedPolicy, StaticMaxPolicy, UncoordinatedPolicy,
};
