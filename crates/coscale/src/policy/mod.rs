//! The frequency-selection policies compared in the paper (§3.2).
//!
//! All policies consume the same [`Model`](crate::Model) — they differ only
//! in how they search the frequency space and what slack/baseline
//! assumptions they make, so experimental differences isolate exactly the
//! paper's subject: *coordination*.
//!
//! The five comparison policies are built from two searches: a CPU manager
//! that picks per-core frequencies with memory frozen, and a memory manager
//! that walks the bus frequency down with cores frozen. CPUOnly is the CPU
//! manager with memory at maximum, MemScale the memory manager with cores
//! at maximum, and Offline the CPU manager at every memory frequency, all
//! under the true slack-adjusted bound. Uncoordinated and Semi-coordinated
//! run both managers from the current plan: Uncoordinated against bounds
//! that ignore accumulated slack, Semi-coordinated against the shared true
//! bound.

mod coscale;
mod cpuonly;
mod managers;
mod memscale;
mod offline;
mod powercap;
mod semi;
mod uncoordinated;

pub use coscale::CoScalePolicy;
pub use cpuonly::CpuOnlyPolicy;
pub use memscale::MemScalePolicy;
pub use offline::OfflinePolicy;
pub use powercap::PowerCapPolicy;
pub use semi::SemiCoordinatedPolicy;
pub use uncoordinated::UncoordinatedPolicy;

use crate::{Model, Plan, PolicyKind};

/// A frequency-selection policy, invoked once per epoch after profiling.
pub trait Policy: Send {
    /// Which paper policy this implements.
    fn kind(&self) -> PolicyKind;

    /// Whether the engine should supply a perfect full-epoch lookahead
    /// profile instead of the 300 µs profiling window (the Offline oracle).
    fn needs_oracle(&self) -> bool {
        false
    }

    /// Chooses the frequency plan for the remainder of the epoch.
    ///
    /// `model` is bound to the profiling (or oracle) window and the current
    /// slack state; `current` is the plan the system is running now.
    fn decide(&mut self, model: &Model<'_>, current: &Plan) -> Plan;

    /// Moves the full-system power budget, watts, for the next decisions.
    /// Only a capping policy holds one; every other policy ignores it.
    fn set_power_cap(&mut self, _cap_w: f64) {}
}

/// No energy management: always the all-max plan. The paper's baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticMaxPolicy;

impl Policy for StaticMaxPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::StaticMax
    }

    fn decide(&mut self, model: &Model<'_>, _current: &Plan) -> Plan {
        Plan::max(model.n_cores(), model.core_grid_len(), model.mem_grid_len())
    }
}

/// Constructs the policy implementation for `kind`.
pub fn make_policy(kind: PolicyKind) -> Box<dyn Policy> {
    match kind {
        PolicyKind::StaticMax => Box::new(StaticMaxPolicy),
        PolicyKind::CoScale => Box::new(CoScalePolicy::default()),
        PolicyKind::MemScale => Box::new(MemScalePolicy),
        PolicyKind::CpuOnly => Box::new(CpuOnlyPolicy),
        PolicyKind::Uncoordinated => Box::new(UncoordinatedPolicy),
        PolicyKind::SemiCoordinated => Box::new(SemiCoordinatedPolicy::default()),
        PolicyKind::Offline => Box::new(OfflinePolicy),
        // Default budget: ~75% of the ~200 W baseline system power.
        PolicyKind::PowerCap => Box::new(PowerCapPolicy::new(150.0)),
    }
}
