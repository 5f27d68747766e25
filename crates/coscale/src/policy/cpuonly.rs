//! The CPUOnly comparison policy: per-core CPU DVFS only (§3.2).

use crate::policy::managers::cpu_manager_plan;
use crate::{Model, Plan, Policy, PolicyKind};

/// Exhaustive-equivalent per-core CPU DVFS with memory pinned at maximum:
/// the CPU manager's search under the true slack-adjusted bound.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuOnlyPolicy;

impl Policy for CpuOnlyPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::CpuOnly
    }

    fn decide(&mut self, model: &Model<'_>, _current: &Plan) -> Plan {
        cpu_manager_plan(model, model.mem_grid_len() - 1, |i| model.allowed_tpi(i)).0
    }
}
