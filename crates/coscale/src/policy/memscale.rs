//! The MemScale comparison policy: memory-subsystem DVFS only (§3.2).

use crate::policy::managers::mem_manager_plan;
use crate::{Model, Plan, Policy, PolicyKind};

/// Memory-only DVFS. Cores stay pinned at maximum; the memory manager walks
/// the bus frequency down while every application stays within its slack,
/// and the minimum-SER setting visited is chosen.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemScalePolicy;

impl Policy for MemScalePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::MemScale
    }

    fn decide(&mut self, model: &Model<'_>, _current: &Plan) -> Plan {
        let mut plan = Plan::max(model.n_cores(), model.core_grid_len(), model.mem_grid_len());
        plan.mem = mem_manager_plan(model, &plan.cores, |i| model.allowed_tpi(i));
        plan
    }
}
