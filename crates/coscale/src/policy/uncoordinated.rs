//! The Uncoordinated comparison policy (§3.2): completely independent CPU
//! and memory power managers.
//!
//! Each manager believes it alone influences the slack: the CPU manager
//! assumes the memory subsystem stays at last epoch's frequency *and* that
//! no CPI degradation has accumulated; the memory manager assumes the same
//! about the cores. Both then consume the entire γ budget independently,
//! which compounds to roughly `(1+γ)² − 1` slowdown — the bound violation
//! Figure 9 shows.

use crate::policy::managers::{cpu_manager_plan, mem_manager_plan};
use crate::{Model, Plan, Policy, PolicyKind};

/// Fully independent per-component managers.
#[derive(Clone, Copy, Debug, Default)]
pub struct UncoordinatedPolicy;

impl Policy for UncoordinatedPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Uncoordinated
    }

    fn decide(&mut self, model: &Model<'_>, current: &Plan) -> Plan {
        let gamma = model.gamma();
        let cmax = model.core_grid_len() - 1;
        let mmax = model.mem_grid_len() - 1;

        // CPU manager: baseline is "cores at max, memory as it is now";
        // no accumulated slack is consulted (it assumes none exists).
        let cpu_allowed = |i: usize| model.tpi(i, cmax, current.mem) * (1.0 + gamma);
        let cores = cpu_manager_plan(model, current.mem, cpu_allowed).0.cores;

        // Memory manager: baseline is "memory at max, cores as they are
        // now"; also consumes the full budget.
        let mem_allowed = |i: usize| model.tpi(i, current.cores[i], mmax) * (1.0 + gamma);
        let mem = mem_manager_plan(model, &current.cores, mem_allowed);

        Plan { cores, mem }
    }
}
