//! The Semi-coordinated comparison policy (§3.2): independent CPU and
//! memory managers that *share one slack estimate*.
//!
//! Sharing the slack keeps performance bounded — each manager knows the CPI
//! degradation the other has already caused. But each still tries to
//! consume the entire remaining slack in the same epoch while assuming the
//! other component stays put, so they over-correct in tandem: both scale
//! down together (overshooting the target), then both scale up to repay the
//! debt, oscillating or settling into local minima (Figures 1, 4, 7c).

use crate::policy::managers::{cpu_manager_plan, mem_manager_plan};
use crate::{Model, Plan, Policy, PolicyKind};

/// Independent managers over a shared slack pool.
#[derive(Clone, Copy, Debug, Default)]
pub struct SemiCoordinatedPolicy {
    /// When true the managers act on alternating epochs instead of
    /// simultaneously — the paper's "out of phase" variant, which trades
    /// oscillation for settling in local minima even sooner (§4.2.2).
    pub out_of_phase: bool,
    epoch_parity: bool,
}

impl SemiCoordinatedPolicy {
    /// The out-of-phase ablation variant.
    pub fn out_of_phase() -> Self {
        SemiCoordinatedPolicy {
            out_of_phase: true,
            epoch_parity: false,
        }
    }
}

impl Policy for SemiCoordinatedPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::SemiCoordinated
    }

    fn decide(&mut self, model: &Model<'_>, current: &Plan) -> Plan {
        // Both managers honour the true accumulated slack (the "mild form
        // of coordination"), via the model's slack-adjusted bound.
        let allowed = |i: usize| model.allowed_tpi(i);

        let run_cpu = !self.out_of_phase || !self.epoch_parity;
        let run_mem = !self.out_of_phase || self.epoch_parity;
        self.epoch_parity = !self.epoch_parity;

        let cores = if run_cpu {
            cpu_manager_plan(model, current.mem, allowed).0.cores
        } else {
            current.cores.clone()
        };
        let mem = if run_mem {
            mem_manager_plan(model, &current.cores, allowed)
        } else {
            current.mem
        };
        Plan { cores, mem }
    }
}
