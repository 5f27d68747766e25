//! Power capping — the extension the paper sketches in §2.3: "CoScale can
//! be readily extended to cap power with appropriate changes to its
//! decision algorithm and epoch length."
//!
//! Instead of minimizing energy under a performance bound, the capping
//! controller maximizes performance under a full-system power bound: it
//! starts from all-maximum frequencies and, while the model predicts power
//! above the cap, applies the down-step losing the *least* performance per
//! watt shed (the same marginal-utility machinery as CoScale, with the
//! selection criterion inverted). The slack/γ bound is ignored — under a
//! cap, staying below the budget is the hard constraint. A fleet
//! coordinator moves the cap between epochs through
//! [`Policy::set_power_cap`]; a cap at or below zero means no budget was
//! granted and runs the all-minimum plan.

use crate::{Model, Plan, Policy, PolicyKind};

/// Performance-maximizing full-system power capping.
#[derive(Clone, Copy, Debug)]
pub struct PowerCapPolicy {
    /// The full-system power budget, watts.
    pub cap_w: f64,
}

impl PowerCapPolicy {
    /// Creates a capping policy with the given budget.
    ///
    /// # Panics
    ///
    /// Panics if the cap is not positive.
    pub fn new(cap_w: f64) -> Self {
        assert!(cap_w > 0.0, "power cap must be positive");
        PowerCapPolicy { cap_w }
    }
}

impl Policy for PowerCapPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::PowerCap
    }

    fn set_power_cap(&mut self, cap_w: f64) {
        self.cap_w = cap_w;
    }

    fn decide(&mut self, model: &Model<'_>, _current: &Plan) -> Plan {
        let n = model.n_cores();
        if self.cap_w <= 0.0 {
            return Plan {
                cores: vec![0; n],
                mem: 0,
            };
        }
        let mut plan = Plan::max(n, model.core_grid_len(), model.mem_grid_len());
        let mut cur_power = model.power(&plan).total();
        let mut cur_slow = model.worst_slowdown(&plan);

        // Each accepted step lowers exactly one grid index, so the walk
        // takes at most n·(core grid − 1) + (mem grid − 1) iterations.
        while cur_power > self.cap_w {
            // Candidate single steps: each core one step down, or memory one
            // step down. Pick the one shedding the most watts per unit of
            // performance lost. Feasibility here is only grid bounds — the
            // cap overrides the performance slack.
            //
            // (knob, utility, power after, slowdown after); knob None = mem.
            let mut best: Option<(Option<usize>, f64, f64, f64)> = None;

            for i in 0..n {
                if plan.cores[i] == 0 {
                    continue;
                }
                plan.cores[i] -= 1;
                let power = model.power(&plan).total();
                let slow = model.worst_slowdown(&plan);
                plan.cores[i] += 1;
                let d_power = cur_power - power;
                let utility = d_power / (slow - cur_slow).max(1e-12);
                if d_power > 0.0 && best.is_none_or(|(_, u, _, _)| utility > u) {
                    best = Some((Some(i), utility, power, slow));
                }
            }
            if plan.mem > 0 {
                plan.mem -= 1;
                let power = model.power(&plan).total();
                let slow = model.worst_slowdown(&plan);
                plan.mem += 1;
                let d_power = cur_power - power;
                let utility = d_power / (slow - cur_slow).max(1e-12);
                if d_power > 0.0 && best.is_none_or(|(_, u, _, _)| utility > u) {
                    best = Some((None, utility, power, slow));
                }
            }

            match best {
                Some((knob, _, power, slow)) => {
                    match knob {
                        Some(i) => plan.cores[i] -= 1,
                        None => plan.mem -= 1,
                    }
                    cur_power = power;
                    cur_slow = slow;
                }
                // No remaining down-step sheds power: the cap is
                // unreachable. Degrade to the all-minimum plan — the
                // lowest-power configuration under a monotone power model —
                // rather than reporting a higher-frequency plan that is
                // still above budget.
                None => {
                    return Plan {
                        cores: vec![0; n],
                        mem: 0,
                    };
                }
            }
        }
        plan
    }
}
