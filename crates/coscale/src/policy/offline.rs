//! The Offline oracle (§3.2): a perfect per-epoch performance trace plus a
//! search equivalent to enumerating every core/memory frequency combination.
//!
//! The engine supplies a *full-epoch* lookahead profile (by checkpointing
//! the simulation, running the epoch ahead, and rewinding), so the model's
//! inputs are exact rather than extrapolated from a 300 µs window. Given a
//! memory frequency and an epoch-time cap τ, per-core choices decouple
//! under the model (see `managers.rs`), so enumerating (memory frequency ×
//! achievable τ) searches the full `M × Cᴺ` space without approximation.
//! Offline remains greedy epoch-by-epoch, exactly as the paper notes — it
//! is an upper bound for CoScale, not a global optimum.

use crate::policy::managers::cpu_manager_plan;
use crate::{Model, Plan, Policy, PolicyKind};

/// The oracle policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct OfflinePolicy;

impl Policy for OfflinePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Offline
    }

    fn needs_oracle(&self) -> bool {
        true
    }

    fn decide(&mut self, model: &Model<'_>, _current: &Plan) -> Plan {
        let mut best: Option<(Plan, f64)> = None;
        for mem in 0..model.mem_grid_len() {
            let (plan, ser) = cpu_manager_plan(model, mem, |i| model.allowed_tpi(i));
            if !model.plan_ok(&plan) {
                continue;
            }
            if best.as_ref().is_none_or(|(_, s)| ser < *s) {
                best = Some((plan, ser));
            }
        }
        best.map(|(p, _)| p).unwrap_or_else(|| {
            Plan::max(model.n_cores(), model.core_grid_len(), model.mem_grid_len())
        })
    }
}
