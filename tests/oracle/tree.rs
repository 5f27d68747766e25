//! The recursive budget-tree allocator, kept as the reference the compiled
//! `HierSplitter` is checked against.
//!
//! It walks the tree top-down with no cache. At every group it
//! re-aggregates each child's subtree from its leaves, looked up by name,
//! and dispatches the group's discipline over those aggregates:
//!
//! * **Demand / floor** — the sums over the subtree's *active* leaves.
//! * **Activity** — a subtree is active while any leaf in it is.
//! * **SLA signal** — the worst `p99/target` ratio over active leaves,
//!   normalized to a target of 1.0; a leaf with no samples makes the whole
//!   subtree "unknown" (ratio 0, which bids full demand).
//! * **Critical-path share** — the largest share over active leaves.

use cluster::{
    split_caps, split_caps_critical, split_caps_sla, BudgetNode, BudgetTree, CapSplit, GroupShare,
    ServerDemand, SlaSignal, SplitError, TreeSignals,
};
use std::collections::HashMap;

/// Splits `global_cap_w` over the fleet through `tree`. `names` gives the
/// fleet order; `demands` and the signal slices are indexed the same way,
/// as is the returned cap vector. Also returns the share every interior
/// node was granted, in pre-order.
///
/// # Errors
///
/// Fails with [`SplitError::InfeasibleFloors`] when a critical-path node's
/// per-tier floors over-commit its budget.
///
/// # Panics
///
/// Panics if a tree leaf names a server absent from `names`.
pub fn split(
    tree: &BudgetTree,
    global_cap_w: f64,
    names: &[&str],
    demands: &[ServerDemand],
    signals: &TreeSignals<'_>,
    quantum_w: f64,
) -> Result<(Vec<f64>, Vec<GroupShare>), SplitError> {
    assert_eq!(names.len(), demands.len(), "one demand per server");
    if let Some(s) = signals.sla {
        assert_eq!(names.len(), s.len(), "one SLA signal per server");
    }
    if let Some(c) = signals.crit {
        assert_eq!(names.len(), c.len(), "one crit share per server");
    }
    let index: HashMap<&str, usize> = names.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let ctx = SplitCtx {
        index: &index,
        demands,
        sla: signals.sla,
        crit: signals.crit,
        tier_floor_frac: signals.tier_floor_frac,
        quantum_w,
    };
    let mut caps = vec![0.0; demands.len()];
    let mut trace = Vec::new();
    allocate(tree.root(), global_cap_w, &ctx, &mut caps, Some(&mut trace))?;
    Ok((caps, trace))
}

/// Per-split context: the fleet's telemetry plus the name → index map.
struct SplitCtx<'a> {
    index: &'a HashMap<&'a str, usize>,
    demands: &'a [ServerDemand],
    sla: Option<&'a [SlaSignal]>,
    crit: Option<&'a [f64]>,
    tier_floor_frac: f64,
    quantum_w: f64,
}

impl SplitCtx<'_> {
    fn index_of(&self, name: &str) -> usize {
        *self
            .index
            .get(name)
            .unwrap_or_else(|| panic!("budget tree leaf '{name}' not in the fleet"))
    }

    fn demand_of(&self, name: &str) -> ServerDemand {
        self.demands[self.index_of(name)]
    }

    fn sla_of(&self, name: &str) -> SlaSignal {
        match self.sla {
            Some(s) => s[self.index_of(name)],
            None => SlaSignal {
                p99_s: 0.0,
                target_s: 1.0,
            },
        }
    }

    fn crit_of(&self, name: &str) -> f64 {
        match self.crit {
            Some(c) => c[self.index_of(name)],
            None => 0.0,
        }
    }
}

fn for_each_leaf<'a>(node: &'a BudgetNode, f: &mut impl FnMut(&'a str)) {
    match node {
        BudgetNode::Server { name } => f(name),
        BudgetNode::Group { children, .. } => {
            for c in children {
                for_each_leaf(c, f);
            }
        }
    }
}

/// Aggregated power telemetry of the subtree: demand and floor summed
/// over active leaves, active while any leaf is.
fn aggregate_demand(node: &BudgetNode, ctx: &SplitCtx<'_>) -> ServerDemand {
    match node {
        BudgetNode::Server { name } => ctx.demand_of(name),
        BudgetNode::Group { children, .. } => {
            let mut agg = ServerDemand {
                demand_w: 0.0,
                min_w: 0.0,
                active: false,
            };
            for d in children.iter().map(|c| aggregate_demand(c, ctx)) {
                if d.active {
                    agg.demand_w += d.demand_w;
                    agg.min_w += d.min_w;
                    agg.active = true;
                }
            }
            agg
        }
    }
}

/// Aggregated SLA telemetry of the subtree, normalized to a target of
/// 1.0: `p99_s` holds the worst `p99/target` ratio over active leaves,
/// or 0 ("unknown": bid full demand) while any active leaf lacks
/// samples.
fn aggregate_sla(node: &BudgetNode, ctx: &SplitCtx<'_>) -> SlaSignal {
    let mut worst_ratio = f64::NEG_INFINITY;
    let mut unknown = false;
    let mut any_active = false;
    for_each_leaf(node, &mut |name| {
        let d = ctx.demand_of(name);
        if !d.active {
            return;
        }
        any_active = true;
        let s = ctx.sla_of(name);
        if s.p99_s <= 0.0 || s.target_s <= 0.0 {
            unknown = true;
        } else {
            worst_ratio = worst_ratio.max(s.p99_s / s.target_s);
        }
    });
    let ratio = if unknown || !any_active {
        0.0
    } else {
        worst_ratio
    };
    SlaSignal {
        p99_s: ratio,
        target_s: 1.0,
    }
}

/// Aggregated critical-path share of the subtree: the largest share over
/// active leaves, 0 without signals.
fn aggregate_crit(node: &BudgetNode, ctx: &SplitCtx<'_>) -> f64 {
    let mut share = 0.0f64;
    for_each_leaf(node, &mut |name| {
        if ctx.demand_of(name).active {
            share = share.max(ctx.crit_of(name));
        }
    });
    share
}

/// Divides `budget_w` over the subtree, writing leaf caps into `caps`
/// (indexed like the fleet). When `trace` is given, every interior node
/// records the share it was granted (pre-order).
fn allocate(
    node: &BudgetNode,
    budget_w: f64,
    ctx: &SplitCtx<'_>,
    caps: &mut [f64],
    mut trace: Option<&mut Vec<GroupShare>>,
) -> Result<(), SplitError> {
    match node {
        BudgetNode::Server { name } => {
            let i = ctx.index_of(name);
            caps[i] = if ctx.demands[i].active { budget_w } else { 0.0 };
        }
        BudgetNode::Group {
            label,
            split,
            children,
        } => {
            if let Some(t) = trace.as_deref_mut() {
                let mut leaves = Vec::new();
                for_each_leaf(node, &mut |name| leaves.push(name.to_string()));
                t.push(GroupShare {
                    label: label.clone(),
                    budget_w,
                    leaves,
                });
            }
            let ds: Vec<ServerDemand> = children.iter().map(|c| aggregate_demand(c, ctx)).collect();
            let shares = match (*split, ctx.sla) {
                (CapSplit::SlaAware, Some(_)) => {
                    let sigs: Vec<SlaSignal> =
                        children.iter().map(|c| aggregate_sla(c, ctx)).collect();
                    split_caps_sla(budget_w, &ds, &sigs, ctx.quantum_w)
                }
                (CapSplit::CriticalPath, _) => {
                    let crit: Option<Vec<f64>> = ctx
                        .crit
                        .map(|_| children.iter().map(|c| aggregate_crit(c, ctx)).collect());
                    // Per-tier floors: an equal fraction of this node's
                    // budget for every active child, raised to the child's
                    // power floor inside the split.
                    let floor_w: Option<Vec<f64>> = if ctx.tier_floor_frac > 0.0 {
                        let n_active = ds.iter().filter(|d| d.active).count().max(1);
                        let per = ctx.tier_floor_frac * budget_w / n_active as f64;
                        Some(
                            ds.iter()
                                .map(|d| if d.active { per } else { 0.0 })
                                .collect(),
                        )
                    } else {
                        None
                    };
                    split_caps_critical(budget_w, &ds, crit.as_deref(), floor_w.as_deref())?
                }
                (s, _) => split_caps(s, budget_w, &ds, ctx.quantum_w),
            };
            for (child, share) in children.iter().zip(shares) {
                allocate(child, share, ctx, caps, trace.as_deref_mut())?;
            }
        }
    }
    Ok(())
}
