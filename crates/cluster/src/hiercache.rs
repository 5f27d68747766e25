//! The split executor: a [`BudgetTree`] compiled into an index-addressed
//! node table and walked afresh at every split.
//!
//! Every budget split in both fleet layers runs here. Hierarchical
//! topologies compile as written; a flat split compiles as the one-group
//! tree [`BudgetTree::flat`], whose root node runs the discipline over the
//! whole fleet. The tree is compiled once into a pre-order array of
//! integer-indexed nodes (leaves carry fleet indices, so barriers never
//! hash a name). A split folds the telemetry bottom-up into per-node
//! aggregates, then walks the array in pre-order: each interior node runs
//! its discipline over its children's aggregates and hands every child its
//! share. Like the paper's controller and FastCap, which recompute their
//! allocation from fresh counters every epoch, the executor carries
//! nothing from one split to the next: the aggregates and budgets are
//! locals of the split, so a split is a pure function of its inputs.
//!
//! Correctness anchors:
//!
//! * **The reference allocator.** The recursive allocator this executor
//!   replaced is kept as the test reference in `tests/oracle/tree.rs`;
//!   the two agree bit for bit on caps, [`GroupShare`] trails and floor
//!   errors.
//! * **Budget bounds by induction.** Every discipline spends at most its
//!   node's budget, so the leaf caps sum to at most the global budget.
//! * **Audit plumbing.** [`HierSplitter::split_with_trace`] emits the
//!   pre-order [`GroupShare`] trail.
//!
//! Membership churn builds a new splitter over the changed tree.

use crate::coordinator::{
    split_caps, split_caps_critical, split_caps_sla, ServerDemand, SlaSignal, SplitError,
};
use crate::tree::{BudgetNode, BudgetTree, GroupShare, TreeSignals};
use crate::CapSplit;
use std::collections::HashMap;

/// One compiled tree node.
#[derive(Clone, Debug)]
struct Node {
    kind: NodeKind,
    /// Fleet indices of the subtree's leaves, in allocation order.
    leaves: Vec<usize>,
}

#[derive(Clone, Debug)]
enum NodeKind {
    Leaf {
        fleet_idx: usize,
    },
    Group {
        label: String,
        split: CapSplit,
        /// Child node ids; pre-order guarantees they exceed the parent's.
        children: Vec<usize>,
    },
}

/// Raw SLA aggregate of a subtree, foldable bottom-up: the running
/// max/OR state of a walk over the subtree's leaves. Max and OR are
/// associative selections, so folding child aggregates reproduces that
/// walk bit-for-bit.
#[derive(Clone, Copy, Debug)]
struct SlaAgg {
    worst: f64,
    unknown: bool,
    any_active: bool,
}

impl SlaAgg {
    const NONE: SlaAgg = SlaAgg {
        worst: f64::NEG_INFINITY,
        unknown: false,
        any_active: false,
    };

    /// Materializes the `SlaSignal` an interior node feeds its SLA-aware
    /// split: the worst `p99/target` ratio over active leaves against a
    /// target of 1.0, or 0 ("unknown": bid full demand) while any active
    /// leaf lacks samples.
    fn signal(self) -> SlaSignal {
        SlaSignal {
            p99_s: if self.unknown || !self.any_active {
                0.0
            } else {
                self.worst
            },
            target_s: 1.0,
        }
    }
}

/// A [`BudgetTree`] compiled for repeated splitting: the one split
/// executor. Build once per (tree, fleet) with [`HierSplitter::new`] and
/// call [`HierSplitter::split_signals`] every barrier; after membership
/// churn, build a new one.
#[derive(Clone, Debug)]
pub struct HierSplitter {
    fleet_names: Vec<String>,
    nodes: Vec<Node>,
    group_splits: u64,
}

/// The per-split inputs every interior node's discipline reads; the
/// aggregates are indexed by node id.
struct GroupCtx<'a> {
    agg_demand: &'a [ServerDemand],
    agg_sla: &'a [SlaAgg],
    agg_crit: &'a [f64],
    sla_present: bool,
    crit_present: bool,
    tier_floor_frac: f64,
    quantum_w: f64,
}

impl HierSplitter {
    /// Compiles `tree` against the fleet order `names`: each leaf binds
    /// the fleet member of its name.
    ///
    /// # Panics
    ///
    /// Panics if two fleet members share a name (both fleet configs
    /// reject that) or a leaf names a server absent from the fleet
    /// (validate the tree first).
    pub fn new(tree: &BudgetTree, names: &[&str]) -> HierSplitter {
        let mut index = HashMap::with_capacity(names.len());
        for (i, &name) in names.iter().enumerate() {
            assert!(
                index.insert(name, i).is_none(),
                "fleet name '{name}' repeats"
            );
        }
        let mut nodes = Vec::new();
        build(tree.root(), &index, &mut nodes);
        HierSplitter {
            fleet_names: names.iter().map(|n| n.to_string()).collect(),
            nodes,
            group_splits: 0,
        }
    }

    /// [`HierSplitter::new`] for the benchmark harness, which still passes
    /// the telemetry dead band the executor no longer has. Kept until the
    /// harness changes.
    ///
    /// # Panics
    ///
    /// Panics if `dead_band_w` is not zero, or as [`HierSplitter::new`]
    /// does.
    pub fn compile(tree: &BudgetTree, names: &[&str], dead_band_w: f64) -> HierSplitter {
        assert!(dead_band_w == 0.0, "the split executor has no dead band");
        HierSplitter::new(tree, names)
    }

    /// Always 0: every split recomputes every group. Kept for the
    /// benchmark harness's hit ratio until the harness changes.
    pub fn node_hits(&self) -> u64 {
        0
    }

    /// Interior-node splits run so far. Kept for the benchmark harness
    /// until the harness changes.
    pub fn node_misses(&self) -> u64 {
        self.group_splits
    }

    /// Splits `global_cap_w` over the compiled fleet with SLA signals
    /// only and no tier floors, so it cannot fail. `demands` (and `sla`,
    /// when present) are indexed like the fleet, as is the returned cap
    /// vector. Without SLA signals, SLA-aware nodes treat every child as
    /// unknown: each bids its full demand and leftover budget stays
    /// unspent (see [`split_caps`]).
    ///
    /// # Panics
    ///
    /// Panics if `demands` (or `sla`) is not indexed like the compiled
    /// fleet.
    pub fn split(
        &mut self,
        global_cap_w: f64,
        demands: &[ServerDemand],
        sla: Option<&[SlaSignal]>,
        quantum_w: f64,
    ) -> Vec<f64> {
        self.split_signals(
            global_cap_w,
            demands,
            &TreeSignals {
                sla,
                ..TreeSignals::default()
            },
            quantum_w,
        )
        .expect("without tier floors a tree split cannot fail")
    }

    /// Like [`HierSplitter::split`], but with the full signal set: SLA
    /// telemetry, per-server critical-path shares, and per-tier floors for
    /// critical-path nodes. Without crit signals, critical-path nodes
    /// degrade to demand-proportional.
    ///
    /// # Errors
    ///
    /// Fails with [`SplitError::InfeasibleFloors`] when a critical-path
    /// node's configured per-tier floors over-commit its budget.
    ///
    /// # Panics
    ///
    /// Panics if the signal slices are not indexed like the compiled
    /// fleet.
    pub fn split_signals(
        &mut self,
        global_cap_w: f64,
        demands: &[ServerDemand],
        signals: &TreeSignals<'_>,
        quantum_w: f64,
    ) -> Result<Vec<f64>, SplitError> {
        let mut caps = vec![0.0; demands.len()];
        self.run(global_cap_w, demands, signals, quantum_w, &mut caps, None)?;
        Ok(caps)
    }

    /// Like [`HierSplitter::split_signals`] but also returns the
    /// pre-order [`GroupShare`] trail.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`HierSplitter::split_signals`] would.
    ///
    /// # Panics
    ///
    /// Panics if the signal slices are not indexed like the compiled
    /// fleet.
    pub fn split_with_trace(
        &mut self,
        global_cap_w: f64,
        demands: &[ServerDemand],
        signals: &TreeSignals<'_>,
        quantum_w: f64,
    ) -> Result<(Vec<f64>, Vec<GroupShare>), SplitError> {
        let mut caps = vec![0.0; demands.len()];
        let mut trace = Vec::new();
        self.run(
            global_cap_w,
            demands,
            signals,
            quantum_w,
            &mut caps,
            Some(&mut trace),
        )?;
        Ok((caps, trace))
    }

    /// Aggregates the telemetry, then walks the nodes in pre-order: a
    /// parent precedes its children, so each group's budget is set before
    /// the group is reached.
    fn run(
        &mut self,
        global_cap_w: f64,
        demands: &[ServerDemand],
        signals: &TreeSignals<'_>,
        quantum_w: f64,
        caps: &mut [f64],
        mut trace: Option<&mut Vec<GroupShare>>,
    ) -> Result<(), SplitError> {
        assert_eq!(
            demands.len(),
            self.fleet_names.len(),
            "one demand per compiled server"
        );
        if let Some(s) = signals.sla {
            assert_eq!(demands.len(), s.len(), "one SLA signal per server");
        }
        if let Some(c) = signals.crit {
            assert_eq!(demands.len(), c.len(), "one crit share per server");
        }
        let (agg_demand, agg_sla, agg_crit) = compute_aggregates(&self.nodes, demands, signals);
        let ctx = GroupCtx {
            agg_demand: &agg_demand,
            agg_sla: &agg_sla,
            agg_crit: &agg_crit,
            sla_present: signals.sla.is_some(),
            crit_present: signals.crit.is_some(),
            tier_floor_frac: signals.tier_floor_frac,
            quantum_w,
        };
        let mut budget = vec![0.0; self.nodes.len()];
        budget[0] = global_cap_w;
        for (id, node) in self.nodes.iter().enumerate() {
            let budget_w = budget[id];
            match &node.kind {
                NodeKind::Leaf { fleet_idx } => {
                    caps[*fleet_idx] = if demands[*fleet_idx].active {
                        budget_w
                    } else {
                        0.0
                    };
                }
                NodeKind::Group {
                    label,
                    split,
                    children,
                } => {
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(GroupShare {
                            label: label.clone(),
                            budget_w,
                            leaves: node
                                .leaves
                                .iter()
                                .map(|&i| self.fleet_names[i].clone())
                                .collect(),
                        });
                    }
                    let shares = group_shares(&ctx, *split, children, budget_w)?;
                    for (&c, share) in children.iter().zip(shares) {
                        budget[c] = share;
                    }
                    self.group_splits += 1;
                }
            }
        }
        Ok(())
    }
}

/// Appends the compiled form of `node` (pre-order), returning its id.
/// `index` maps each fleet name to its position.
fn build(node: &BudgetNode, index: &HashMap<&str, usize>, nodes: &mut Vec<Node>) -> usize {
    let id = nodes.len();
    nodes.push(Node {
        kind: NodeKind::Leaf {
            fleet_idx: usize::MAX,
        },
        leaves: Vec::new(),
    });
    match node {
        BudgetNode::Server { name } => {
            let idx = *index
                .get(name.as_str())
                .unwrap_or_else(|| panic!("budget tree leaf '{name}' not in the fleet"));
            nodes[id] = Node {
                kind: NodeKind::Leaf { fleet_idx: idx },
                leaves: vec![idx],
            };
        }
        BudgetNode::Group {
            label,
            split,
            children,
        } => {
            let child_ids: Vec<usize> = children.iter().map(|c| build(c, index, nodes)).collect();
            let mut leaves = Vec::new();
            for &c in &child_ids {
                leaves.extend_from_slice(&nodes[c].leaves);
            }
            nodes[id] = Node {
                kind: NodeKind::Group {
                    label: label.clone(),
                    split: *split,
                    children: child_ids,
                },
                leaves,
            };
        }
    }
    id
}

/// One bottom-up pass computing every node's aggregates from its
/// children — bit-identical to walking each subtree's leaves, because
/// sums fold children in order and max/OR are associative selections.
/// Returns the demand, SLA and critical-path aggregates by node id; the
/// last two are empty without their signal.
fn compute_aggregates(
    nodes: &[Node],
    demands: &[ServerDemand],
    signals: &TreeSignals<'_>,
) -> (Vec<ServerDemand>, Vec<SlaAgg>, Vec<f64>) {
    let n = nodes.len();
    let mut agg_demand = vec![
        ServerDemand {
            demand_w: 0.0,
            min_w: 0.0,
            active: false,
        };
        n
    ];
    let mut agg_sla = vec![SlaAgg::NONE; if signals.sla.is_some() { n } else { 0 }];
    let mut agg_crit = vec![0.0; if signals.crit.is_some() { n } else { 0 }];
    // Pre-order puts every child after its parent, so a reverse walk sees
    // children before parents.
    for id in (0..n).rev() {
        match &nodes[id].kind {
            NodeKind::Leaf { fleet_idx } => {
                let d = demands[*fleet_idx];
                agg_demand[id] = d;
                if let Some(sla) = signals.sla {
                    let s = sla[*fleet_idx];
                    agg_sla[id] = if !d.active {
                        SlaAgg::NONE
                    } else if s.p99_s <= 0.0 || s.target_s <= 0.0 {
                        SlaAgg {
                            worst: f64::NEG_INFINITY,
                            unknown: true,
                            any_active: true,
                        }
                    } else {
                        SlaAgg {
                            worst: f64::NEG_INFINITY.max(s.p99_s / s.target_s),
                            unknown: false,
                            any_active: true,
                        }
                    };
                }
                if let Some(crit) = signals.crit {
                    agg_crit[id] = if d.active {
                        0.0f64.max(crit[*fleet_idx])
                    } else {
                        0.0
                    };
                }
            }
            NodeKind::Group { children, .. } => {
                let mut agg = ServerDemand {
                    demand_w: 0.0,
                    min_w: 0.0,
                    active: false,
                };
                for &c in children {
                    let d = agg_demand[c];
                    if d.active {
                        agg.demand_w += d.demand_w;
                        agg.min_w += d.min_w;
                        agg.active = true;
                    }
                }
                agg_demand[id] = agg;
                if signals.sla.is_some() {
                    let mut s = SlaAgg::NONE;
                    for &c in children {
                        let cs = agg_sla[c];
                        s.worst = s.worst.max(cs.worst);
                        s.unknown |= cs.unknown;
                        s.any_active |= cs.any_active;
                    }
                    agg_sla[id] = s;
                }
                if signals.crit.is_some() {
                    let mut share = 0.0f64;
                    for &c in children {
                        share = share.max(agg_crit[c]);
                    }
                    agg_crit[id] = share;
                }
            }
        }
    }
    (agg_demand, agg_sla, agg_crit)
}

/// Runs one group's discipline over its children's aggregates and
/// returns each child's share of `budget_w`. This is the one place a tree
/// node picks a split function.
fn group_shares(
    ctx: &GroupCtx<'_>,
    split: CapSplit,
    children: &[usize],
    budget_w: f64,
) -> Result<Vec<f64>, SplitError> {
    let ds: Vec<ServerDemand> = children.iter().map(|&c| ctx.agg_demand[c]).collect();
    Ok(match (split, ctx.sla_present) {
        (CapSplit::SlaAware, true) => {
            let sigs: Vec<SlaSignal> = children.iter().map(|&c| ctx.agg_sla[c].signal()).collect();
            split_caps_sla(budget_w, &ds, &sigs, ctx.quantum_w)
        }
        (CapSplit::CriticalPath, _) => {
            let crit: Option<Vec<f64>> = ctx
                .crit_present
                .then(|| children.iter().map(|&c| ctx.agg_crit[c]).collect());
            // Per-tier floors: an equal fraction of this node's budget for
            // every active child, raised to the child's power floor inside
            // the split. Infeasible floor configs surface as a structured
            // error instead of silently clamping.
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(demand_w: f64, min_w: f64) -> ServerDemand {
        ServerDemand {
            demand_w,
            min_w,
            active: true,
        }
    }

    fn bits(caps: &[f64]) -> Vec<u64> {
        caps.iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn a_reused_splitter_matches_a_fresh_one_bit_for_bit() {
        let t = BudgetTree::parse(
            "dc:demand-proportional[pod0:uniform[r0:fastcap[a,b],r1:sla-aware[c,d]],pod1:fastcap[e,f]]",
        )
        .unwrap();
        let names = ["a", "b", "c", "d", "e", "f"];
        let mut h = HierSplitter::new(&t, &names);
        // A telemetry sequence with repeats, activity flips, and an SLA
        // arm; every step must equal a split by a fresh executor.
        let steps: Vec<(Vec<ServerDemand>, Option<Vec<SlaSignal>>)> = vec![
            (
                vec![
                    d(120.0, 40.0),
                    d(80.0, 35.0),
                    d(200.0, 50.0),
                    d(60.0, 30.0),
                    d(90.0, 25.0),
                    d(150.0, 45.0),
                ],
                None,
            ),
            (
                vec![
                    d(120.0, 40.0),
                    d(80.0, 35.0),
                    d(200.0, 50.0),
                    d(60.0, 30.0),
                    d(90.0, 25.0),
                    d(150.0, 45.0),
                ],
                None,
            ),
            (
                vec![
                    d(121.0, 40.0),
                    d(80.0, 35.0),
                    ServerDemand {
                        demand_w: 200.0,
                        min_w: 50.0,
                        active: false,
                    },
                    d(60.0, 30.0),
                    d(90.0, 25.0),
                    d(150.0, 45.0),
                ],
                Some(vec![
                    SlaSignal {
                        p99_s: 2e-3,
                        target_s: 1e-3,
                    };
                    6
                ]),
            ),
        ];
        for (step, (demands, sla)) in steps.iter().enumerate() {
            for budget in [100.0, 226.0, 400.0] {
                let got = h.split(budget, demands, sla.as_deref(), 1.0);
                let want =
                    HierSplitter::new(&t, &names).split(budget, demands, sla.as_deref(), 1.0);
                assert_eq!(bits(&got), bits(&want), "step {step} budget {budget}");
            }
        }
    }

    #[test]
    fn critical_path_floors_and_errors_match_a_fresh_split() {
        let t = BudgetTree::parse("svc:critical-path[fe:fastcap[f0],st:fastcap[s0]]").unwrap();
        let names = ["f0", "s0"];
        let mut h = HierSplitter::new(&t, &names);
        let demands = [d(100.0, 10.0), d(100.0, 10.0)];
        let crit = [0.0, 1.0];
        let sig = TreeSignals {
            crit: Some(&crit),
            tier_floor_frac: 0.5,
            ..TreeSignals::default()
        };
        let got = h.split_signals(120.0, &demands, &sig, 1.0).unwrap();
        let want = HierSplitter::new(&t, &names)
            .split_signals(120.0, &demands, &sig, 1.0)
            .unwrap();
        assert_eq!(bits(&got), bits(&want));
        let heavy = [d(100.0, 70.0), d(100.0, 70.0)];
        let err = h.split_signals(120.0, &heavy, &sig, 1.0).unwrap_err();
        assert!(
            matches!(err, SplitError::InfeasibleFloors { .. }),
            "{err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "fleet name 'a' repeats")]
    fn a_repeated_fleet_name_is_refused() {
        let names = ["a", "b", "a"];
        HierSplitter::new(&BudgetTree::parse("f:uniform[a,b]").unwrap(), &names);
    }

    #[test]
    fn benchmark_shims_count_every_group_split_and_no_hits() {
        let t = BudgetTree::parse("fleet:uniform[rack0:fastcap[a,b],rack1:fastcap[c,d]]").unwrap();
        let names = ["a", "b", "c", "d"];
        let mut h = HierSplitter::compile(&t, &names, 0.0);
        let demands = [d(100.0, 30.0), d(90.0, 30.0), d(40.0, 10.0), d(40.0, 10.0)];
        let first = h.split(200.0, &demands, None, 1.0);
        let again = h.split(200.0, &demands, None, 1.0);
        assert_eq!(bits(&first), bits(&again));
        assert_eq!((h.node_hits(), h.node_misses()), (0, 6));
    }

    #[test]
    #[should_panic(expected = "no dead band")]
    fn compile_rejects_a_nonzero_band() {
        let names = ["a"];
        HierSplitter::compile(&BudgetTree::flat(CapSplit::FastCap, &names), &names, 5.0);
    }
}
