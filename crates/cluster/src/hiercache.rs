//! The split executor: a [`BudgetTree`] compiled into an index-addressed
//! node table with per-node dead-band replay.
//!
//! Every budget split in both fleet layers runs here. Hierarchical
//! topologies compile as written; a flat split compiles as the one-group
//! tree [`BudgetTree::flat`], whose root node runs the discipline over the
//! whole fleet. The tree is compiled once into a pre-order array of
//! integer-indexed nodes (leaves carry fleet indices, so barriers never
//! hash a name). Each interior node caches the child shares it last
//! computed, keyed on its granted budget and its children's *aggregated*
//! telemetry, and a barrier replays clean subtrees verbatim while
//! re-splitting only the dirty ones. For a flat tree the root's key is
//! the whole fleet's telemetry, server by server.
//!
//! Correctness anchors:
//!
//! * **Bit-identity at a zero dead-band.** A node replays only when its
//!   budget and every child aggregate match the stored reference
//!   bit-for-bit, and the split disciplines are pure functions of those
//!   inputs — so a replayed node returns exactly what a recompute would,
//!   and by induction over the tree the result equals a cold split to the
//!   last bit. The recursive allocator this executor replaced is kept as
//!   the test reference in `tests/oracle/tree.rs`.
//! * **Budget bounds by induction at any dead-band.** A node's budget must
//!   match its stored reference *exactly* (never merely within the band),
//!   so replayed shares are a genuine historical split of the same budget:
//!   they sum to at most the node's grant, and the global bound follows by
//!   the same induction as a fresh allocation.
//! * **Audit plumbing.** [`HierSplitter::split_with_trace`] emits the
//!   pre-order [`GroupShare`] trail, plus a per-group replay flag, so
//!   differential tests can prove that replayed subtrees match a fresh
//!   split of the same telemetry.
//!
//! Membership churn calls [`HierSplitter::rebind`] rather than discarding
//! everything: entries survive for every group whose discipline and child
//! list are structurally unchanged (children matched by leaf name / group
//! label), so churn inside one rack leaves its siblings' cached
//! allocations replayable.

use crate::coordinator::{
    split_caps, split_caps_critical, split_caps_sla, ServerDemand, SlaSignal, SplitError,
};
use crate::tree::{BudgetNode, BudgetTree, GroupShare, TreeSignals};
use crate::CapSplit;
use std::collections::HashMap;

/// Result of [`HierSplitter::split_with_trace`]: per-server caps, the
/// pre-order [`GroupShare`] trail, and a parallel per-group flag that is
/// `true` where the share was replayed from cache rather than recomputed.
pub type TracedSplit = (Vec<f64>, Vec<GroupShare>, Vec<bool>);

/// One compiled tree node.
#[derive(Clone, Debug)]
struct Node {
    kind: NodeKind,
    /// Leaf server name or group label — the identity entries survive by
    /// across a [`HierSplitter::rebind`] (labels are unique per
    /// [`BudgetTree::validate`]).
    ident: String,
    /// Fleet indices of the subtree's leaves, in allocation order.
    leaves: Vec<usize>,
}

#[derive(Clone, Debug)]
enum NodeKind {
    Leaf {
        fleet_idx: usize,
    },
    Group {
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

/// One interior node's cached allocation: the references it was computed
/// from and the child shares it produced.
#[derive(Clone, Debug)]
struct Entry {
    budget_bits: u64,
    quantum_bits: u64,
    tier_floor_bits: u64,
    /// Per-child aggregated demand at store time.
    ref_demands: Vec<ServerDemand>,
    /// Per-child materialized SLA ratio at store time (`Some` iff the
    /// split ran with SLA signals — presence is part of the key).
    ref_sla: Option<Vec<f64>>,
    /// Per-child aggregated critical-path share at store time.
    ref_crit: Option<Vec<f64>>,
    shares: Vec<f64>,
}

/// A [`BudgetTree`] compiled for repeated splitting with per-node
/// dead-band replay: the one split executor. Build once per (tree, fleet)
/// with [`HierSplitter::compile`]; call [`HierSplitter::split_signals`]
/// every barrier; call [`HierSplitter::rebind`] after membership churn.
#[derive(Clone, Debug)]
pub struct HierSplitter {
    dead_band_w: f64,
    fleet_names: Vec<String>,
    nodes: Vec<Node>,
    entries: Vec<Option<Entry>>,
    // Per-barrier aggregate scratch, indexed by node id.
    agg_demand: Vec<ServerDemand>,
    agg_sla: Vec<SlaAgg>,
    agg_crit: Vec<f64>,
    node_hits: u64,
    node_misses: u64,
}

/// Immutable per-split context threaded through the allocation walk.
struct AllocCtx<'a> {
    nodes: &'a [Node],
    fleet_names: &'a [String],
    agg_demand: &'a [ServerDemand],
    agg_sla: &'a [SlaAgg],
    agg_crit: &'a [f64],
    demands: &'a [ServerDemand],
    dead_band_w: f64,
    sla_present: bool,
    crit_present: bool,
    tier_floor_frac: f64,
    quantum_w: f64,
}

/// Trace output of [`HierSplitter::split_with_trace`]: pre-order group
/// shares plus one replay flag per group (same order).
struct TraceBuf {
    shares: Vec<GroupShare>,
    replayed: Vec<bool>,
}

impl HierSplitter {
    /// Compiles `tree` against the fleet order `names`. The k-th leaf
    /// naming a server binds the k-th fleet member of that name, so a flat
    /// tree maps leaf i to server i even when names repeat.
    ///
    /// # Panics
    ///
    /// Panics if a leaf names a server absent from the fleet (validate
    /// the tree first), or if `dead_band_w` is negative or NaN.
    pub fn compile(tree: &BudgetTree, names: &[&str], dead_band_w: f64) -> HierSplitter {
        assert!(
            dead_band_w >= 0.0 && !dead_band_w.is_nan(),
            "dead band must be a non-negative number"
        );
        let mut s = HierSplitter {
            dead_band_w,
            fleet_names: names.iter().map(|n| n.to_string()).collect(),
            nodes: Vec::new(),
            entries: Vec::new(),
            agg_demand: Vec::new(),
            agg_sla: Vec::new(),
            agg_crit: Vec::new(),
            node_hits: 0,
            node_misses: 0,
        };
        build(tree.root(), &mut fleet_index(names), &mut s.nodes);
        s.entries = vec![None; s.nodes.len()];
        s
    }

    /// Recompiles against a changed tree or fleet (membership churn),
    /// carrying over every cached entry whose group is structurally
    /// unchanged: same label, same discipline, same child identities in
    /// the same order. The churned group (and only it) starts cold; its
    /// ancestors keep their entries and fall back to the ordinary
    /// dead-band test against the new aggregates.
    pub fn rebind(&mut self, tree: &BudgetTree, names: &[&str]) {
        let old_nodes = std::mem::take(&mut self.nodes);
        let mut old_entries = std::mem::take(&mut self.entries);
        self.fleet_names = names.iter().map(|n| n.to_string()).collect();
        build(tree.root(), &mut fleet_index(names), &mut self.nodes);
        self.entries = vec![None; self.nodes.len()];
        let old_by_ident: HashMap<&str, usize> = old_nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Group { .. }))
            .map(|(i, n)| (n.ident.as_str(), i))
            .collect();
        for id in 0..self.nodes.len() {
            let NodeKind::Group { split, children } = &self.nodes[id].kind else {
                continue;
            };
            let Some(&oid) = old_by_ident.get(self.nodes[id].ident.as_str()) else {
                continue;
            };
            let NodeKind::Group {
                split: old_split,
                children: old_children,
            } = &old_nodes[oid].kind
            else {
                continue;
            };
            let same = split == old_split
                && children.len() == old_children.len()
                && children
                    .iter()
                    .zip(old_children)
                    .all(|(&a, &b)| self.nodes[a].ident == old_nodes[b].ident);
            if same {
                self.entries[id] = old_entries[oid].take();
            }
        }
    }

    /// Drops every cached node allocation (leadership changes, adopted
    /// state). The compiled structure is kept.
    pub fn invalidate(&mut self) {
        for e in &mut self.entries {
            *e = None;
        }
    }

    /// Interior-node replays served so far.
    pub fn node_hits(&self) -> u64 {
        self.node_hits
    }

    /// Interior-node recomputes so far.
    pub fn node_misses(&self) -> u64 {
        self.node_misses
    }

    /// The configured per-node telemetry dead-band, watts.
    pub fn dead_band_w(&self) -> f64 {
        self.dead_band_w
    }

    /// Splits `global_cap_w` over the compiled fleet with SLA signals
    /// only and no tier floors, so it cannot fail. `demands` (and `sla`,
    /// when present) are indexed like the fleet, as is the returned cap
    /// vector. Without SLA signals, SLA-aware nodes degrade to the
    /// demand-saturating FastCap variant (see [`split_caps`]).
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
    /// degrade to demand-proportional. At a zero dead-band the result is
    /// bit-identical to a cold split of the same inputs.
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
    /// pre-order [`GroupShare`] trail (replayed nodes included) and a
    /// parallel flag vector marking which groups were replayed from cache
    /// (see [`TracedSplit`]).
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
    ) -> Result<TracedSplit, SplitError> {
        let mut caps = vec![0.0; demands.len()];
        let mut trace = TraceBuf {
            shares: Vec::new(),
            replayed: Vec::new(),
        };
        self.run(
            global_cap_w,
            demands,
            signals,
            quantum_w,
            &mut caps,
            Some(&mut trace),
        )?;
        Ok((caps, trace.shares, trace.replayed))
    }

    fn run(
        &mut self,
        global_cap_w: f64,
        demands: &[ServerDemand],
        signals: &TreeSignals<'_>,
        quantum_w: f64,
        caps: &mut [f64],
        trace: Option<&mut TraceBuf>,
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
        compute_aggregates(
            &self.nodes,
            demands,
            signals,
            &mut self.agg_demand,
            &mut self.agg_sla,
            &mut self.agg_crit,
        );
        let ctx = AllocCtx {
            nodes: &self.nodes,
            fleet_names: &self.fleet_names,
            agg_demand: &self.agg_demand,
            agg_sla: &self.agg_sla,
            agg_crit: &self.agg_crit,
            demands,
            dead_band_w: self.dead_band_w,
            sla_present: signals.sla.is_some(),
            crit_present: signals.crit.is_some(),
            tier_floor_frac: signals.tier_floor_frac,
            quantum_w,
        };
        let mut hits = 0u64;
        let mut misses = 0u64;
        let r = alloc(
            &ctx,
            &mut self.entries,
            &mut hits,
            &mut misses,
            0,
            global_cap_w,
            caps,
            trace,
        );
        self.node_hits += hits;
        self.node_misses += misses;
        r
    }
}

/// Fleet positions by name, each list reversed so `pop` hands out the
/// first position not yet bound to a leaf.
fn fleet_index<'a>(names: &[&'a str]) -> HashMap<&'a str, Vec<usize>> {
    let mut index: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, n) in names.iter().enumerate().rev() {
        index.entry(n).or_default().push(i);
    }
    index
}

/// Appends the compiled form of `node` (pre-order), returning its id.
fn build(node: &BudgetNode, index: &mut HashMap<&str, Vec<usize>>, nodes: &mut Vec<Node>) -> usize {
    let id = nodes.len();
    nodes.push(Node {
        kind: NodeKind::Leaf {
            fleet_idx: usize::MAX,
        },
        ident: String::new(),
        leaves: Vec::new(),
    });
    match node {
        BudgetNode::Server { name } => {
            let idx = index
                .get_mut(name.as_str())
                .and_then(Vec::pop)
                .unwrap_or_else(|| panic!("budget tree leaf '{name}' not in the fleet"));
            nodes[id] = Node {
                kind: NodeKind::Leaf { fleet_idx: idx },
                ident: name.clone(),
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
                    split: *split,
                    children: child_ids,
                },
                ident: label.clone(),
                leaves,
            };
        }
    }
    id
}

/// One bottom-up pass computing every node's aggregates from its
/// children — bit-identical to walking each subtree's leaves, because
/// sums fold children in order and max/OR are associative selections.
fn compute_aggregates(
    nodes: &[Node],
    demands: &[ServerDemand],
    signals: &TreeSignals<'_>,
    agg_demand: &mut Vec<ServerDemand>,
    agg_sla: &mut Vec<SlaAgg>,
    agg_crit: &mut Vec<f64>,
) {
    let n = nodes.len();
    agg_demand.clear();
    agg_demand.resize(
        n,
        ServerDemand {
            demand_w: 0.0,
            min_w: 0.0,
            active: false,
        },
    );
    agg_sla.clear();
    agg_crit.clear();
    if signals.sla.is_some() {
        agg_sla.resize(n, SlaAgg::NONE);
    }
    if signals.crit.is_some() {
        agg_crit.resize(n, 0.0);
    }
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
}

/// Whether `entry` can be replayed for this node at the current inputs.
fn entry_matches(entry: &Entry, ctx: &AllocCtx<'_>, children: &[usize], budget_w: f64) -> bool {
    if entry.budget_bits != budget_w.to_bits()
        || entry.quantum_bits != ctx.quantum_w.to_bits()
        || entry.tier_floor_bits != ctx.tier_floor_frac.to_bits()
        || entry.ref_sla.is_some() != ctx.sla_present
        || entry.ref_crit.is_some() != ctx.crit_present
        || entry.ref_demands.len() != children.len()
    {
        return false;
    }
    let clean = |a: f64, b: f64| {
        if ctx.dead_band_w == 0.0 {
            a.to_bits() == b.to_bits()
        } else {
            (a - b).abs() <= ctx.dead_band_w
        }
    };
    for (k, &c) in children.iter().enumerate() {
        let cur = ctx.agg_demand[c];
        let r = entry.ref_demands[k];
        if cur.active != r.active || !clean(cur.demand_w, r.demand_w) || !clean(cur.min_w, r.min_w)
        {
            return false;
        }
        if let Some(ref_sla) = &entry.ref_sla {
            // The materialized ratio is dimensionless; the dead-band still
            // applies to it.
            if !clean(ctx.agg_sla[c].signal().p99_s, ref_sla[k]) {
                return false;
            }
        }
        if let Some(ref_crit) = &entry.ref_crit {
            // Crit shares are dimensionless tier fractions: bit-equality
            // only.
            if ctx.agg_crit[c].to_bits() != ref_crit[k].to_bits() {
                return false;
            }
        }
    }
    true
}

/// Recursive allocation: replay a clean node's cached shares, or dispatch
/// the node's discipline over its children's aggregates and cache the
/// result. This is the one place a tree node picks a split function.
#[allow(clippy::too_many_arguments)]
fn alloc(
    ctx: &AllocCtx<'_>,
    entries: &mut [Option<Entry>],
    hits: &mut u64,
    misses: &mut u64,
    id: usize,
    budget_w: f64,
    caps: &mut [f64],
    mut trace: Option<&mut TraceBuf>,
) -> Result<(), SplitError> {
    let node = &ctx.nodes[id];
    let (split, children) = match &node.kind {
        NodeKind::Leaf { fleet_idx } => {
            caps[*fleet_idx] = if ctx.demands[*fleet_idx].active {
                budget_w
            } else {
                0.0
            };
            return Ok(());
        }
        NodeKind::Group { split, children } => (*split, children),
    };
    if let Some(t) = trace.as_deref_mut() {
        t.shares.push(GroupShare {
            label: node.ident.clone(),
            budget_w,
            leaves: node
                .leaves
                .iter()
                .map(|&i| ctx.fleet_names[i].clone())
                .collect(),
        });
    }
    let replay = entries[id]
        .as_ref()
        .is_some_and(|e| entry_matches(e, ctx, children, budget_w));
    let shares: Vec<f64> = if replay {
        *hits += 1;
        entries[id]
            .as_ref()
            .expect("matched entry present")
            .shares
            .clone()
    } else {
        *misses += 1;
        entries[id] = None;
        let ds: Vec<ServerDemand> = children.iter().map(|&c| ctx.agg_demand[c]).collect();
        let computed = match (split, ctx.sla_present) {
            (CapSplit::SlaAware, true) => {
                let sigs: Vec<SlaSignal> =
                    children.iter().map(|&c| ctx.agg_sla[c].signal()).collect();
                split_caps_sla(budget_w, &ds, &sigs, ctx.quantum_w)
            }
            (CapSplit::CriticalPath, _) => {
                let crit: Option<Vec<f64>> = ctx
                    .crit_present
                    .then(|| children.iter().map(|&c| ctx.agg_crit[c]).collect());
                // Per-tier floors: an equal fraction of this node's budget
                // for every active child, raised to the child's power floor
                // inside the split. Infeasible floor configs surface as a
                // structured error instead of silently clamping.
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
        entries[id] = Some(Entry {
            budget_bits: budget_w.to_bits(),
            quantum_bits: ctx.quantum_w.to_bits(),
            tier_floor_bits: ctx.tier_floor_frac.to_bits(),
            ref_demands: ds,
            ref_sla: ctx.sla_present.then(|| {
                children
                    .iter()
                    .map(|&c| ctx.agg_sla[c].signal().p99_s)
                    .collect()
            }),
            ref_crit: ctx
                .crit_present
                .then(|| children.iter().map(|&c| ctx.agg_crit[c]).collect()),
            shares: computed.clone(),
        });
        computed
    };
    if let Some(t) = trace.as_deref_mut() {
        t.replayed.push(replay);
    }
    for (k, &c) in children.iter().enumerate() {
        alloc(
            ctx,
            entries,
            hits,
            misses,
            c,
            shares[k],
            caps,
            trace.as_deref_mut(),
        )?;
    }
    Ok(())
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

    fn two_racks() -> BudgetTree {
        BudgetTree::parse("fleet:uniform[rack0:fastcap[a,b],rack1:fastcap[c,d]]").unwrap()
    }

    const NAMES: [&str; 4] = ["a", "b", "c", "d"];

    #[test]
    fn zero_dead_band_matches_a_cold_split_bit_for_bit() {
        let t = BudgetTree::parse(
            "dc:demand-proportional[pod0:uniform[r0:fastcap[a,b],r1:sla-aware[c,d]],pod1:fastcap[e,f]]",
        )
        .unwrap();
        let names = ["a", "b", "c", "d", "e", "f"];
        let mut h = HierSplitter::compile(&t, &names, 0.0);
        // A telemetry sequence with repeats, activity flips, and an SLA
        // arm; every step must equal the uncached split exactly.
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
                let want = HierSplitter::compile(&t, &names, 0.0).split(
                    budget,
                    demands,
                    sla.as_deref(),
                    1.0,
                );
                let gb: Vec<u64> = got.iter().map(|c| c.to_bits()).collect();
                let wb: Vec<u64> = want.iter().map(|c| c.to_bits()).collect();
                assert_eq!(gb, wb, "step {step} budget {budget}");
            }
        }
        // Bit-identical inputs replay every node (a budget change between
        // the sweep's calls is itself a dirty key, so only a back-to-back
        // repeat can hit).
        let (demands, sla) = &steps[0];
        let hits = h.node_hits();
        let first = h.split(226.0, demands, sla.as_deref(), 1.0);
        let replay = h.split(226.0, demands, sla.as_deref(), 1.0);
        assert_eq!(
            first.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            replay.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        );
        assert!(h.node_hits() > hits, "identical back-to-back calls replay");
    }

    #[test]
    fn dead_band_replays_within_band_and_recomputes_beyond() {
        let t = two_racks();
        let mut h = HierSplitter::compile(&t, &NAMES, 5.0);
        let base = vec![d(100.0, 30.0), d(90.0, 30.0), d(40.0, 10.0), d(40.0, 10.0)];
        let first = h.split(200.0, &base, None, 1.0);
        let cold = h.node_misses();
        // Nudge every demand by 1 W: all nodes stay inside the band and
        // replay the first allocation verbatim.
        let nudged = vec![d(101.0, 30.0), d(89.0, 30.0), d(41.0, 10.0), d(39.0, 10.0)];
        let replayed = h.split(200.0, &nudged, None, 1.0);
        assert_eq!(
            first.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            replayed.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(h.node_misses(), cold, "no recomputes inside the band");
        assert_eq!(h.node_hits(), 3, "all three groups replayed");
        // Push rack1's aggregate far out of band: rack1 (and the root's
        // dead-band test) recompute, rack0 still replays.
        let shifted = vec![d(100.0, 30.0), d(90.0, 30.0), d(90.0, 10.0), d(40.0, 10.0)];
        let (_, _, flags) = h
            .split_with_trace(200.0, &shifted, &TreeSignals::default(), 1.0)
            .unwrap();
        // Pre-order: fleet, rack0, rack1. The uniform root recomputes (its
        // child aggregates moved) but rack0's budget and telemetry are
        // unchanged, so rack0 replays.
        assert_eq!(flags, vec![false, true, false]);
    }

    #[test]
    fn replayed_group_shares_match_a_fresh_split_of_the_same_telemetry() {
        let t = two_racks();
        let mut h = HierSplitter::compile(&t, &NAMES, 2.0);
        let demands = vec![d(300.0, 40.0), d(300.0, 40.0), d(30.0, 10.0), d(30.0, 10.0)];
        h.split(200.0, &demands, None, 1.0);
        let (caps, trace, flags) = h
            .split_with_trace(200.0, &demands, &TreeSignals::default(), 1.0)
            .unwrap();
        assert!(flags.iter().all(|&f| f), "identical telemetry replays all");
        let (want_caps, want_trace, _) = HierSplitter::compile(&t, &NAMES, 0.0)
            .split_with_trace(200.0, &demands, &TreeSignals::default(), 1.0)
            .unwrap();
        assert_eq!(
            caps.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            want_caps.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(trace.len(), want_trace.len());
        for (got, want) in trace.iter().zip(&want_trace) {
            assert_eq!(got.label, want.label);
            assert_eq!(got.budget_w.to_bits(), want.budget_w.to_bits());
            assert_eq!(got.leaves, want.leaves);
        }
    }

    #[test]
    fn rebind_after_churn_keeps_sibling_subtree_entries() {
        let mut t = two_racks();
        let mut h = HierSplitter::compile(&t, &NAMES, 1.0);
        let demands = vec![d(100.0, 30.0), d(90.0, 30.0), d(40.0, 10.0), d(40.0, 10.0)];
        h.split(200.0, &demands, None, 1.0);
        // Churn inside rack1 only.
        assert!(t.remove_server("d"));
        let new_names = ["a", "b", "c"];
        h.rebind(&t, &new_names);
        let hits_before = h.node_hits();
        // rack0's telemetry is unchanged and the uniform root still hands
        // it the same 100 W, so its entry must survive the rebind and
        // replay; rack1 changed structurally and starts cold.
        let demands2 = vec![d(100.0, 30.0), d(90.0, 30.0), d(40.0, 10.0)];
        let (caps, trace, flags) = h
            .split_with_trace(200.0, &demands2, &TreeSignals::default(), 1.0)
            .unwrap();
        assert_eq!(trace[1].label, "rack0");
        assert!(flags[1], "sibling rack0 replays after churn in rack1");
        assert!(!flags[2], "churned rack1 starts cold");
        assert_eq!(h.node_hits(), hits_before + 1);
        // And the replay is still exactly the fresh split.
        let want = HierSplitter::compile(&t, &new_names, 0.0).split(200.0, &demands2, None, 1.0);
        assert_eq!(
            caps.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn critical_path_floors_and_errors_match_a_cold_split() {
        let t = BudgetTree::parse("svc:critical-path[fe:fastcap[f0],st:fastcap[s0]]").unwrap();
        let names = ["f0", "s0"];
        let mut h = HierSplitter::compile(&t, &names, 0.0);
        let demands = [d(100.0, 10.0), d(100.0, 10.0)];
        let crit = [0.0, 1.0];
        let sig = TreeSignals {
            crit: Some(&crit),
            tier_floor_frac: 0.5,
            ..TreeSignals::default()
        };
        let got = h.split_signals(120.0, &demands, &sig, 1.0).unwrap();
        let want = HierSplitter::compile(&t, &names, 0.0)
            .split_signals(120.0, &demands, &sig, 1.0)
            .unwrap();
        assert_eq!(
            got.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        );
        let heavy = [d(100.0, 70.0), d(100.0, 70.0)];
        let err = h.split_signals(120.0, &heavy, &sig, 1.0).unwrap_err();
        assert!(
            matches!(err, SplitError::InfeasibleFloors { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn flat_root_replays_only_on_clean_telemetry() {
        /// Splits once and reports whether the root replayed.
        fn replays(h: &mut HierSplitter, demands: &[ServerDemand]) -> bool {
            let hits = h.node_hits();
            h.split(150.0, demands, None, 1.0);
            h.node_hits() > hits
        }
        let names = ["a", "b"];
        let t = BudgetTree::flat(CapSplit::FastCap, &names);
        let demands = vec![d(100.0, 30.0), d(80.0, 25.0)];
        let mut h = HierSplitter::compile(&t, &names, 0.0);
        assert!(!replays(&mut h, &demands), "a cold splitter recomputes");
        assert!(replays(&mut h, &demands));

        // Any bit of telemetry movement is a dirty server at dead-band 0.
        let mut moved = demands.clone();
        moved[1].demand_w += 1e-12;
        assert!(!replays(&mut h, &moved));

        // An activity flip is a membership change even at a wide dead-band.
        let mut h = HierSplitter::compile(&t, &names, 5.0);
        h.split(150.0, &demands, None, 1.0);
        let mut jitter = demands.clone();
        jitter[0].demand_w += 3.0;
        assert!(replays(&mut h, &jitter), "within dead-band");
        let mut idled = demands.clone();
        idled[1].active = false;
        assert!(!replays(&mut h, &idled));

        // Explicit invalidation always recomputes.
        h.invalidate();
        assert!(!replays(&mut h, &idled));
    }

    #[test]
    fn repeated_fleet_names_bind_leaves_in_fleet_order() {
        let names = ["a", "a", "b"];
        let t = BudgetTree::flat(CapSplit::DemandProportional, &names);
        let demands = [d(100.0, 10.0), d(50.0, 10.0), d(80.0, 20.0)];
        let got = HierSplitter::compile(&t, &names, 0.0).split(150.0, &demands, None, 1.0);
        let want = split_caps(CapSplit::DemandProportional, 150.0, &demands, 1.0);
        assert_eq!(
            got.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn invalidate_forces_full_recompute() {
        let t = two_racks();
        let mut h = HierSplitter::compile(&t, &NAMES, 5.0);
        let demands = vec![d(100.0, 30.0), d(90.0, 30.0), d(40.0, 10.0), d(40.0, 10.0)];
        h.split(200.0, &demands, None, 1.0);
        h.invalidate();
        let misses = h.node_misses();
        h.split(200.0, &demands, None, 1.0);
        assert_eq!(h.node_misses(), misses + 3, "all groups recompute");
    }
}
