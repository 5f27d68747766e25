//! Hierarchical power-budget trees: fleet → pod → rack → server.
//!
//! Flat splitting treats every server as a direct child of one coordinator.
//! Real datacenters are trees — a fleet budget divides across pods, a pod's
//! share across its racks, a rack's share across its servers — and capping
//! work at scale (Raghavendra et al.'s "No 'Power' Struggles", FastCap)
//! argues the levels must be coordinated, not independent. A [`BudgetTree`]
//! expresses exactly that: every interior node runs one of the existing
//! split disciplines ([`CapSplit`]) over its *children*, where each child is
//! summarized by its aggregated demand and SLA telemetry, and the chosen
//! child budgets recurse until leaf servers receive concrete caps.
//!
//! Disciplines mix freely per level: a root can split uniformly across pods
//! for organizational isolation while a rack splits SLA-aware so a bursting
//! server inside it can borrow watts from its calm neighbours — without
//! raiding the other pod's share.
//!
//! Aggregation rules (what an interior node "sees" of a subtree):
//!
//! * **Demand / floor** — the sums over the subtree's *active* leaf servers.
//! * **Activity** — a subtree is active while any leaf in it is.
//! * **SLA signal** — the worst violation ratio `p99/target` over the
//!   subtree's active leaves, normalized to a target of 1.0 (so the existing
//!   trim curve applies unchanged). A leaf with no samples yet makes the
//!   whole subtree "unknown", which bids full demand — the conservative
//!   choice while telemetry warms up.
//! * **Critical-path share** — the largest per-server share over the
//!   subtree's active leaves (servers of one tier all carry their tier's
//!   windowed share, so a tier group aggregates to exactly that share).
//!
//! Every discipline spends at most its node budget, so by induction the
//! leaf caps sum to at most the global budget. Splitting is deterministic
//! (ties break toward the first child), so tree-coordinated rounds keep the
//! cluster/service layers' bit-exact thread-count invariance.
//!
//! This module holds the tree itself: parsing, validation, membership
//! churn and rendering. Splitting is the job of the compiled
//! [`HierSplitter`](crate::HierSplitter), which runs every budget split in
//! both fleet layers. A flat split is the one-level case,
//! [`BudgetTree::flat`].

use crate::coordinator::SlaSignal;
use crate::CapSplit;
use std::collections::HashSet;

/// One node of a [`BudgetTree`]: either a leaf server (named, resolved
/// against the fleet at split time) or an interior group with its own split
/// discipline and children.
#[derive(Clone, Debug)]
pub enum BudgetNode {
    /// A leaf: one server, referenced by its fleet name.
    Server {
        /// The server's display name (must match a fleet member).
        name: String,
    },
    /// An interior node: a pod, rack, or any other aggregation level.
    Group {
        /// Display label (used in rendered topologies and error messages).
        label: String,
        /// The discipline this node uses to divide its budget across its
        /// children.
        split: CapSplit,
        /// Child nodes, in allocation order (ties break toward the first).
        children: Vec<BudgetNode>,
    },
}

impl BudgetNode {
    /// A leaf node for the named server.
    pub fn server(name: &str) -> BudgetNode {
        BudgetNode::Server {
            name: name.to_string(),
        }
    }

    /// An interior node splitting its budget across `children` with
    /// `split`.
    pub fn group(label: &str, split: CapSplit, children: Vec<BudgetNode>) -> BudgetNode {
        BudgetNode::Group {
            label: label.to_string(),
            split,
            children,
        }
    }

    fn push_leaves<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            BudgetNode::Server { name } => out.push(name),
            BudgetNode::Group { children, .. } => {
                for c in children {
                    c.push_leaves(out);
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            BudgetNode::Server { .. } => 1,
            BudgetNode::Group { children, .. } => {
                1 + children.iter().map(BudgetNode::depth).max().unwrap_or(0)
            }
        }
    }

    fn render(&self, out: &mut String) {
        match self {
            BudgetNode::Server { name } => out.push_str(name),
            BudgetNode::Group {
                label,
                split,
                children,
            } => {
                out.push_str(label);
                out.push(':');
                out.push_str(&split.to_string());
                out.push('[');
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    c.render(out);
                }
                out.push(']');
            }
        }
    }
}

/// One interior node's granted share during a
/// [`HierSplitter::split_with_trace`](crate::HierSplitter::split_with_trace),
/// in pre-order (a group always precedes its descendants).
#[derive(Clone, Debug)]
pub struct GroupShare {
    /// The group's label.
    pub label: String,
    /// The budget the group was granted, watts.
    pub budget_w: f64,
    /// The subtree's leaf servers, in allocation order.
    pub leaves: Vec<String>,
}

/// Optional per-server signals driving signal-aware tree disciplines; the
/// all-`None` default is the signal-free
/// [`HierSplitter::split`](crate::HierSplitter::split).
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeSignals<'a> {
    /// Tail-latency telemetry, indexed like the fleet (SLA-aware nodes).
    pub sla: Option<&'a [SlaSignal]>,
    /// Windowed critical-path share per server — every member of a tier
    /// carries its tier's share (critical-path nodes).
    pub crit: Option<&'a [f64]>,
    /// Per-tier floor under critical-path nodes: each active child of such
    /// a node is floored at `tier_floor_frac × node budget / active
    /// children`. Zero disables explicit floors (power floors still hold).
    pub tier_floor_frac: f64,
}

/// A hierarchical budget topology over a server fleet.
///
/// # Example
///
/// ```
/// use cluster::{BudgetNode, BudgetTree, CapSplit};
///
/// // Uniform across two racks; SLA-aware inside the hot one.
/// let tree = BudgetTree::new(BudgetNode::group(
///     "fleet",
///     CapSplit::Uniform,
///     vec![
///         BudgetNode::group(
///             "hot-rack",
///             CapSplit::SlaAware,
///             vec![BudgetNode::server("h0"), BudgetNode::server("h1")],
///         ),
///         BudgetNode::group(
///             "calm-rack",
///             CapSplit::FastCap,
///             vec![BudgetNode::server("c0"), BudgetNode::server("c1")],
///         ),
///     ],
/// ));
/// assert_eq!(tree.leaves(), vec!["h0", "h1", "c0", "c1"]);
/// assert_eq!(tree.to_string(), "fleet:uniform[hot-rack:sla-aware[h0,h1],calm-rack:fastcap[c0,c1]]");
/// assert_eq!(BudgetTree::parse(&tree.to_string()).unwrap().to_string(), tree.to_string());
/// ```
#[derive(Clone, Debug)]
pub struct BudgetTree {
    root: BudgetNode,
}

impl BudgetTree {
    /// A tree with the given root node (normally a [`BudgetNode::Group`]).
    pub fn new(root: BudgetNode) -> BudgetTree {
        BudgetTree { root }
    }

    /// The one-group tree a flat split compiles to: a root labelled
    /// `fleet` that runs `split` directly over `names`, in fleet order.
    pub fn flat(split: CapSplit, names: &[&str]) -> BudgetTree {
        let leaves = names.iter().map(|n| BudgetNode::server(n)).collect();
        BudgetTree::new(BudgetNode::group("fleet", split, leaves))
    }

    /// The root node.
    pub fn root(&self) -> &BudgetNode {
        &self.root
    }

    /// Leaf server names in allocation (left-to-right) order.
    pub fn leaves(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.root.push_leaves(&mut out);
        out
    }

    /// Number of levels, counting both leaves and interior nodes (a flat
    /// group over servers has depth 2).
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Checks structural consistency against a fleet: every fleet server
    /// appears as exactly one leaf, no unknown leaves, no empty groups, and
    /// group labels are unique (required for [`BudgetTree::attach_server`]).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency found.
    pub fn validate(&self, fleet: &[&str]) -> Result<(), String> {
        let mut groups = Vec::new();
        collect_group_labels(&self.root, &mut groups);
        let mut labels = HashSet::with_capacity(groups.len());
        if let Some(g) = groups.into_iter().find(|g| !labels.insert(*g)) {
            return Err(format!("budget tree: duplicate group label '{g}'"));
        }
        check_groups_nonempty(&self.root)?;
        let leaves = self.leaves();
        let mut leaf_names = HashSet::with_capacity(leaves.len());
        if let Some(l) = leaves.iter().find(|l| !leaf_names.insert(**l)) {
            return Err(format!("budget tree: server '{l}' appears twice"));
        }
        let fleet_names: HashSet<&str> = fleet.iter().copied().collect();
        if let Some(l) = leaves.iter().find(|l| !fleet_names.contains(*l)) {
            return Err(format!("budget tree: unknown server '{l}'"));
        }
        if let Some(s) = fleet.iter().find(|s| !leaf_names.contains(*s)) {
            return Err(format!(
                "budget tree: fleet server '{s}' missing from the tree"
            ));
        }
        Ok(())
    }

    /// Attaches a new leaf server under the group labelled `group`, or
    /// under the root when `group` is `None`. Used by churn joins.
    ///
    /// # Errors
    ///
    /// Returns an error when the root is a bare leaf or no group carries
    /// the label.
    pub fn attach_server(&mut self, name: &str, group: Option<&str>) -> Result<(), String> {
        fn attach(node: &mut BudgetNode, name: &str, label: &str) -> bool {
            if let BudgetNode::Group {
                label: l, children, ..
            } = node
            {
                if l == label {
                    children.push(BudgetNode::server(name));
                    return true;
                }
                return children.iter_mut().any(|c| attach(c, name, label));
            }
            false
        }
        match (&mut self.root, group) {
            (BudgetNode::Server { .. }, _) => {
                Err("budget tree: cannot attach to a leaf-only tree".into())
            }
            (BudgetNode::Group { children, .. }, None) => {
                children.push(BudgetNode::server(name));
                Ok(())
            }
            (root, Some(label)) => {
                if attach(root, name, label) {
                    Ok(())
                } else {
                    Err(format!("budget tree: no group labelled '{label}'"))
                }
            }
        }
    }

    /// Detaches the leaf for `name`, returning whether it was found. Empty
    /// groups are kept: they simply aggregate to inactive and draw no
    /// budget, and a later join may repopulate them.
    pub fn remove_server(&mut self, name: &str) -> bool {
        fn remove(node: &mut BudgetNode, name: &str) -> bool {
            if let BudgetNode::Group { children, .. } = node {
                if let Some(i) = children
                    .iter()
                    .position(|c| matches!(c, BudgetNode::Server { name: n } if n == name))
                {
                    children.remove(i);
                    return true;
                }
                return children.iter_mut().any(|c| remove(c, name));
            }
            false
        }
        remove(&mut self.root, name)
    }

    /// Parses the CLI topology syntax:
    /// `label:split[child,child,...]` where each child is either a nested
    /// group or a bare server name, and `split` is one of `uniform`,
    /// `demand-proportional` (or `demand`), `fastcap`, `sla-aware` (or
    /// `sla`), `critical-path` (or `crit`). Example:
    /// `fleet:uniform[rack0:sla-aware[h0,h1],pod:fastcap[c0,c1]]`.
    ///
    /// # Errors
    ///
    /// Returns a message pointing at the first syntax error.
    pub fn parse(spec: &str) -> Result<BudgetTree, String> {
        let mut p = Parser { src: spec, pos: 0 };
        let root = p.node()?;
        p.skip_ws();
        if p.pos != p.src.len() {
            return Err(format!(
                "topology: trailing input at byte {}: '{}'",
                p.pos,
                &p.src[p.pos..]
            ));
        }
        Ok(BudgetTree::new(root))
    }
}

impl std::fmt::Display for BudgetTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.root.render(&mut s);
        write!(f, "{s}")
    }
}

fn collect_group_labels<'a>(node: &'a BudgetNode, out: &mut Vec<&'a str>) {
    if let BudgetNode::Group {
        label, children, ..
    } = node
    {
        out.push(label);
        for c in children {
            collect_group_labels(c, out);
        }
    }
}

fn check_groups_nonempty(node: &BudgetNode) -> Result<(), String> {
    if let BudgetNode::Group {
        label, children, ..
    } = node
    {
        if children.is_empty() {
            return Err(format!("budget tree: group '{label}' has no children"));
        }
        for c in children {
            check_groups_nonempty(c)?;
        }
    }
    Ok(())
}

/// Recursive-descent parser over the topology grammar.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.src[self.pos..].starts_with(' ') {
            self.pos += 1;
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        let end = rest
            .find(|c: char| !(c.is_alphanumeric() || "-_.".contains(c)))
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(format!(
                "topology: expected a name at byte {}: '{rest}'",
                self.pos
            ));
        }
        self.pos += end;
        Ok(rest[..end].to_string())
    }

    fn eat(&mut self, c: char) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn node(&mut self) -> Result<BudgetNode, String> {
        let name = self.ident()?;
        if !self.eat(':') {
            return Ok(BudgetNode::server(&name));
        }
        let split: CapSplit = self
            .ident()?
            .parse()
            .map_err(|e| format!("topology: {e} in group '{name}'"))?;
        if !self.eat('[') {
            return Err(format!("topology: group '{name}' needs a [child,...] list"));
        }
        let mut children = Vec::new();
        loop {
            children.push(self.node()?);
            if self.eat(',') {
                continue;
            }
            if self.eat(']') {
                break;
            }
            return Err(format!(
                "topology: expected ',' or ']' at byte {} in group '{name}'",
                self.pos
            ));
        }
        Ok(BudgetNode::group(&name, split, children))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::{ServerDemand, SplitError};
    use crate::HierSplitter;

    /// One split through a compiled splitter.
    fn split(
        t: &BudgetTree,
        budget_w: f64,
        names: &[&str],
        demands: &[ServerDemand],
        sla: Option<&[SlaSignal]>,
        quantum_w: f64,
    ) -> Vec<f64> {
        HierSplitter::new(t, names).split(budget_w, demands, sla, quantum_w)
    }

    /// [`split`] with the full signal set.
    fn split_signals(
        t: &BudgetTree,
        budget_w: f64,
        names: &[&str],
        demands: &[ServerDemand],
        signals: &TreeSignals<'_>,
        quantum_w: f64,
    ) -> Result<Vec<f64>, SplitError> {
        HierSplitter::new(t, names).split_signals(budget_w, demands, signals, quantum_w)
    }

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

    #[test]
    fn parse_and_display_round_trip() {
        let spec = "fleet:uniform[rack0:sla-aware[h0,h1],pod:fastcap[c0,c1]]";
        let t = BudgetTree::parse(spec).unwrap();
        assert_eq!(t.to_string(), spec);
        assert_eq!(t.leaves(), vec!["h0", "h1", "c0", "c1"]);
        assert_eq!(t.depth(), 3);
        // Aliases and whitespace are accepted; display normalizes.
        let t = BudgetTree::parse("f:demand[ x , r:sla[ y ] ]").unwrap();
        assert_eq!(t.to_string(), "f:demand-proportional[x,r:sla-aware[y]]");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "f:uniform",
            "f:uniform[",
            "f:uniform[]",
            "f:uniform[a,b]x",
            "f:nosuch[a]",
            "f:uniform[a;b]",
        ] {
            assert!(BudgetTree::parse(bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn flat_tree_is_one_group_over_the_fleet_in_order() {
        let t = BudgetTree::flat(CapSplit::SlaAware, &["b", "a", "c"]);
        assert_eq!(t.to_string(), "fleet:sla-aware[b,a,c]");
        assert_eq!(t.depth(), 2);
        assert!(t.validate(&["a", "b", "c"]).is_ok());
    }

    #[test]
    fn validate_pins_leaf_fleet_bijection() {
        let t = two_racks();
        assert!(t.validate(&["a", "b", "c", "d"]).is_ok());
        assert!(t.validate(&["a", "b", "c"]).is_err(), "unknown leaf d");
        assert!(t.validate(&["a", "b", "c", "d", "e"]).is_err(), "missing e");
        let dup = BudgetTree::parse("f:uniform[a,a]").unwrap();
        assert!(dup.validate(&["a"]).is_err());
        let dup_label = BudgetTree::parse("f:uniform[g:fastcap[a],g:fastcap[b]]").unwrap();
        assert!(dup_label.validate(&["a", "b"]).is_err());
        // Each message names the first offender in scan order: leaves in
        // tree order, then the fleet in its own order.
        let err = |spec: &str, fleet: &[&str]| {
            BudgetTree::parse(spec)
                .unwrap()
                .validate(fleet)
                .unwrap_err()
        };
        assert_eq!(
            err(
                "f:uniform[g:fastcap[a,b],h:fastcap[c],h:fastcap[d],g:fastcap[e]]",
                &["a"]
            ),
            "budget tree: duplicate group label 'h'"
        );
        let fleet = ["a", "b", "c", "d"];
        assert_eq!(
            err("f:uniform[x,a,b,y,b,a]", &fleet),
            "budget tree: server 'b' appears twice"
        );
        assert_eq!(
            err("f:uniform[a,y,b,x]", &fleet),
            "budget tree: unknown server 'y'"
        );
        assert_eq!(
            err("f:uniform[b,a,c]", &["a", "e", "b", "c", "d"]),
            "budget tree: fleet server 'e' missing from the tree"
        );
    }

    #[test]
    fn uniform_root_isolates_group_budgets() {
        let t = two_racks();
        let names = ["a", "b", "c", "d"];
        // rack0 is enormous, rack1 tiny: a flat split would route nearly
        // everything to rack0, but the uniform root pins each rack to 100 W.
        let demands = [d(300.0, 40.0), d(300.0, 40.0), d(30.0, 10.0), d(30.0, 10.0)];
        let caps = split(&t, 200.0, &names, &demands, None, 1.0);
        let rack0: f64 = caps[0] + caps[1];
        let rack1: f64 = caps[2] + caps[3];
        assert!(rack0 <= 100.0 + 1e-6, "rack0 {rack0}");
        assert!(rack1 <= 100.0 + 1e-6, "rack1 {rack1}");
        assert!(caps.iter().sum::<f64>() <= 200.0 + 1e-6);
        // rack1's servers saturate at their 30 W demands (fastcap parks the
        // leftover inside the rack, never outside it).
        assert!(caps[2] >= 30.0 - 1e-6 && caps[3] >= 30.0 - 1e-6, "{caps:?}");
    }

    #[test]
    fn inactive_subtree_returns_its_share_to_siblings() {
        let t = two_racks();
        let names = ["a", "b", "c", "d"];
        let mut demands = [
            d(100.0, 30.0),
            d(100.0, 30.0),
            d(100.0, 30.0),
            d(100.0, 30.0),
        ];
        demands[0].active = false;
        demands[1].active = false;
        // rack0 entirely done: the uniform root sees one active child and
        // hands rack1 the whole budget.
        let caps = split(&t, 150.0, &names, &demands, None, 1.0);
        assert_eq!(caps[0], 0.0);
        assert_eq!(caps[1], 0.0);
        assert!(caps[2] + caps[3] > 140.0, "{caps:?}");
    }

    #[test]
    fn sla_aware_node_boosts_the_violating_subtree() {
        let t =
            BudgetTree::parse("fleet:sla-aware[rack0:fastcap[a,b],rack1:fastcap[c,d]]").unwrap();
        let names = ["a", "b", "c", "d"];
        let demands = [
            d(100.0, 30.0),
            d(100.0, 30.0),
            d(100.0, 30.0),
            d(100.0, 30.0),
        ];
        let sla = [
            SlaSignal {
                p99_s: 2e-3,
                target_s: 1e-3,
            }, // violating
            SlaSignal {
                p99_s: 0.9e-3,
                target_s: 1e-3,
            },
            SlaSignal {
                p99_s: 0.3e-3,
                target_s: 1e-3,
            }, // comfortable
            SlaSignal {
                p99_s: 0.3e-3,
                target_s: 1e-3,
            },
        ];
        let caps = split(&t, 300.0, &names, &demands, Some(&sla), 1.0);
        let rack0: f64 = caps[0] + caps[1];
        let rack1: f64 = caps[2] + caps[3];
        // rack0 contains a violator: it bids its full 200 W demand. rack1
        // is comfortable (worst ratio 0.3) and is trimmed below demand.
        assert!((rack0 - 200.0).abs() < 1e-6, "{caps:?}");
        assert!(rack1 < 200.0 - 1e-6, "{caps:?}");
        assert!(caps.iter().sum::<f64>() <= 300.0 + 1e-6);
    }

    #[test]
    fn sla_aware_node_without_signals_caps_each_server_at_its_demand() {
        let t = BudgetTree::parse("fleet:sla-aware[a,b]").unwrap();
        let names = ["a", "b"];
        let demands = [d(100.0, 30.0), d(60.0, 20.0)];
        let caps = split(&t, 400.0, &names, &demands, None, 1.0);
        // Saturates at demand, leftover unspent (no parking).
        assert!((caps[0] - 100.0).abs() < 1e-9, "{caps:?}");
        assert!((caps[1] - 60.0).abs() < 1e-9, "{caps:?}");
    }

    #[test]
    fn unknown_latency_in_a_subtree_bids_full_demand() {
        let t = BudgetTree::parse("fleet:sla-aware[rack0:fastcap[a,b],rack1:fastcap[c]]").unwrap();
        let names = ["a", "b", "c"];
        let demands = [d(100.0, 30.0), d(100.0, 30.0), d(100.0, 30.0)];
        let sla = [
            SlaSignal {
                p99_s: 0.2e-3,
                target_s: 1e-3,
            },
            SlaSignal {
                p99_s: 0.0,
                target_s: 1e-3,
            }, // warming up
            SlaSignal {
                p99_s: 0.2e-3,
                target_s: 1e-3,
            },
        ];
        let caps = split(&t, 500.0, &names, &demands, Some(&sla), 1.0);
        // rack0 has an unknown leaf → the whole rack bids full demand.
        assert!((caps[0] + caps[1] - 200.0).abs() < 1e-6, "{caps:?}");
        // rack1 is comfortable → trimmed below its 100 W demand.
        assert!(caps[2] < 100.0 - 1e-6, "{caps:?}");
    }

    #[test]
    fn churn_attach_and_remove_keep_the_tree_consistent() {
        let mut t = two_racks();
        assert!(t.attach_server("e", Some("rack1")).is_ok());
        assert_eq!(t.leaves(), vec!["a", "b", "c", "d", "e"]);
        assert!(t.attach_server("f", None).is_ok());
        assert_eq!(
            t.to_string(),
            "fleet:uniform[rack0:fastcap[a,b],rack1:fastcap[c,d,e],f]"
        );
        assert!(t.attach_server("g", Some("nosuch")).is_err());
        assert!(t.remove_server("c"));
        assert!(!t.remove_server("c"));
        assert_eq!(t.leaves(), vec!["a", "b", "d", "e", "f"]);
        // Draining a rack empty keeps the (inactive) group in place.
        assert!(t.remove_server("a"));
        assert!(t.remove_server("b"));
        assert!(t.to_string().contains("rack0:fastcap[]"));
    }

    #[test]
    fn traced_split_agrees_with_split_and_bounds_every_group() {
        let t = two_racks();
        let names = ["a", "b", "c", "d"];
        let demands = [d(300.0, 40.0), d(300.0, 40.0), d(30.0, 10.0), d(30.0, 10.0)];
        let (caps, trace) = HierSplitter::new(&t, &names)
            .split_with_trace(200.0, &demands, &TreeSignals::default(), 1.0)
            .unwrap();
        assert_eq!(caps, split(&t, 200.0, &names, &demands, None, 1.0));
        // Pre-order: the root first, carrying the whole budget and fleet.
        assert_eq!(trace[0].label, "fleet");
        assert_eq!(trace[0].budget_w, 200.0);
        assert_eq!(trace[0].leaves, vec!["a", "b", "c", "d"]);
        assert_eq!(trace.len(), 3, "one entry per interior node");
        // Every group's leaf caps sum to at most its granted share.
        let idx = |n: &str| names.iter().position(|x| *x == n).unwrap();
        for g in &trace {
            let sum: f64 = g.leaves.iter().map(|l| caps[idx(l)]).sum();
            assert!(
                sum <= g.budget_w + 1e-6,
                "{}: {sum} > {}",
                g.label,
                g.budget_w
            );
        }
    }

    #[test]
    fn critical_path_node_shifts_budget_by_trace_shares() {
        let t =
            BudgetTree::parse("svc:critical-path[fe:fastcap[f0,f1],st:fastcap[s0,s1]]").unwrap();
        let names = ["f0", "f1", "s0", "s1"];
        let demands = [
            d(100.0, 20.0),
            d(100.0, 20.0),
            d(100.0, 20.0),
            d(100.0, 20.0),
        ];
        // Traces: the storage tier dominates the critical path. Every
        // member of a tier carries the tier's share.
        let crit = [0.2, 0.2, 0.8, 0.8];
        let sig = TreeSignals {
            crit: Some(&crit),
            ..TreeSignals::default()
        };
        let caps = split_signals(&t, 240.0, &names, &demands, &sig, 1.0).unwrap();
        let fe: f64 = caps[0] + caps[1];
        let st: f64 = caps[2] + caps[3];
        assert!(st > fe, "{caps:?}");
        // Floors (40 W per tier) first, spare 160 W split 0.2 : 0.8.
        assert!((st - (40.0 + 0.8 * 160.0)).abs() < 1e-6, "{caps:?}");
        assert!(caps.iter().sum::<f64>() <= 240.0 + 1e-6);
    }

    #[test]
    fn critical_path_node_without_traces_is_demand_proportional() {
        let t = BudgetTree::parse("svc:critical-path[fe:fastcap[f0,f1],st:fastcap[s0]]").unwrap();
        let dp =
            BudgetTree::parse("svc:demand-proportional[fe:fastcap[f0,f1],st:fastcap[s0]]").unwrap();
        let names = ["f0", "f1", "s0"];
        let demands = [d(120.0, 30.0), d(80.0, 30.0), d(60.0, 25.0)];
        let caps = split(&t, 200.0, &names, &demands, None, 1.0);
        assert_eq!(caps, split(&dp, 200.0, &names, &demands, None, 1.0));
        // Zero shares degrade the same way.
        let sig = TreeSignals {
            crit: Some(&[0.0, 0.0, 0.0]),
            ..TreeSignals::default()
        };
        assert_eq!(
            split_signals(&t, 200.0, &names, &demands, &sig, 1.0).unwrap(),
            caps
        );
    }

    #[test]
    fn tier_floors_hold_and_infeasible_floors_error() {
        let t = BudgetTree::parse("svc:critical-path[fe:fastcap[f0],st:fastcap[s0]]").unwrap();
        let names = ["f0", "s0"];
        let demands = [d(100.0, 10.0), d(100.0, 10.0)];
        // Storage takes the whole critical path, but each tier keeps a
        // 25% floor of the node budget.
        let sig = TreeSignals {
            crit: Some(&[0.0, 1.0]),
            tier_floor_frac: 0.5,
            ..TreeSignals::default()
        };
        let caps = split_signals(&t, 120.0, &names, &demands, &sig, 1.0).unwrap();
        assert!((caps[0] - 30.0).abs() < 1e-6, "floor unmet: {caps:?}");
        assert!((caps[1] - 90.0).abs() < 1e-6, "{caps:?}");
        // Floors above the child power floors that over-commit the node
        // budget surface the structured error. Power floors of 70 W each
        // cannot fit a 120 W node budget once explicit floors force both
        // tiers to stay powered.
        let heavy = [d(100.0, 70.0), d(100.0, 70.0)];
        let err = split_signals(&t, 120.0, &names, &heavy, &sig, 1.0).unwrap_err();
        assert!(
            matches!(err, SplitError::InfeasibleFloors { required_w, budget_w }
                if required_w > budget_w),
            "{err:?}"
        );
    }

    #[test]
    fn nested_tree_never_exceeds_budget() {
        let t = BudgetTree::parse(
            "dc:demand-proportional[pod0:uniform[r0:fastcap[a,b],r1:sla-aware[c,d]],pod1:fastcap[e,f]]",
        )
        .unwrap();
        let names = ["a", "b", "c", "d", "e", "f"];
        let demands = [
            d(120.0, 40.0),
            d(80.0, 35.0),
            d(200.0, 50.0),
            d(60.0, 30.0),
            d(90.0, 25.0),
            d(150.0, 45.0),
        ];
        for budget in [100.0, 226.0, 400.0, 900.0] {
            let caps = split(&t, budget, &names, &demands, None, 1.0);
            assert!(
                caps.iter().sum::<f64>() <= budget + 1e-6,
                "budget {budget}: {caps:?}"
            );
        }
    }
}
