//! Cluster-level configuration: the server fleet, the global power budget,
//! and how the coordinator splits it.

use crate::ctrlplane::RpcConfig;
use crate::tree::BudgetTree;
use coscale::SimConfig;
use simkernel::Ps;
use std::collections::HashSet;

/// How the coordinator divides the global budget into per-server caps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CapSplit {
    /// Every active server receives an equal share of the budget,
    /// regardless of what it could use. The naive baseline.
    Uniform,
    /// Shares proportional to each server's observed uncapped power demand
    /// (above its power floor), so heavy servers receive more headroom.
    DemandProportional,
    /// FastCap-style marginal-utility splitting (after Liu et al.): the
    /// budget is granted in small quanta, each to the server whose
    /// predicted performance gain per additional watt is currently
    /// highest, under a concave performance-versus-power curve.
    FastCap,
    /// Latency-target aware splitting: servers violating their p99 SLO bid
    /// for budget first (up to their full demand), servers comfortably
    /// meeting it are trimmed below their demand in proportion to their
    /// latency headroom, and granting within each tier is FastCap-style.
    /// Reacts to per-server [`SlaSignal`](crate::coordinator::SlaSignal)s
    /// (see [`split_caps_sla`](crate::coordinator::split_caps_sla));
    /// without them every server is unknown and bids its full demand, and
    /// leftover budget stays unspent instead of being parked as FastCap
    /// parks it.
    SlaAware,
    /// Critical-path aware splitting for groups of service tiers: budget
    /// shifts toward the child with the largest share of end-to-end
    /// critical-path time (from request traces), honoring per-tier floors.
    /// Without trace signals — sparse traces, batch runs, flat splitting —
    /// it degrades to demand-proportional.
    CriticalPath,
}

impl std::fmt::Display for CapSplit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CapSplit::Uniform => "uniform",
            CapSplit::DemandProportional => "demand-proportional",
            CapSplit::FastCap => "fastcap",
            CapSplit::SlaAware => "sla-aware",
            CapSplit::CriticalPath => "critical-path",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for CapSplit {
    type Err = String;

    fn from_str(s: &str) -> Result<CapSplit, String> {
        match s {
            "uniform" => Ok(CapSplit::Uniform),
            "demand-proportional" | "demand" => Ok(CapSplit::DemandProportional),
            "fastcap" => Ok(CapSplit::FastCap),
            "sla-aware" | "sla" => Ok(CapSplit::SlaAware),
            "critical-path" | "crit" => Ok(CapSplit::CriticalPath),
            other => Err(format!("unknown split '{other}'")),
        }
    }
}

/// What happens to the fleet at one churn point.
#[derive(Clone, Debug)]
pub enum ChurnAction<S> {
    /// A new server (described by `S`, e.g. a spec) joins the fleet.
    Join(S),
    /// The named server leaves the fleet. The serving config's `validate`
    /// refuses a leave that names no server in the fleet at its round, or
    /// that falls at or past the horizon.
    Leave(String),
}

/// One scheduled fleet change, applied at the boundary of `round` (before
/// telemetry is collected and the budget is split for that round).
#[derive(Clone, Debug)]
pub struct ChurnEvent<S> {
    /// The coordination round at whose start the action applies.
    pub round: usize,
    /// The server the action concerns (a joiner's spec name, a leaver's
    /// fleet name). Used to reject ambiguous same-barrier schedules.
    pub name: String,
    /// The action.
    pub action: ChurnAction<S>,
}

/// An ordered list of fleet changes. The coordinator drains the events due
/// at each round boundary; the generic parameter is the server-description
/// type of whichever simulation layer consumes the schedule.
///
/// Ordering is explicit: events sort by round (stably), and events sharing
/// a round apply in **insertion order**. What a schedule refuses to hold is
/// two events for the *same server at the same round* — a join and a leave
/// of one id at one barrier has no defensible meaning (did the server serve
/// that round or not?), and the old behavior of silently keeping both left
/// the answer to insertion-order luck. [`ChurnSchedule::join`] and
/// [`ChurnSchedule::leave`] report the conflict instead.
#[derive(Clone, Debug, Default)]
pub struct ChurnSchedule<S> {
    events: Vec<ChurnEvent<S>>,
}

impl<S> ChurnSchedule<S> {
    /// An empty schedule (no churn).
    pub fn new() -> Self {
        ChurnSchedule { events: Vec::new() }
    }

    /// Adds a join at the given round boundary. `name` is the joining
    /// server's id (the name its spec will carry in the fleet).
    ///
    /// # Errors
    ///
    /// Rejects a second event for the same server at the same round.
    pub fn join(&mut self, round: usize, name: &str, server: S) -> Result<(), String> {
        self.insert(ChurnEvent {
            round,
            name: name.to_string(),
            action: ChurnAction::Join(server),
        })
    }

    /// Adds a departure at the given round boundary.
    ///
    /// # Errors
    ///
    /// Rejects a second event for the same server at the same round.
    pub fn leave(&mut self, round: usize, name: &str) -> Result<(), String> {
        self.insert(ChurnEvent {
            round,
            name: name.to_string(),
            action: ChurnAction::Leave(name.to_string()),
        })
    }

    fn insert(&mut self, event: ChurnEvent<S>) -> Result<(), String> {
        let describe = |a: &ChurnAction<S>| match a {
            ChurnAction::Join(_) => "join",
            ChurnAction::Leave(_) => "leave",
        };
        if let Some(prev) = self
            .events
            .iter()
            .find(|e| e.round == event.round && e.name == event.name)
        {
            return Err(format!(
                "churn: server '{}' already has a {} at round {} — a second {} at the same \
                 barrier is ambiguous; schedule it at a different round",
                event.name,
                describe(&prev.action),
                event.round,
                describe(&event.action),
            ));
        }
        self.events.push(event);
        self.events.sort_by_key(|e| e.round);
        Ok(())
    }

    /// The events not yet drained, in application order.
    pub fn events(&self) -> &[ChurnEvent<S>] {
        &self.events
    }

    /// Removes and returns the actions due at or before `round`, in order.
    pub fn drain_due(&mut self, round: usize) -> Vec<ChurnAction<S>> {
        let n_due = self.events.iter().take_while(|e| e.round <= round).count();
        self.events.drain(..n_due).map(|e| e.action).collect()
    }
}

/// One server in the cluster: a display name plus the full single-server
/// simulation configuration it runs.
#[derive(Clone, Debug)]
pub struct ServerSpec {
    /// Display name (used in tables and result rows).
    pub name: String,
    /// The server's own simulation configuration (mix, cores, grids…).
    pub config: SimConfig,
}

impl ServerSpec {
    /// A small fast-running server for tests and examples: the reduced
    /// [`SimConfig::small`] configuration for `mix_name`, re-seeded per
    /// server so servers are not clones of each other. Epochs are
    /// shortened to 250 µs so even the reduced workloads span enough
    /// epochs for several coordination rounds, and the epoch ceiling is
    /// raised (a capped server legitimately needs more epochs than an
    /// unmanaged one).
    ///
    /// # Panics
    ///
    /// Panics if the mix name is unknown.
    pub fn small(name: &str, mix_name: &str, seed: u64) -> ServerSpec {
        let m = workloads::mix(mix_name).unwrap_or_else(|| panic!("unknown mix {mix_name}"));
        let mut config = SimConfig::small(m);
        config.seed = seed;
        config.epoch = simkernel::Ps::from_us(250);
        config.profile_window = simkernel::Ps::from_us(50);
        config.max_epochs = 4_000;
        ServerSpec {
            name: name.to_string(),
            config,
        }
    }

    /// Same as [`ServerSpec::small`] with a custom core count (1..=16),
    /// the easiest way to build a heterogeneous fleet.
    ///
    /// # Panics
    ///
    /// Panics if the mix name is unknown.
    pub fn small_with_cores(name: &str, mix_name: &str, seed: u64, cores: usize) -> ServerSpec {
        let mut s = Self::small(name, mix_name, seed);
        s.config.cores = cores;
        s
    }
}

/// Builds a large fleet for scale experiments: `n` servers, of which the
/// first `ceil(n * idle_fraction)` are near-idle (tiny CPU-bound workloads
/// that finish after a handful of rounds and then sit quiesced) and the rest
/// run a long-lived workload, so the fleet spends most of its coordination
/// rounds with only the `1 − idle_fraction` tail awake. Seeds derive from
/// the index so no two servers are clones.
///
/// # Panics
///
/// Panics if `idle_fraction` is not in `[0, 1]`.
pub fn synthetic_fleet(n: usize, idle_fraction: f64) -> Vec<ServerSpec> {
    assert!(
        (0.0..=1.0).contains(&idle_fraction),
        "idle_fraction {idle_fraction} must be in [0, 1]"
    );
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    let n_idle = ((n as f64) * idle_fraction).ceil() as usize;
    (0..n)
        .map(|i| {
            let mut spec = ServerSpec::small(&format!("s{i:04}"), "MID1", 1 + i as u64);
            // The test default keeps Table 2's 16 MiB L2, whose ways take
            // 1.25 MiB (a 4-byte tag and a 1-byte rank each); at a
            // thousand servers that is gigabytes and construction drowns
            // in page faults. Scale-fleet servers model a 1 MiB L2: 80 KiB
            // of ways and 4 KiB of per-set fill counts.
            spec.config.cache.size_bytes = 1024 * 1024;
            // Coordination-scale regime: small nodes (2 cores, a coarse
            // 4-step DVFS grid) on epochs an order of magnitude shorter
            // than the test default, so each server does little work
            // between barriers. Even so, cycle simulation is most of a
            // round unless the cap split is costly: the benchmark's
            // traced runs on these fleets (2-vCPU guest) spend 0.80-0.96
            // of their time in it, and about 0.6 under a flat FastCap
            // split at 20 mW quanta.
            spec.config.cores = 2;
            spec.config.core_freqs = SimConfig::core_grid_with_steps(4);
            spec.config.epoch = Ps::from_us(10);
            spec.config.profile_window = Ps::from_us(1);
            spec.config.core_transition = Ps::from_us(1);
            spec.config.max_epochs = 2000;
            spec.config.target_instrs = 1_000_000;
            if i < n_idle {
                // An idle server: a workload so small it completes within
                // the first coordination rounds, after which the server is
                // quiesced and should cost the coordinator nothing.
                spec.config.target_instrs /= 200;
            }
            spec
        })
        .collect()
}

/// Configuration of one cluster simulation.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// The server fleet.
    pub servers: Vec<ServerSpec>,
    /// Global power budget across all servers, watts.
    pub global_cap_w: f64,
    /// The budget-splitting discipline (the root discipline when a
    /// `topology` tree is also set — flat splitting ignores the tree).
    pub split: CapSplit,
    /// Optional hierarchical budget topology. When set, each coordination
    /// round splits the budget down the tree (every interior node applies
    /// its own discipline over its children's aggregated telemetry)
    /// instead of flat across the fleet, and `split` is ignored. The
    /// tree's leaves must match the fleet's server names exactly.
    pub topology: Option<BudgetTree>,
    /// Coordination period: how many epochs each server runs between
    /// redistributions of the budget.
    pub epochs_per_round: usize,
    /// Worker threads driving servers within a round. Results are
    /// identical for any thread count — servers only exchange state with
    /// the coordinator at round barriers.
    pub threads: usize,
    /// FastCap grant granularity, watts per quantum.
    pub quantum_w: f64,
    /// Control-plane (coordinator ↔ server RPC) configuration. The default
    /// is the loopback plane — zero latency, no loss, no failover — which
    /// delivers every message within its barrier. See
    /// [`RpcConfig`](crate::ctrlplane::RpcConfig).
    pub rpc: RpcConfig,
    /// Whether to record the full per-round cap timeline in the result.
    /// The timeline is what the digests and differential tests compare,
    /// so it defaults to `true`; scale benches over tens of thousands of
    /// servers turn it off to keep the result from dwarfing the
    /// simulation (`rounds × fleet` f64s).
    pub record_timeline: bool,
}

impl ClusterConfig {
    /// A cluster of `servers` under `global_cap_w` using `split`, with the
    /// default coordination period (5 epochs), one worker thread and 1 W
    /// grant quanta.
    pub fn new(servers: Vec<ServerSpec>, global_cap_w: f64, split: CapSplit) -> ClusterConfig {
        ClusterConfig {
            servers,
            global_cap_w,
            split,
            topology: None,
            epochs_per_round: 5,
            threads: 1,
            quantum_w: 1.0,
            rpc: RpcConfig::default(),
            record_timeline: true,
        }
    }

    /// Enables or disables per-round cap-timeline recording (see the
    /// `record_timeline` field).
    #[must_use]
    pub fn with_record_timeline(mut self, record: bool) -> ClusterConfig {
        self.record_timeline = record;
        self
    }

    /// Sets the control-plane configuration (see
    /// [`RpcConfig`](crate::ctrlplane::RpcConfig)).
    #[must_use]
    pub fn with_rpc(mut self, rpc: RpcConfig) -> ClusterConfig {
        self.rpc = rpc;
        self
    }

    /// The wall-clock length of one coordination round in seconds:
    /// `epochs_per_round` × the first server's epoch. (The plane's clock
    /// ticks once per round barrier, so RPC latencies quantize against
    /// this; in a heterogeneous fleet the first server's epoch is the
    /// reference.)
    pub fn round_s(&self) -> f64 {
        let epoch_s = self
            .servers
            .first()
            .map_or(250e-6, |s| s.config.epoch.as_secs_f64());
        epoch_s * self.epochs_per_round as f64
    }

    /// Sets the worker thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> ClusterConfig {
        self.threads = threads;
        self
    }

    /// Sets a hierarchical budget topology (see [`BudgetTree`]).
    #[must_use]
    pub fn with_topology(mut self, topology: BudgetTree) -> ClusterConfig {
        self.topology = Some(topology);
        self
    }

    /// Sets the coordination period in epochs.
    #[must_use]
    pub fn with_epochs_per_round(mut self, epochs: usize) -> ClusterConfig {
        self.epochs_per_round = epochs;
        self
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.servers.is_empty() {
            return Err("cluster needs at least one server".into());
        }
        if !self.global_cap_w.is_finite() || self.global_cap_w <= 0.0 {
            return Err(format!(
                "global cap {} must be finite and positive",
                self.global_cap_w
            ));
        }
        if self.epochs_per_round == 0 {
            return Err("epochs_per_round must be positive".into());
        }
        if self.threads == 0 {
            return Err("threads must be positive".into());
        }
        if !self.quantum_w.is_finite() || self.quantum_w <= 0.0 {
            return Err(format!(
                "quantum {} must be finite and positive",
                self.quantum_w
            ));
        }
        for s in &self.servers {
            s.config
                .validate()
                .map_err(|e| format!("server {}: {e}", s.name))?;
        }
        // The budget tree binds one leaf per name.
        let names: Vec<&str> = self.servers.iter().map(|s| s.name.as_str()).collect();
        let mut seen = HashSet::with_capacity(names.len());
        if let Some(n) = names.iter().find(|n| !seen.insert(**n)) {
            return Err(format!("server name '{n}' appears twice in the fleet"));
        }
        if let Some(tree) = &self.topology {
            tree.validate(&names)?;
        }
        self.rpc.validate(&names).map_err(|e| format!("rpc: {e}"))?;
        self.rpc
            .resolve(self.round_s())
            .map_err(|e| format!("rpc: {e}"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_split_parse_display_round_trip() {
        for split in [
            CapSplit::Uniform,
            CapSplit::DemandProportional,
            CapSplit::FastCap,
            CapSplit::SlaAware,
            CapSplit::CriticalPath,
        ] {
            assert_eq!(split.to_string().parse::<CapSplit>(), Ok(split));
        }
        for (alias, split) in [
            ("demand", CapSplit::DemandProportional),
            ("sla", CapSplit::SlaAware),
            ("crit", CapSplit::CriticalPath),
        ] {
            assert_eq!(alias.parse::<CapSplit>(), Ok(split), "{alias}");
        }
        for bad in ["", "nosuch", "FastCap", "fastcap "] {
            let err = bad.parse::<CapSplit>().unwrap_err();
            assert_eq!(err, format!("unknown split '{bad}'"));
        }
    }

    #[test]
    fn validation_rejects_bad_clusters() {
        let ok = ClusterConfig::new(
            vec![ServerSpec::small("s0", "MID1", 1)],
            100.0,
            CapSplit::Uniform,
        );
        assert!(ok.validate().is_ok());

        let mut c = ok.clone();
        c.servers.clear();
        assert!(c.validate().is_err());

        let mut c = ok.clone();
        c.global_cap_w = 0.0;
        assert!(c.validate().is_err());

        let mut c = ok.clone();
        c.epochs_per_round = 0;
        assert!(c.validate().is_err());

        let mut c = ok.clone();
        c.threads = 0;
        assert!(c.validate().is_err());

        let mut c = ok.clone();
        c.servers[0].config.gamma = 2.0;
        assert!(c.validate().is_err());

        // A bad L2 geometry is an error here, not a panic on a
        // construction thread.
        for (ways, line_bytes, size_bytes) in
            [(0, 64, 1 << 20), (16, 0, 1 << 20), (16, 64, 3 << 20)]
        {
            let mut c = ok.clone();
            c.servers[0].config.cache.ways = ways;
            c.servers[0].config.cache.line_bytes = line_bytes;
            c.servers[0].config.cache.size_bytes = size_bytes;
            let err = c.validate().expect_err("bad L2 geometry");
            assert!(err.starts_with("server s0: L2"), "{err}");
        }
    }

    #[test]
    fn validation_rejects_non_finite_watts() {
        let ok = ClusterConfig::new(
            vec![ServerSpec::small("s0", "MID1", 1)],
            100.0,
            CapSplit::FastCap,
        );
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut c = ok.clone();
            c.global_cap_w = bad;
            let err = c.validate().expect_err("non-finite cap");
            assert!(err.starts_with(&format!("global cap {bad} ")), "{err}");

            let mut c = ok.clone();
            c.quantum_w = bad;
            let err = c.validate().expect_err("non-finite quantum");
            assert!(err.starts_with(&format!("quantum {bad} ")), "{err}");
        }
    }

    #[test]
    fn validation_rejects_a_repeated_server_name() {
        let fleet = vec![
            ServerSpec::small("a", "MID1", 1),
            ServerSpec::small("b", "MID1", 2),
            ServerSpec::small("a", "ILP1", 3),
        ];
        let c = ClusterConfig::new(fleet, 100.0, CapSplit::Uniform);
        let err = c.validate().unwrap_err();
        assert_eq!(err, "server name 'a' appears twice in the fleet");
    }

    #[test]
    fn validation_checks_topology_leaves() {
        let fleet = vec![
            ServerSpec::small("s0", "MID1", 1),
            ServerSpec::small("s1", "MID1", 2),
        ];
        let mut c = ClusterConfig::new(fleet, 100.0, CapSplit::Uniform);
        c.topology = Some(BudgetTree::parse("f:uniform[s0,s1]").unwrap());
        assert!(c.validate().is_ok());
        c.topology = Some(BudgetTree::parse("f:uniform[s0]").unwrap());
        assert!(c.validate().is_err(), "s1 missing from the tree");
        c.topology = Some(BudgetTree::parse("f:uniform[s0,s1,ghost]").unwrap());
        assert!(c.validate().is_err(), "ghost is not in the fleet");
    }

    #[test]
    fn split_display_names() {
        assert_eq!(CapSplit::Uniform.to_string(), "uniform");
        assert_eq!(
            CapSplit::DemandProportional.to_string(),
            "demand-proportional"
        );
        assert_eq!(CapSplit::FastCap.to_string(), "fastcap");
        assert_eq!(CapSplit::SlaAware.to_string(), "sla-aware");
        assert_eq!(CapSplit::CriticalPath.to_string(), "critical-path");
    }

    #[test]
    fn churn_schedule_drains_in_round_order() {
        let mut sched: ChurnSchedule<&str> = ChurnSchedule::new();
        sched.leave(5, "a").unwrap();
        sched.join(2, "b", "b").unwrap();
        sched.join(5, "c", "c").unwrap();
        assert_eq!(sched.events().len(), 3);

        assert!(sched.drain_due(1).is_empty());
        let due = sched.drain_due(2);
        assert_eq!(due.len(), 1);
        assert!(matches!(due[0], ChurnAction::Join("b")));

        // Round 5's events come out in insertion order (stable sort).
        let due = sched.drain_due(10);
        assert_eq!(due.len(), 2);
        assert!(matches!(due[0], ChurnAction::Leave(ref n) if n == "a"));
        assert!(matches!(due[1], ChurnAction::Join("c")));
        assert!(sched.events().is_empty());
    }

    #[test]
    fn churn_schedule_rejects_same_round_duplicates() {
        // Regression: a join and a leave of the same server id at the same
        // round barrier used to be silently accepted, leaving whether the
        // server served that round to insertion-order luck.
        let mut sched: ChurnSchedule<&str> = ChurnSchedule::new();
        sched.join(3, "s0", "s0").unwrap();
        let err = sched.leave(3, "s0").unwrap_err();
        assert!(err.contains("s0") && err.contains("round 3"), "{err}");

        // The opposite insertion order is just as ambiguous.
        let mut sched: ChurnSchedule<&str> = ChurnSchedule::new();
        sched.leave(3, "s0").unwrap();
        assert!(sched.join(3, "s0", "s0").is_err());

        // Double joins and double leaves of one id are duplicates too.
        let mut sched: ChurnSchedule<&str> = ChurnSchedule::new();
        sched.join(3, "s0", "s0").unwrap();
        assert!(sched.join(3, "s0", "s0").is_err());
        let mut sched: ChurnSchedule<&str> = ChurnSchedule::new();
        sched.leave(3, "s0").unwrap();
        assert!(sched.leave(3, "s0").is_err());

        // Distinct rounds or distinct servers stay fine.
        let mut sched: ChurnSchedule<&str> = ChurnSchedule::new();
        sched.join(3, "s0", "s0").unwrap();
        sched.leave(4, "s0").unwrap();
        sched.leave(3, "s1").unwrap();
        assert_eq!(sched.events().len(), 3);
    }
}
