//! Service-layer configuration: per-server serving specs and the fleet
//! configuration.

use crate::arrivals::ArrivalKind;
use cluster::{BalancePolicy, BudgetNode, BudgetTree, CapSplit, ChurnAction, ChurnSchedule};
use coscale::SimConfig;
use simkernel::Ps;
use std::collections::HashSet;
use topology::TierGraph;

/// One serving server: an engine configuration plus the request stream it
/// must absorb and the latency target it is held to.
#[derive(Clone, Debug)]
pub struct ServiceServerSpec {
    /// Display name (unique within the fleet; churn departures are by
    /// name).
    pub name: String,
    /// The underlying engine configuration. Its completion target is
    /// ignored: a serving engine never finishes, and the fixed round count
    /// ends the run. `max_epochs` must cover every round the server runs.
    pub config: SimConfig,
    /// The arrival process. Its stream and the request sizes are seeded
    /// from `config.seed`, independently of the engine's workload stream.
    /// Each request costs 40 k instructions on average, uniform in
    /// `[0.5, 1.5] ×` that.
    pub arrivals: ArrivalKind,
    /// The server's p99 sojourn-time SLO, seconds.
    pub p99_target_s: f64,
}

impl ServiceServerSpec {
    /// A small fast serving server for tests and examples: the reduced
    /// engine configuration (4 cores, 250 µs epochs) with room for a
    /// million epochs, Poisson arrivals at `rate_hz`, 40 k instructions per
    /// request and a 1 ms p99 target.
    ///
    /// # Panics
    ///
    /// Panics if the mix name is unknown.
    pub fn small(name: &str, mix_name: &str, seed: u64, rate_hz: f64) -> ServiceServerSpec {
        let m = workloads::mix(mix_name).unwrap_or_else(|| panic!("unknown mix {mix_name}"));
        let mut config = SimConfig::small(m);
        config.seed = seed;
        config.epoch = Ps::from_us(250);
        config.profile_window = Ps::from_us(50);
        config.max_epochs = 1_000_000;
        ServiceServerSpec {
            name: name.to_string(),
            config,
            arrivals: ArrivalKind::Poisson { rate_hz },
            p99_target_s: 1e-3,
        }
    }

    /// Same as [`ServiceServerSpec::small`] with a custom core count.
    ///
    /// # Panics
    ///
    /// Panics if the mix name is unknown.
    pub fn small_with_cores(
        name: &str,
        mix_name: &str,
        seed: u64,
        rate_hz: f64,
        cores: usize,
    ) -> ServiceServerSpec {
        let mut s = Self::small(name, mix_name, seed, rate_hz);
        s.config.cores = cores;
        s
    }

    /// Sets the p99 target.
    #[must_use]
    pub fn with_p99_target_s(mut self, target_s: f64) -> ServiceServerSpec {
        self.p99_target_s = target_s;
        self
    }

    /// Sets the arrival process.
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: ArrivalKind) -> ServiceServerSpec {
        self.arrivals = arrivals;
        self
    }
}

/// Which representation carries the closed-loop client population.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClientModel {
    /// The exact per-client pool ([`crate::ClientPool`]): every client has
    /// its own RNG stream and ready time. Per-round cost scales with the
    /// population.
    #[default]
    Exact,
    /// The fluid aggregate ([`crate::FluidPool`]): population counters
    /// with cohort-sampled think→arrival transitions. Per-round cost
    /// scales with *issued requests*, enabling 10⁶+ client populations;
    /// proven against the exact model by `tests/client_equivalence.rs`.
    Fluid,
}

impl std::fmt::Display for ClientModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientModel::Exact => write!(f, "exact"),
            ClientModel::Fluid => write!(f, "fluid"),
        }
    }
}

impl std::str::FromStr for ClientModel {
    type Err = String;

    fn from_str(s: &str) -> Result<ClientModel, String> {
        match s {
            "exact" => Ok(ClientModel::Exact),
            "fluid" => Ok(ClientModel::Fluid),
            other => Err(format!(
                "unknown client model '{other}' (known: exact, fluid)"
            )),
        }
    }
}

/// Closed-loop workload: a seeded client population replaces the
/// per-server open-loop arrival streams, and a front-end
/// [`LoadBalancer`](cluster::LoadBalancer) routes each generated request
/// to a server by [`BalancePolicy`].
#[derive(Clone, Debug)]
pub struct ClosedLoopConfig {
    /// Population size — the hard bound on in-flight requests.
    pub clients: usize,
    /// Mean exponential think time between response and the next request.
    pub mean_think: Ps,
    /// How the front end assigns requests to servers.
    pub balance: BalancePolicy,
    /// Mean instructions a request costs; actual sizes are uniform in
    /// `[0.5, 1.5] ×` this, drawn from the issuing client's stream.
    pub mean_request_instrs: f64,
    /// Seed of the client population's think/size streams.
    pub seed: u64,
    /// Exact per-client pool or fluid population counters.
    pub model: ClientModel,
    /// Diurnal modulation period of the think-completion rate; zero
    /// disables modulation. With a period `P` and depth `d`, the
    /// instantaneous rate is `(1/θ)(1 + d·sin(2πt/P))` — day/night load
    /// swings at fleet scale. Requires the fluid model (the exact pool
    /// draws stationary exponential thinks).
    pub think_diurnal_period: Ps,
    /// Diurnal modulation depth in `[0, 1]`.
    pub think_diurnal_depth: f64,
}

impl ClosedLoopConfig {
    /// A population of `clients` thinking for `mean_think` on average,
    /// balanced by `balance`, with the serving layer's default 40 k
    /// instructions per request and a fixed default seed.
    pub fn new(clients: usize, mean_think: Ps, balance: BalancePolicy) -> ClosedLoopConfig {
        ClosedLoopConfig {
            clients,
            mean_think,
            balance,
            mean_request_instrs: 40_000.0,
            seed: 0xc11e_57a9,
            model: ClientModel::Exact,
            think_diurnal_period: Ps::ZERO,
            think_diurnal_depth: 0.0,
        }
    }

    /// Sets the client-stream seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ClosedLoopConfig {
        self.seed = seed;
        self
    }

    /// Selects the population representation (see [`ClientModel`]).
    #[must_use]
    pub fn with_model(mut self, model: ClientModel) -> ClosedLoopConfig {
        self.model = model;
        self
    }

    /// Enables diurnal modulation of the think-completion rate (fluid
    /// model only): rate `(1/θ)(1 + depth·sin(2πt/period))`.
    #[must_use]
    pub fn with_think_diurnal(mut self, period: Ps, depth: f64) -> ClosedLoopConfig {
        self.think_diurnal_period = period;
        self.think_diurnal_depth = depth;
        self
    }

    /// Sets the mean request size in instructions.
    #[must_use]
    pub fn with_mean_request_instrs(mut self, instrs: f64) -> ClosedLoopConfig {
        self.mean_request_instrs = instrs;
        self
    }
}

/// Multi-tier request topology: client requests fan out into a DAG of
/// sub-requests across service tiers, the SLO binds the *end-to-end* tail,
/// and the budget shifts toward the tier on the critical path.
///
/// Requires a closed-loop workload (roots enter through the client
/// population and are balanced over the entry tier only) and replaces any
/// explicit budget topology: the fleet auto-builds a two-level tree — a
/// critical-path root over per-tier groups, each tier splitting internally
/// by [`ServiceConfig::split`].
#[derive(Clone, Debug)]
pub struct TierConfig {
    /// The tier graph (e.g. `fe[2] -> app[4]*2 -> storage[3]`); the fleet's
    /// server names must match [`TierGraph::server_names`] in order.
    pub graph: TierGraph,
    /// Per-tier budget floor under the critical-path root: each tier is
    /// floored at `floor_frac × global budget / tiers`. Zero disables
    /// explicit floors; infeasible configurations (floors raised to power
    /// minimums exceeding the budget) fail the split with a structured
    /// error.
    pub floor_frac: f64,
    /// End-to-end p99 sojourn target for closed request DAGs, seconds.
    pub e2e_target_s: f64,
    /// The discipline the root node applies *across* tiers. The default
    /// [`CapSplit::CriticalPath`] shifts budget toward the slowest leg;
    /// static disciplines (uniform, demand-proportional) are the
    /// comparison baselines of the `multi-tier` experiment.
    pub tier_split: CapSplit,
}

impl TierConfig {
    /// A tier topology with defaults: a 10 % per-tier floor and a 5 ms
    /// end-to-end p99 target.
    pub fn new(graph: TierGraph) -> TierConfig {
        TierConfig {
            graph,
            floor_frac: 0.1,
            e2e_target_s: 5e-3,
            tier_split: CapSplit::CriticalPath,
        }
    }

    /// Sets the per-tier floor fraction.
    #[must_use]
    pub fn with_floor_frac(mut self, floor_frac: f64) -> TierConfig {
        self.floor_frac = floor_frac;
        self
    }

    /// Sets the end-to-end p99 target, seconds.
    #[must_use]
    pub fn with_e2e_target_s(mut self, target_s: f64) -> TierConfig {
        self.e2e_target_s = target_s;
        self
    }

    /// Sets the cross-tier root discipline (default critical-path).
    #[must_use]
    pub fn with_tier_split(mut self, split: CapSplit) -> TierConfig {
        self.tier_split = split;
        self
    }

    /// The auto-built budget tree: a root labelled `tiers` applying
    /// `tier_split` over per-tier groups (labelled by tier name, so churn
    /// joiners attach to their tier), each splitting internally by `split`.
    pub(crate) fn budget_tree(&self, split: CapSplit) -> BudgetTree {
        let children = self
            .graph
            .tiers()
            .iter()
            .map(|t| {
                BudgetNode::group(
                    &t.name,
                    split,
                    (0..t.servers)
                        .map(|i| BudgetNode::server(&format!("{}{i}", t.name)))
                        .collect(),
                )
            })
            .collect();
        BudgetTree::new(BudgetNode::group("tiers", self.tier_split, children))
    }
}

/// Configuration of one serving-fleet simulation.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The initial fleet (churn may add or remove servers later).
    pub servers: Vec<ServiceServerSpec>,
    /// Global power budget, watts.
    pub global_cap_w: f64,
    /// The budget-splitting discipline. [`CapSplit::SlaAware`] uses the
    /// servers' windowed p99 signals; the others ignore latency. Ignored
    /// when a `topology` tree is set.
    pub split: CapSplit,
    /// Optional hierarchical budget topology. When set, every round splits
    /// the budget down the tree — interior nodes apply their own
    /// disciplines over their children's aggregated power *and* latency
    /// telemetry — instead of flat across the fleet. The tree's leaves
    /// must match the initial fleet; churn joiners attach under the root
    /// and leavers' leaves are pruned as the run progresses.
    pub topology: Option<BudgetTree>,
    /// Optional multi-tier request topology (see [`TierConfig`]). Mutually
    /// exclusive with an explicit `topology`; requires `closed_loop`.
    pub tiers: Option<TierConfig>,
    /// Coordination rounds to run (the serving horizon).
    pub rounds: usize,
    /// Engine epochs per round.
    pub epochs_per_round: usize,
    /// Worker threads within a round; results are identical for any count.
    pub threads: usize,
    /// Cap-granting quantum, watts.
    pub quantum_w: f64,
    /// Scheduled fleet changes.
    pub churn: ChurnSchedule<ServiceServerSpec>,
    /// Closed-loop workload, replacing the per-server open-loop arrival
    /// streams when set: a client population issues requests at round
    /// barriers and a front-end balancer routes them across the fleet.
    pub closed_loop: Option<ClosedLoopConfig>,
}

impl ServiceConfig {
    /// A fleet under `global_cap_w` split by `split`, with defaults: 40
    /// rounds of 4 epochs, one thread, 1 W quanta and no churn.
    pub fn new(
        servers: Vec<ServiceServerSpec>,
        global_cap_w: f64,
        split: CapSplit,
    ) -> ServiceConfig {
        ServiceConfig {
            servers,
            global_cap_w,
            split,
            topology: None,
            tiers: None,
            rounds: 40,
            epochs_per_round: 4,
            threads: 1,
            quantum_w: 1.0,
            churn: ChurnSchedule::new(),
            closed_loop: None,
        }
    }

    /// Switches the fleet to a closed-loop workload (see
    /// [`ClosedLoopConfig`]); per-server arrival processes are ignored.
    #[must_use]
    pub fn with_closed_loop(mut self, closed_loop: ClosedLoopConfig) -> ServiceConfig {
        self.closed_loop = Some(closed_loop);
        self
    }

    /// Sets the round count.
    #[must_use]
    pub fn with_rounds(mut self, rounds: usize) -> ServiceConfig {
        self.rounds = rounds;
        self
    }

    /// Sets the worker thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> ServiceConfig {
        self.threads = threads;
        self
    }

    /// Sets the churn schedule.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnSchedule<ServiceServerSpec>) -> ServiceConfig {
        self.churn = churn;
        self
    }

    /// Sets a hierarchical budget topology (see [`BudgetTree`]).
    #[must_use]
    pub fn with_topology(mut self, topology: BudgetTree) -> ServiceConfig {
        self.topology = Some(topology);
        self
    }

    /// Sets a multi-tier request topology (see [`TierConfig`]).
    #[must_use]
    pub fn with_tiers(mut self, tiers: TierConfig) -> ServiceConfig {
        self.tiers = Some(tiers);
        self
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if !self.global_cap_w.is_finite() || self.global_cap_w <= 0.0 {
            return Err(format!(
                "global cap {} must be finite and positive",
                self.global_cap_w
            ));
        }
        if self.rounds == 0 {
            return Err("rounds must be positive".into());
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
            Self::validate_spec(s)?;
        }
        // Names are unique among the servers in the fleet at any round:
        // the split binds one leaf per name and departures go by name.
        let mut live = HashSet::new();
        if let Some(s) = self.servers.iter().find(|s| !live.insert(s.name.as_str())) {
            return Err(format!(
                "server name '{}' appears twice in the fleet",
                s.name
            ));
        }
        let total_epochs = self.rounds.saturating_mul(self.epochs_per_round);
        for s in &self.servers {
            if total_epochs > s.config.max_epochs {
                return Err(format!(
                    "server {}: {total_epochs} total epochs exceed max_epochs {}",
                    s.name, s.config.max_epochs
                ));
            }
        }
        if let Some(tree) = &self.topology {
            let names: Vec<&str> = self.servers.iter().map(|s| s.name.as_str()).collect();
            tree.validate(&names)?;
        }
        if let Some(tc) = &self.tiers {
            tc.graph.validate()?;
            if self.topology.is_some() {
                return Err(
                    "tiers: mutually exclusive with an explicit budget topology \
                     (the tier runtime builds its own critical-path tree)"
                        .into(),
                );
            }
            if self.closed_loop.is_none() {
                return Err("tiers: requires a closed-loop workload \
                            (roots enter through the client population)"
                    .into());
            }
            if !(0.0..1.0).contains(&tc.floor_frac) || tc.floor_frac.is_nan() {
                return Err(format!(
                    "tiers: floor fraction {} must be in [0, 1)",
                    tc.floor_frac
                ));
            }
            if !tc.e2e_target_s.is_finite() || tc.e2e_target_s <= 0.0 {
                return Err(format!(
                    "tiers: end-to-end target {} must be positive",
                    tc.e2e_target_s
                ));
            }
            let expect = tc.graph.server_names();
            let got: Vec<&str> = self.servers.iter().map(|s| s.name.as_str()).collect();
            if got != expect.iter().map(String::as_str).collect::<Vec<_>>() {
                return Err(format!(
                    "tiers: fleet names {got:?} must match the tier graph's \
                     server names {expect:?} in order"
                ));
            }
            tc.budget_tree(self.split)
                .validate(&got)
                .map_err(|e| format!("tier topology: {e}"))?;
        }
        if let Some(cl) = &self.closed_loop {
            if cl.clients == 0 {
                return Err("closed loop: client population must be positive".into());
            }
            if !cl.mean_request_instrs.is_finite() || cl.mean_request_instrs <= 0.0 {
                return Err("closed loop: request size must be positive".into());
            }
            // The exact pool tags requests with the client's index as a
            // `u32`; a larger population would silently alias tags (the
            // 10⁶-scale overflow audit's boundary). The fluid model tracks
            // mass, not identity, so any population fits.
            if cl.model == ClientModel::Exact && cl.clients > u32::MAX as usize {
                return Err(format!(
                    "closed loop: exact model caps the population at {} \
                     (u32 client tags); use the fluid model beyond that",
                    u32::MAX
                ));
            }
            if !cl.think_diurnal_depth.is_finite() || !(0.0..=1.0).contains(&cl.think_diurnal_depth)
            {
                return Err(format!(
                    "closed loop: diurnal depth {} must be in [0, 1]",
                    cl.think_diurnal_depth
                ));
            }
            if cl.think_diurnal_depth > 0.0 {
                if cl.think_diurnal_period == Ps::ZERO {
                    return Err("closed loop: diurnal depth needs a positive period".into());
                }
                if cl.model != ClientModel::Fluid {
                    return Err("closed loop: diurnal think modulation requires the \
                                fluid client model (the exact pool draws stationary \
                                exponential thinks)"
                        .into());
                }
            }
            // The client clock is fleet-global: rounds must span the same
            // simulated time on every server, so epochs must agree.
            let Some(first) = self.servers.first() else {
                return Err("closed loop: the initial fleet cannot be empty".into());
            };
            for s in &self.servers {
                if s.config.epoch != first.config.epoch {
                    return Err(format!(
                        "closed loop: server {} epoch {} differs from {} epoch {} \
                         (the fleet-global clock needs uniform rounds)",
                        s.name, s.config.epoch, first.name, first.config.epoch
                    ));
                }
            }
        }
        for event in self.churn.events() {
            let (verb, name) = match &event.action {
                ChurnAction::Join(spec) => ("join", &spec.name),
                ChurnAction::Leave(name) => ("leave", name),
            };
            let fail = |e: String| format!("churn {verb} {name} at round {}: {e}", event.round);
            if event.round >= self.rounds {
                return Err(fail(format!(
                    "at or past the {}-round horizon, so it would never fire",
                    self.rounds
                )));
            }
            let ChurnAction::Join(spec) = &event.action else {
                if !live.remove(name.as_str()) {
                    return Err(fail(format!(
                        "no server '{name}' is in the fleet at that round"
                    )));
                }
                continue;
            };
            Self::validate_spec(spec).map_err(fail)?;
            if !live.insert(spec.name.as_str()) {
                return Err(fail(format!(
                    "server '{}' is already in the fleet",
                    spec.name
                )));
            }
            let left = (self.rounds - event.round).saturating_mul(self.epochs_per_round);
            if left > spec.config.max_epochs {
                return Err(fail(format!(
                    "{left} remaining epochs exceed max_epochs {}",
                    spec.config.max_epochs
                )));
            }
            if let Some(tc) = &self.tiers {
                if tc.graph.tier_of(&spec.name).is_none() {
                    return Err(fail(format!("name matches no tier of {}", tc.graph)));
                }
            }
            if let (Some(_), Some(first)) = (&self.closed_loop, self.servers.first()) {
                if spec.config.epoch != first.config.epoch {
                    return Err(fail(format!(
                        "epoch {} differs from {} epoch {} \
                         (the fleet-global clock needs uniform rounds)",
                        spec.config.epoch, first.name, first.config.epoch
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validates one serving spec (also applied to every churn joiner).
    pub(crate) fn validate_spec(s: &ServiceServerSpec) -> Result<(), String> {
        s.config
            .validate()
            .map_err(|e| format!("server {}: {e}", s.name))?;
        if !s.p99_target_s.is_finite() || s.p99_target_s <= 0.0 {
            return Err(format!(
                "server {}: p99 target {} s must be finite and positive",
                s.name, s.p99_target_s
            ));
        }
        s.arrivals
            .validate()
            .map_err(|e| format!("server {}: {e}", s.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_configs() {
        let ok = ServiceConfig::new(
            vec![ServiceServerSpec::small("s0", "MID1", 1, 1000.0)],
            100.0,
            CapSplit::SlaAware,
        );
        assert!(ok.validate().is_ok());

        let mut c = ok.clone();
        c.global_cap_w = -1.0;
        assert!(c.validate().is_err());

        let mut c = ok.clone();
        c.rounds = 0;
        assert!(c.validate().is_err());

        let mut c = ok.clone();
        c.servers[0].p99_target_s = 0.0;
        assert!(c.validate().is_err());

        let mut c = ok;
        c.rounds = 2_000_000;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_watts() {
        let ok = ServiceConfig::new(
            vec![ServiceServerSpec::small("s0", "MID1", 1, 1000.0)],
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

    /// Validates `base` with one join of `joiner` scheduled at `round`.
    fn join_error(
        base: ServiceConfig,
        round: usize,
        joiner: ServiceServerSpec,
    ) -> Result<(), String> {
        let mut churn = ChurnSchedule::new();
        churn.join(round, &joiner.name.clone(), joiner).unwrap();
        base.with_churn(churn).validate()
    }

    fn open_loop_base() -> ServiceConfig {
        ServiceConfig::new(
            vec![ServiceServerSpec::small("s0", "MID1", 1, 1000.0)],
            100.0,
            CapSplit::Uniform,
        )
    }

    #[test]
    fn validation_rejects_churn_joins_past_the_horizon() {
        let late = || ServiceServerSpec::small("late", "ILP1", 2, 1000.0);
        assert!(join_error(open_loop_base(), 39, late()).is_ok());
        for round in [40, 41, 1000] {
            let err = join_error(open_loop_base(), round, late()).unwrap_err();
            assert!(err.contains("late") && err.contains("horizon"), "{err}");
        }
    }

    #[test]
    fn validation_rejects_bad_arrivals_and_p99_targets() {
        let mmpp =
            |rate_hz, burst_factor, (mean_calm, mean_burst), diurnal_depth| ArrivalKind::Mmpp {
                rate_hz,
                burst_factor,
                mean_calm,
                mean_burst,
                diurnal_period: Ps::from_ms(10),
                diurnal_depth,
            };
        let poisson = |rate_hz| ArrivalKind::Poisson { rate_hz };
        let dwells = (Ps::from_ms(2), Ps::from_ms(1));
        let cases = [
            (poisson(f64::NAN), "arrival rate NaN"),
            (poisson(f64::INFINITY), "arrival rate inf"),
            (poisson(-5.0), "arrival rate -5"),
            (mmpp(f64::INFINITY, 2.0, dwells, 0.5), "arrival rate inf"),
            (mmpp(1e3, 0.5, dwells, 0.5), "burst factor 0.5"),
            (mmpp(1e3, f64::INFINITY, dwells, 0.5), "burst factor inf"),
            (mmpp(1e3, 2.0, (Ps::ZERO, Ps::ZERO), 0.5), "mean dwells"),
            (mmpp(1e3, 2.0, (dwells.0, Ps::ZERO), 0.5), "mean dwells"),
            (mmpp(1e3, 2.0, dwells, 1.0), "diurnal depth 1"),
            (mmpp(1e3, 2.0, dwells, f64::NAN), "diurnal depth NaN"),
            (mmpp(1e3, 2.0, dwells, -0.1), "diurnal depth -0.1"),
            (poisson(1.000_001e12), "arrival envelope 1.000001e12/s"),
            (mmpp(1e200, 1e200, dwells, 0.0), "arrival envelope inf/s"),
            (mmpp(4e11, 2.0, dwells, 0.5), "arrival envelope 1.2e12/s"),
        ];
        let mut ok = open_loop_base();
        ok.servers[0].arrivals = mmpp(1e3, 2.0, dwells, 0.5);
        assert!(ok.validate().is_ok());
        ok.servers[0].arrivals = poisson(1e12);
        assert!(
            ok.validate().is_ok(),
            "one candidate per picosecond is the bound"
        );
        for (arrivals, needle) in cases {
            let spec = ServiceServerSpec::small("odd", "ILP1", 2, 1000.0).with_arrivals(arrivals);
            let mut c = open_loop_base();
            c.servers.push(spec.clone());
            let err = c.validate().unwrap_err();
            assert!(
                err.starts_with("server odd: ") && err.contains(needle),
                "{err}"
            );
            let err = join_error(open_loop_base(), 3, spec).unwrap_err();
            assert!(err.contains("odd") && err.contains(needle), "{err}");
        }
        for target in [f64::NAN, f64::INFINITY, 0.0, -1e-3] {
            let spec = ServiceServerSpec::small("odd", "ILP1", 2, 1000.0).with_p99_target_s(target);
            let mut c = open_loop_base();
            c.servers.push(spec.clone());
            let err = c.validate().unwrap_err();
            assert!(err.contains(&format!("p99 target {target} s")), "{err}");
            let err = join_error(open_loop_base(), 3, spec).unwrap_err();
            assert!(err.contains(&format!("p99 target {target} s")), "{err}");
        }
    }

    #[test]
    fn validation_rejects_a_bad_l2_geometry() {
        // Each of these used to panic inside `L2Cache::new`, mid-build.
        for (ways, size_bytes) in [(0, 1 << 20), (16, 3 << 20)] {
            let mut spec = ServiceServerSpec::small("odd", "ILP1", 2, 1000.0);
            spec.config.cache.ways = ways;
            spec.config.cache.size_bytes = size_bytes;
            let mut c = open_loop_base();
            c.servers.push(spec.clone());
            let err = c.validate().unwrap_err();
            assert!(err.starts_with("server odd: L2"), "{err}");
            let err = join_error(open_loop_base(), 3, spec).unwrap_err();
            assert!(err.contains("odd") && err.contains("L2"), "{err}");
        }
    }

    #[test]
    fn validation_rejects_a_name_already_in_the_fleet() {
        let spec = |name: &str| ServiceServerSpec::small(name, "ILP1", 2, 1000.0);
        let mut twice = open_loop_base();
        twice.servers.push(spec("s0"));
        let err = twice.validate().unwrap_err();
        assert_eq!(err, "server name 's0' appears twice in the fleet");

        // A join whose name is live at its round is refused, whether the
        // name belongs to the initial fleet or to an earlier joiner.
        let err = join_error(open_loop_base(), 3, spec("s0")).unwrap_err();
        assert_eq!(
            err,
            "churn join s0 at round 3: server 's0' is already in the fleet"
        );
        let mut churn = ChurnSchedule::new();
        churn.join(1, "c", spec("c")).unwrap();
        churn.join(2, "c", spec("c")).unwrap();
        let err = open_loop_base().with_churn(churn).validate().unwrap_err();
        assert!(err.starts_with("churn join c at round 2: "), "{err}");

        // A leave frees its name for a later join.
        let mut churn = ChurnSchedule::new();
        churn.join(1, "c", spec("c")).unwrap();
        churn.leave(2, "c").unwrap();
        churn.join(3, "c", spec("c")).unwrap();
        churn.leave(4, "s0").unwrap();
        churn.join(5, "s0", spec("s0")).unwrap();
        let ok = open_loop_base().with_churn(churn).validate();
        assert!(ok.is_ok(), "{ok:?}");
    }

    /// A leave must name a server in the fleet at its round, and fire
    /// before the horizon, as a join must; before, both mistakes were
    /// accepted and did nothing.
    #[test]
    fn validation_rejects_a_leave_of_no_live_server_or_past_the_horizon() {
        let leave = |round: usize, name: &str| {
            let mut churn = ChurnSchedule::new();
            churn.leave(round, name).unwrap();
            open_loop_base().with_churn(churn).validate()
        };
        assert!(leave(39, "s0").is_ok());
        assert_eq!(
            leave(2, "zz").unwrap_err(),
            "churn leave zz at round 2: no server 'zz' is in the fleet at that round"
        );
        for round in [40, 41, 1000] {
            assert_eq!(
                leave(round, "s0").unwrap_err(),
                format!(
                    "churn leave s0 at round {round}: at or past the 40-round horizon, \
                     so it would never fire"
                )
            );
        }

        // A name is live only between its join and its leave.
        let spec = ServiceServerSpec::small("c", "ILP1", 2, 1000.0);
        let mut early = ChurnSchedule::new();
        early.leave(2, "c").unwrap();
        early.join(3, "c", spec.clone()).unwrap();
        let err = open_loop_base().with_churn(early).validate().unwrap_err();
        assert!(
            err.starts_with("churn leave c at round 2: no server 'c'"),
            "{err}"
        );
        let mut twice = ChurnSchedule::new();
        twice.leave(2, "s0").unwrap();
        twice.leave(3, "s0").unwrap();
        let err = open_loop_base().with_churn(twice).validate().unwrap_err();
        assert!(
            err.starts_with("churn leave s0 at round 3: no server 's0'"),
            "{err}"
        );
    }

    #[test]
    fn validation_rejects_churn_joins_beyond_max_epochs() {
        let mut short = ServiceServerSpec::small("late", "ILP1", 2, 1000.0);
        short.config.max_epochs = 10;
        // Joining at round 38 leaves 2 × 4 = 8 epochs: fine. At round 20
        // it would need 80.
        assert!(join_error(open_loop_base(), 38, short.clone()).is_ok());
        let err = join_error(open_loop_base(), 20, short).unwrap_err();
        assert!(err.contains("80 remaining epochs"), "{err}");
    }

    #[test]
    fn validation_rejects_churn_joins_outside_every_tier() {
        use cluster::BalancePolicy;
        let graph: TierGraph = "fe[1] -> st[2]*2".parse().unwrap();
        let base = ServiceConfig::new(
            ["fe0", "st0", "st1"]
                .iter()
                .enumerate()
                .map(|(i, n)| ServiceServerSpec::small(n, "MID1", i as u64, 1000.0))
                .collect(),
            180.0,
            CapSplit::FastCap,
        )
        .with_closed_loop(ClosedLoopConfig::new(
            8,
            Ps::from_us(200),
            BalancePolicy::LeastQueue,
        ))
        .with_tiers(TierConfig::new(graph));
        let joiner = |name: &str| ServiceServerSpec::small(name, "MEM1", 9, 0.0);
        assert!(join_error(base.clone(), 4, joiner("st2")).is_ok());
        let err = join_error(base, 4, joiner("cache0")).unwrap_err();
        assert!(err.contains("cache0") && err.contains("no tier"), "{err}");
    }

    #[test]
    fn validation_rejects_churn_joins_with_a_foreign_epoch() {
        use cluster::BalancePolicy;
        let closed = open_loop_base().with_closed_loop(ClosedLoopConfig::new(
            8,
            Ps::from_us(200),
            BalancePolicy::RoundRobin,
        ));
        let mut skewed = ServiceServerSpec::small("late", "ILP1", 2, 0.0);
        skewed.config.epoch = Ps::from_us(125);
        // Open loop has no fleet-global clock, so any epoch may join.
        assert!(join_error(open_loop_base(), 3, skewed.clone()).is_ok());
        let err = join_error(closed, 3, skewed).unwrap_err();
        assert!(err.contains("epoch"), "{err}");
    }

    #[test]
    fn tier_validation_pins_closed_loop_names_and_floors() {
        use cluster::BalancePolicy;
        let graph: TierGraph = "fe[1] -> st[2]*2".parse().unwrap();
        let fleet = |names: &[&str]| -> Vec<ServiceServerSpec> {
            names
                .iter()
                .enumerate()
                .map(|(i, n)| ServiceServerSpec::small(n, "MID1", i as u64, 1000.0))
                .collect()
        };
        let cl = ClosedLoopConfig::new(8, Ps::from_us(200), BalancePolicy::LeastQueue);
        let ok = ServiceConfig::new(fleet(&["fe0", "st0", "st1"]), 180.0, CapSplit::FastCap)
            .with_closed_loop(cl.clone())
            .with_tiers(TierConfig::new(graph.clone()));
        assert!(ok.validate().is_ok(), "{:?}", ok.validate());

        let mut open_loop = ok.clone();
        open_loop.closed_loop = None;
        assert!(open_loop.validate().is_err(), "tiers need a closed loop");

        let wrong_names =
            ServiceConfig::new(fleet(&["fe0", "stA", "st1"]), 180.0, CapSplit::FastCap)
                .with_closed_loop(cl.clone())
                .with_tiers(TierConfig::new(graph.clone()));
        assert!(wrong_names.validate().is_err());

        let mut bad_floor = ok.clone();
        bad_floor.tiers.as_mut().unwrap().floor_frac = 1.0;
        assert!(bad_floor.validate().is_err());

        let mut with_tree = ok;
        with_tree.topology = Some(cluster::BudgetTree::new(cluster::BudgetNode::group(
            "g",
            CapSplit::Uniform,
            vec![
                cluster::BudgetNode::server("fe0"),
                cluster::BudgetNode::server("st0"),
                cluster::BudgetNode::server("st1"),
            ],
        )));
        assert!(
            with_tree.validate().is_err(),
            "tiers exclude explicit trees"
        );
    }

    #[test]
    fn tier_validation_rejects_a_tier_named_like_the_tier_root() {
        use cluster::BalancePolicy;
        let graph: TierGraph = "tiers[2] -> st[2]".parse().unwrap();
        let fleet = graph
            .server_names()
            .iter()
            .enumerate()
            .map(|(i, n)| ServiceServerSpec::small(n, "MID1", i as u64, 1000.0))
            .collect();
        let cfg = ServiceConfig::new(fleet, 180.0, CapSplit::FastCap)
            .with_closed_loop(ClosedLoopConfig::new(
                16,
                Ps::from_us(200),
                BalancePolicy::LeastQueue,
            ))
            .with_tiers(TierConfig::new(graph));
        let err = cfg.validate().unwrap_err();
        assert!(
            err.contains("tier topology") && err.contains("duplicate group label 'tiers'"),
            "{err}"
        );
    }

    #[test]
    fn closed_loop_validation_pins_population_and_uniform_epochs() {
        use cluster::BalancePolicy;
        let base = || {
            ServiceConfig::new(
                vec![
                    ServiceServerSpec::small("s0", "MID1", 1, 1000.0),
                    ServiceServerSpec::small("s1", "ILP1", 2, 1000.0),
                ],
                100.0,
                CapSplit::Uniform,
            )
        };
        let cl = ClosedLoopConfig::new(8, Ps::from_us(200), BalancePolicy::PowerHeadroom);
        assert!(base().with_closed_loop(cl.clone()).validate().is_ok());

        let mut empty = ClosedLoopConfig::new(0, Ps::ZERO, BalancePolicy::RoundRobin);
        assert!(base().with_closed_loop(empty.clone()).validate().is_err());
        empty.clients = 4;
        empty.mean_request_instrs = 0.0;
        assert!(base().with_closed_loop(empty).validate().is_err());

        let mut skewed = base().with_closed_loop(cl.clone());
        skewed.servers[1].config.epoch = Ps::from_us(125);
        assert!(skewed.validate().is_err(), "mismatched epochs must fail");

        let mut no_fleet = base().with_closed_loop(cl);
        no_fleet.servers.clear();
        assert!(no_fleet.validate().is_err());
    }

    #[test]
    fn client_model_parse_display_round_trip() {
        for m in [ClientModel::Exact, ClientModel::Fluid] {
            assert_eq!(m.to_string().parse::<ClientModel>().unwrap(), m);
        }
        assert!("nosuch".parse::<ClientModel>().is_err());
        assert_eq!(ClientModel::default(), ClientModel::Exact);
    }

    #[test]
    fn fluid_validation_pins_tag_space_and_diurnal_params() {
        use cluster::BalancePolicy;
        let base = || {
            ServiceConfig::new(
                vec![ServiceServerSpec::small("s0", "MID1", 1, 1000.0)],
                100.0,
                CapSplit::Uniform,
            )
        };
        let cl =
            |clients| ClosedLoopConfig::new(clients, Ps::from_us(200), BalancePolicy::RoundRobin);

        // Boundary regression: the exact model's u32 tag space is a hard
        // population cap; the fluid model is not bound by it.
        let at_cap = cl(u32::MAX as usize);
        assert!(base().with_closed_loop(at_cap).validate().is_ok());
        let over_cap = cl(u32::MAX as usize + 1);
        assert!(base()
            .with_closed_loop(over_cap.clone())
            .validate()
            .is_err());
        let fluid_over = over_cap.with_model(ClientModel::Fluid);
        assert!(base().with_closed_loop(fluid_over).validate().is_ok());

        // Diurnal modulation needs a period, a sane depth, and the fluid
        // model.
        let diurnal = cl(8)
            .with_model(ClientModel::Fluid)
            .with_think_diurnal(Ps::from_ms(10), 0.8);
        assert!(base().with_closed_loop(diurnal.clone()).validate().is_ok());
        let exact_diurnal = diurnal.clone().with_model(ClientModel::Exact);
        assert!(base().with_closed_loop(exact_diurnal).validate().is_err());
        let no_period = cl(8)
            .with_model(ClientModel::Fluid)
            .with_think_diurnal(Ps::ZERO, 0.5);
        assert!(base().with_closed_loop(no_period).validate().is_err());
        let deep = cl(8)
            .with_model(ClientModel::Fluid)
            .with_think_diurnal(Ps::from_ms(10), 1.5);
        assert!(base().with_closed_loop(deep).validate().is_err());
    }
}
