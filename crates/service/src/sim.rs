//! The serving-fleet simulation loop: rounds of (apply churn → collect
//! power and latency telemetry → split the budget → serve a coordination
//! period in parallel), for a fixed horizon.
//!
//! One loop drives every run: [`FleetRun::barrier`] runs the per-round
//! pipeline and steps the whole fleet on a persistent [`WorkerPool`].
//! Serving servers never finish, so the fleet itself is the active list.
//! Every budget split, flat or hierarchical, runs through the compiled
//! [`HierSplitter`](cluster::HierSplitter). A flat split is the one-group
//! tree [`BudgetTree::flat`].

use crate::clients::{ClientPool, ClientPopulation};
use crate::config::{ClientModel, ServiceConfig};
use crate::fluid::FluidPool;
use crate::queue::{Caller, Request, Resolution};
use crate::server::ServiceServer;
use cluster::{
    BalancePolicy, BudgetTree, CapSplit, ChurnAction, HierSplitter, LoadBalancer, ServerDemand,
    ServerLoad, SlaSignal, TreeSignals, WorkerPool,
};
use simkernel::{stats::Histogram, Ps};
use topology::{DagTracker, TierGraph, TraceCollector, TraceStats};

/// How many sealed rounds of critical-path attribution feed the split's
/// tier shares.
const TRACE_WINDOW_ROUNDS: usize = 4;

/// One server's final accounting (final fleet members and churn departures
/// alike).
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// Server name from the spec.
    pub name: String,
    /// Whether the server left the fleet before the horizon (churn).
    pub departed: bool,
    /// Engine energy consumed while in the fleet, joules.
    pub energy_j: f64,
    /// Requests handed to the server (admitted or shed).
    pub arrived: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests abandoned in-queue (at departure, or still queued at the
    /// horizon).
    pub abandoned: u64,
    /// Rounds whose windowed p99 exceeded the target.
    pub violation_rounds: u64,
    /// Rounds the server participated in.
    pub rounds_run: u64,
    /// Mean granted cap over those rounds, watts.
    pub mean_cap_w: f64,
    /// The server's p99 target, seconds.
    pub p99_target_s: f64,
    /// All sojourn times, picosecond-bucketed.
    pub hist: Histogram,
    /// Simulated time the server reached.
    pub now: Ps,
}

impl ServiceOutcome {
    /// The `q`-quantile sojourn time in seconds (zero if no completions).
    pub fn percentile_s(&self, q: f64) -> f64 {
        self.hist.percentile(q) as f64 / 1e12
    }

    /// Whole-run p99 sojourn, seconds.
    pub fn p99_s(&self) -> f64 {
        self.percentile_s(0.99)
    }

    /// Whether the whole-run p99 met the server's target (vacuously true
    /// with no completions).
    pub fn meets_slo(&self) -> bool {
        self.hist.count() == 0 || self.p99_s() <= self.p99_target_s
    }
}

/// The closed-loop client population's final accounting.
#[derive(Clone, Debug)]
pub struct ClientSummary {
    /// Population size.
    pub clients: usize,
    /// Which client model carried the population.
    pub model: ClientModel,
    /// The balancing policy the front end ran.
    pub balance: BalancePolicy,
    /// Mean think time.
    pub mean_think: Ps,
    /// Requests the population issued.
    pub generated: u64,
    /// Responses delivered back (completions, sheds, churn abandonments).
    pub responses: u64,
    /// Clients thinking (or ready) when the horizon ended.
    pub thinking_at_end: usize,
    /// Clients whose request was still in a queue at the horizon.
    pub waiting_at_end: usize,
}

/// The multi-tier runtime's final accounting: DAG conservation counters,
/// lifetime critical-path attribution and the end-to-end sojourn
/// distribution of closed request DAGs.
#[derive(Clone, Debug)]
pub struct TierSummary {
    /// The tier graph, rendered (`Display` round-trips).
    pub graph: String,
    /// Tier names in request-flow order.
    pub tier_names: Vec<String>,
    /// The DAG tracker's lifetime conservation counters.
    pub stats: TraceStats,
    /// Lifetime critical-path time attributed to each tier, picoseconds.
    pub crit_total_ps: Vec<u64>,
    /// How often each tier was a closed DAG's slowest leg.
    pub slowest_counts: Vec<u64>,
    /// DAGs folded into the trace collector (non-failed closures).
    pub roots_recorded: u64,
    /// End-to-end sojourns of non-failed closed DAGs.
    pub e2e_hist: Histogram,
    /// The end-to-end p99 target, seconds.
    pub e2e_target_s: f64,
}

impl TierSummary {
    /// The `q`-quantile end-to-end sojourn in seconds (zero if no DAG
    /// closed).
    pub fn e2e_percentile_s(&self, q: f64) -> f64 {
        self.e2e_hist.percentile(q) as f64 / 1e12
    }

    /// Whole-run end-to-end p99, seconds.
    pub fn e2e_p99_s(&self) -> f64 {
        self.e2e_percentile_s(0.99)
    }

    /// Whether the end-to-end p99 met the target (vacuously true with no
    /// closures).
    pub fn meets_e2e_slo(&self) -> bool {
        self.e2e_hist.count() == 0 || self.e2e_p99_s() <= self.e2e_target_s
    }

    /// Lifetime per-tier share of critical-path time (all zeros before any
    /// closure).
    pub fn crit_shares(&self) -> Vec<f64> {
        let sum: u64 = self.crit_total_ps.iter().sum();
        if sum == 0 {
            return vec![0.0; self.crit_total_ps.len()];
        }
        self.crit_total_ps
            .iter()
            .map(|&c| c as f64 / sum as f64)
            .collect()
    }
}

/// Everything one serving-fleet simulation produces.
#[derive(Clone, Debug)]
pub struct ServiceResult {
    /// The splitting discipline that ran.
    pub split: CapSplit,
    /// The rendered budget topology the run started with, when
    /// hierarchical (churn may have reshaped it along the way).
    pub topology: Option<String>,
    /// The global budget, watts.
    pub global_cap_w: f64,
    /// Per-server outcomes: churn departures first (in departure order),
    /// then the final fleet in fleet order.
    pub outcomes: Vec<ServiceOutcome>,
    /// Coordination rounds executed.
    pub rounds: usize,
    /// Per-round granted caps (ragged: the fleet size may change), watts.
    pub cap_timeline: Vec<Vec<f64>>,
    /// The client population's accounting, when the run was closed-loop.
    pub closed_loop: Option<ClientSummary>,
    /// The multi-tier runtime's accounting, when tiers were configured.
    pub tiers: Option<TierSummary>,
}

impl ServiceResult {
    /// Total fleet energy, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.outcomes.iter().map(|o| o.energy_j).sum()
    }

    /// Total requests completed.
    pub fn total_completed(&self) -> u64 {
        self.outcomes.iter().map(|o| o.completed).sum()
    }

    /// Total requests shed.
    pub fn total_shed(&self) -> u64 {
        self.outcomes.iter().map(|o| o.shed).sum()
    }

    /// SLO-violation rounds summed over the fleet.
    pub fn total_violation_rounds(&self) -> u64 {
        self.outcomes.iter().map(|o| o.violation_rounds).sum()
    }

    /// The fleet-wide sojourn distribution (all servers merged).
    pub fn fleet_hist(&self) -> Histogram {
        let mut h = Histogram::new();
        for o in &self.outcomes {
            h.merge(&o.hist);
        }
        h
    }

    /// Fleet-wide `q`-quantile sojourn, seconds.
    pub fn fleet_percentile_s(&self, q: f64) -> f64 {
        self.fleet_hist().percentile(q) as f64 / 1e12
    }

    /// Whether every server met its whole-run p99 target.
    pub fn all_meet_slo(&self) -> bool {
        self.outcomes.iter().all(ServiceOutcome::meets_slo)
    }

    /// A bit-exact digest of every scheduling-sensitive number: per-server
    /// energies, caps, queue counters, full latency-bucket state and the
    /// cap timeline. Two runs of the same configuration must produce
    /// identical digests regardless of the worker thread count.
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "split={} topo={} cap={:016x} rounds={}\n",
            self.split,
            self.topology.as_deref().unwrap_or("flat"),
            self.global_cap_w.to_bits(),
            self.rounds
        );
        if let Some(cl) = &self.closed_loop {
            // The model marker is appended only for fluid runs so exact
            // digests stay byte-identical to their pre-fluid goldens.
            let model = match cl.model {
                ClientModel::Exact => "",
                ClientModel::Fluid => "fluid ",
            };
            let _ = writeln!(
                s,
                "closed {model}clients={} balance={} think={} generated={} responses={} \
                 thinking={} waiting={}",
                cl.clients,
                cl.balance,
                cl.mean_think.as_ps(),
                cl.generated,
                cl.responses,
                cl.thinking_at_end,
                cl.waiting_at_end,
            );
        }
        for o in &self.outcomes {
            let _ = writeln!(
                s,
                "{} departed={} energy={:016x} arrived={} done={} shed={} abandoned={} viol={} \
                 mean_cap={:016x} n={} p50={} p99={} p999={} now={}",
                o.name,
                o.departed,
                o.energy_j.to_bits(),
                o.arrived,
                o.completed,
                o.shed,
                o.abandoned,
                o.violation_rounds,
                o.mean_cap_w.to_bits(),
                o.hist.count(),
                o.hist.percentile(0.50),
                o.hist.percentile(0.99),
                o.hist.percentile(0.999),
                o.now.as_ps(),
            );
        }
        if let Some(t) = &self.tiers {
            let st = &t.stats;
            let _ = writeln!(
                s,
                "tiers graph={} roots={}/{}/{} spans={}/{}/{} open={}/{} dom={}",
                t.graph,
                st.roots_opened,
                st.roots_closed,
                st.roots_failed,
                st.spans_opened,
                st.spans_closed,
                st.spans_failed,
                st.open_roots,
                st.open_spans,
                st.sojourn_dominance,
            );
            let join = |xs: &[u64]| {
                xs.iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = writeln!(
                s,
                "tiers spawned={} completed={} crit={} slow={} recorded={}",
                join(&st.spawned_by_tier),
                join(&st.completed_by_tier),
                join(&t.crit_total_ps),
                join(&t.slowest_counts),
                t.roots_recorded,
            );
            let _ = writeln!(
                s,
                "tiers e2e n={} p50={} p99={} p999={} target={:016x}",
                t.e2e_hist.count(),
                t.e2e_hist.percentile(0.50),
                t.e2e_hist.percentile(0.99),
                t.e2e_hist.percentile(0.999),
                t.e2e_target_s.to_bits(),
            );
        }
        for (r, caps) in self.cap_timeline.iter().enumerate() {
            let _ = write!(s, "round {r}:");
            for c in caps {
                let _ = write!(s, " {:016x}", c.to_bits());
            }
            let _ = writeln!(s);
        }
        s
    }
}

/// The serving-fleet simulator. Build with a validated [`ServiceConfig`],
/// then call [`ServiceSim::run`].
pub struct ServiceSim {
    config: ServiceConfig,
    servers: Vec<ServiceServer>,
}

impl ServiceSim {
    /// Builds the initial fleet.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ServiceConfig) -> ServiceSim {
        if let Err(e) = config.validate() {
            panic!("invalid service config: {e}");
        }
        let n = config.servers.len().max(1);
        let initial = config.global_cap_w / n as f64;
        let servers = config
            .servers
            .iter()
            .map(|spec| {
                let mut s = ServiceServer::new(spec, initial);
                if config.closed_loop.is_some() {
                    s.set_closed_loop(Ps::ZERO);
                }
                s
            })
            .collect();
        ServiceSim { config, servers }
    }

    /// Runs the configured number of rounds, applying churn at round
    /// boundaries, and aggregates.
    ///
    /// Within a round servers are advanced on `config.threads` pool
    /// workers. Servers exchange state with the coordinator only at round
    /// barriers, so results are bit-identical for every thread count.
    pub fn run(self) -> ServiceResult {
        let rounds = self.config.rounds;
        let mut run = FleetRun::new(self);
        for round in 0..rounds {
            run.barrier(round);
        }
        run.finish()
    }
}

/// The whole moving state of one serving run. The per-barrier pipeline
/// (churn → telemetry → split → issue → serve → deliver) lives in
/// [`FleetRun::barrier`].
struct FleetRun {
    config: ServiceConfig,
    servers: Vec<ServiceServer>,
    workers: WorkerPool<ServiceServer>,
    churn: cluster::ChurnSchedule<crate::config::ServiceServerSpec>,
    // The budget tree churn reshapes: the configured topology, the tier
    // tree, or the one-group flat tree.
    tree: BudgetTree,
    // The rendered starting topology; `None` for a flat split.
    topology_spec: Option<String>,
    departures: Vec<ServiceOutcome>,
    cap_timeline: Vec<Vec<f64>>,
    // Closed-loop machinery: the client population, the front-end
    // balancer, and the fleet-global clock (round `r` spans
    // `[r·D, (r+1)·D)` where `D` is the uniform round duration —
    // validated for the initial fleet, asserted for churn joiners).
    closed: Option<crate::config::ClosedLoopConfig>,
    pool: Option<Box<dyn ClientPopulation>>,
    balancer: Option<LoadBalancer>,
    round_d: Ps,
    // `tree` compiled against the fleet order; recompiled on churn.
    splitter: HierSplitter,
    // The multi-tier runtime: request DAGs, trace aggregation, the
    // end-to-end histogram. `None` without a tier topology.
    tiers: Option<TierRuntime>,
}

/// The moving state of a multi-tier run: the tier graph, the in-flight
/// request DAGs, the windowed critical-path collector and the end-to-end
/// latency accounting.
struct TierRuntime {
    graph: TierGraph,
    floor_frac: f64,
    e2e_target_s: f64,
    dag: DagTracker,
    collector: TraceCollector,
    e2e_hist: Histogram,
    base_instrs: f64,
}

/// Fleet indices of the servers currently serving `tier`, in fleet order
/// (shard picks index into this list).
fn tier_members(graph: &TierGraph, servers: &[ServiceServer], tier: usize) -> Vec<usize> {
    servers
        .iter()
        .enumerate()
        .filter(|(_, s)| graph.tier_of(&s.server.name) == Some(tier))
        .map(|(i, _)| i)
        .collect()
}

impl FleetRun {
    fn new(sim: ServiceSim) -> FleetRun {
        let ServiceSim { config, servers } = sim;
        let epochs = config.epochs_per_round;
        let workers = WorkerPool::new(config.threads, move |s: &mut ServiceServer| {
            s.step_round(epochs)
        });
        let churn = config.churn.clone();
        let tiers = config.tiers.as_ref().map(|tc| {
            let seed = config
                .closed_loop
                .as_ref()
                .map(|cl| cl.seed ^ 0x7134_c0de)
                .unwrap_or(0x7134_c0de);
            let base_instrs = config
                .closed_loop
                .as_ref()
                .map(|cl| cl.mean_request_instrs)
                .unwrap_or(40_000.0);
            TierRuntime {
                graph: tc.graph.clone(),
                floor_frac: tc.floor_frac,
                e2e_target_s: tc.e2e_target_s,
                dag: DagTracker::new(&tc.graph, seed),
                collector: TraceCollector::new(tc.graph.n_tiers(), TRACE_WINDOW_ROUNDS),
                e2e_hist: Histogram::new(),
                base_instrs,
            }
        });
        let names: Vec<&str> = servers.iter().map(|s| s.server.name.as_str()).collect();
        // `ServiceConfig::validate` checked the tier tree.
        let topology = match &config.tiers {
            Some(tc) => Some(tc.budget_tree(config.split)),
            None => config.topology.clone(),
        };
        let topology_spec = topology.as_ref().map(|t| t.to_string());
        let tree = topology.unwrap_or_else(|| BudgetTree::flat(config.split, &names));
        let splitter = HierSplitter::new(&tree, &names);
        let closed = config.closed_loop.clone();
        let pool = closed.as_ref().map(|cl| -> Box<dyn ClientPopulation> {
            match cl.model {
                ClientModel::Exact => Box::new(ClientPool::new(cl)),
                ClientModel::Fluid => Box::new(FluidPool::new(cl)),
            }
        });
        let balancer = closed.as_ref().map(|cl| LoadBalancer::new(cl.balance));
        let round_d = config
            .servers
            .first()
            .map(|s| s.config.epoch * config.epochs_per_round as u64)
            .unwrap_or(Ps::ZERO);
        FleetRun {
            config,
            servers,
            workers,
            churn,
            tree,
            topology_spec,
            departures: Vec::new(),
            cap_timeline: Vec::new(),
            closed,
            pool,
            balancer,
            round_d,
            splitter,
            tiers,
        }
    }

    fn global_time(&self, round: usize) -> Ps {
        self.round_d * round as u64
    }

    /// One coordination barrier: churn, telemetry, cap split, closed-loop
    /// issue, one serving period on the worker pool, response delivery.
    fn barrier(&mut self, round: usize) {
        // --- churn: apply fleet changes due at this boundary ---
        let mut churned = false;
        for action in self.churn.drain_due(round) {
            churned = true;
            match action {
                ChurnAction::Join(spec) => {
                    // `ServiceConfig::validate` vetted every join: its
                    // spec, its epochs to the horizon, its tier and, under
                    // a closed loop, its epoch length.
                    //
                    // Joiners enter with a zero cap but participate in
                    // this same round's split, which grants their
                    // share immediately. They attach as direct children
                    // of the root group; under a tier topology they must
                    // name an existing tier and attach to that tier's
                    // group.
                    let group = self.tiers.as_ref().map(|t| {
                        let ti = t
                            .graph
                            .tier_of(&spec.name)
                            .expect("validated: churn joiners name a tier");
                        t.graph.tiers()[ti].name.clone()
                    });
                    if let Err(e) = self.tree.attach_server(&spec.name, group.as_deref()) {
                        panic!("churn join {}: {e}", spec.name);
                    }
                    let mut server = ServiceServer::new(&spec, 0.0);
                    if self.pool.is_some() {
                        server.set_closed_loop(self.global_time(round));
                    }
                    self.servers.push(server);
                }
                ChurnAction::Leave(name) => {
                    if let Some(i) = self.servers.iter().position(|s| s.server.name == name) {
                        let mut server = self.servers.remove(i);
                        // Closed loop: the departing server's queued
                        // requests are lost; their clients learn at
                        // this barrier and go back to thinking. Traced
                        // spans fail their DAG (the client learns when
                        // the root closes).
                        let orphans = server.abandon_queue();
                        let now = self.global_time(round);
                        for r in orphans {
                            match r.caller {
                                Some(Caller::Span(ctx)) => self
                                    .tiers
                                    .as_mut()
                                    .expect("traced request without tier runtime")
                                    .dag
                                    .fail(ctx, now),
                                Some(Caller::Client(client)) => self
                                    .pool
                                    .as_mut()
                                    .expect("client request without a population")
                                    .deliver(client, now),
                                None => {}
                            }
                        }
                        self.departures.push(server.into_outcome(true));
                        self.tree.remove_server(&name);
                    }
                }
            }
        }
        if churned {
            let names: Vec<&str> = self
                .servers
                .iter()
                .map(|s| s.server.name.as_str())
                .collect();
            self.splitter = HierSplitter::new(&self.tree, &names);
        }
        if self.servers.is_empty() {
            // Degenerate round: no caps, and no requests issued —
            // ready clients simply wait for the fleet to refill. DAGs
            // failed by the churn above still close and are delivered.
            self.cap_timeline.push(Vec::new());
            self.drain_traces();
            return;
        }

        // --- coordinate: telemetry in, caps out ---
        let demands: Vec<ServerDemand> = self
            .servers
            .iter_mut()
            .map(|s| s.server.status().demand)
            .collect();
        // SLA signals feed the split when latency matters to it: under a
        // topology (interior nodes may be SLA-aware) or flat SlaAware.
        let signals: Option<Vec<SlaSignal>> = (self.topology_spec.is_some()
            || self.config.split == CapSplit::SlaAware)
            .then(|| self.servers.iter().map(ServiceServer::sla_signal).collect());
        // Critical-path shares per server: every member of a tier carries
        // its tier's windowed share (all zeros while traces are sparse —
        // the discipline degrades to demand-proportional). Shares only
        // cover *sealed* rounds, so the signal — and the split — is
        // identical for any worker-thread count.
        let crit: Option<Vec<f64>> = self.tiers.as_ref().map(|t| {
            let shares = t.collector.shares();
            self.servers
                .iter()
                .map(|s| t.graph.tier_of(&s.server.name).map_or(0.0, |ti| shares[ti]))
                .collect()
        });
        // The budget flows down the tree with power, latency and
        // critical-path telemetry, so SLA-aware nodes react to their
        // subtree's worst violation ratio and critical-path nodes shift
        // budget toward the slowest tier.
        let sig = TreeSignals {
            sla: signals.as_deref(),
            crit: crit.as_deref(),
            tier_floor_frac: self.tiers.as_ref().map_or(0.0, |t| t.floor_frac),
        };
        let caps = self
            .splitter
            .split_signals(
                self.config.global_cap_w,
                &demands,
                &sig,
                self.config.quantum_w,
            )
            .unwrap_or_else(|e| panic!("budget tree split: {e}"));
        for (s, &cap) in self.servers.iter_mut().zip(&caps) {
            s.server.set_cap(cap);
        }

        // --- closed loop: issue the round's requests, each routed as it
        // streams out ---
        // Nothing holds the round's requests: each goes straight from the
        // population through the router into its server's pending queue.
        // The loads depend only on queue depths, demands and caps, none of
        // which issuing touches, so they are read before the first request.
        if let (Some(pool), Some(balancer)) = (self.pool.as_mut(), self.balancer.as_mut()) {
            let t0 = self.round_d * round as u64;
            let t1 = t0 + self.round_d;
            let loads: Vec<ServerLoad> = self
                .servers
                .iter()
                .zip(&demands)
                .zip(&caps)
                .map(|((server, demand), &cap_w)| ServerLoad {
                    demand: *demand,
                    cap_w,
                    queue_depth: server.queue_depth(),
                })
                .collect();
            let servers = &mut self.servers;
            if let Some(tr) = self.tiers.as_mut() {
                // Multi-tier: every client request opens a DAG and its
                // root span is routed over the *entry* tier only. The
                // request carries the span instead of the client — the
                // client lives in the DAG record and is released when the
                // root closes.
                let entry = tier_members(&tr.graph, servers, 0);
                let work0 = tr.graph.tiers()[0].work;
                let mut targets = balancer.route_within(&loads, &entry);
                pool.issue(t0, t1, &mut |req| {
                    let Some(Caller::Client(client)) = req.caller else {
                        panic!("closed-loop issue tags clients");
                    };
                    let ctx = tr.dag.open_root(client, req.arrival);
                    if entry.is_empty() {
                        // The entry tier churned away entirely: roots
                        // cannot be placed. Fail them at the barrier so
                        // their clients learn and go back to thinking.
                        tr.dag.fail(ctx, t0);
                        return;
                    }
                    let target = targets.next().expect("routes are endless");
                    servers[target].push_request(Request {
                        remaining_instrs: req.remaining_instrs * work0,
                        caller: Some(Caller::Span(ctx)),
                        ..req
                    });
                });
            } else {
                let mut targets = balancer.route(&loads);
                pool.issue(t0, t1, &mut |req| {
                    let target = targets.next().expect("routes are endless");
                    servers[target].push_request(req);
                });
            }
        }
        self.cap_timeline.push(caps);

        // --- serve one coordination period ---
        // The fleet crosses the pool by value; positions are restored by
        // index, so churn (which only happens between barriers) never sees
        // a hole.
        let mut slots: Vec<Option<ServiceServer>> = (0..self.servers.len()).map(|_| None).collect();
        let jobs = std::mem::take(&mut self.servers)
            .into_iter()
            .enumerate()
            .collect();
        self.workers.run(jobs, |i, s| slots[i] = Some(s));
        self.servers.extend(
            slots
                .into_iter()
                .map(|s| s.expect("server back from the pool")),
        );

        // --- closed loop: deliver the round's responses ---
        // Fleet order then event order — but each client draws from
        // its own stream and holds one request at a time, and traced
        // spans draw shard picks and sizes from per-span streams, so
        // delivery order cannot leak into the result beyond the (already
        // deterministic) span-id assignment order. Each server's events
        // drain in place: the buffer is taken out while a completed span
        // may push its children into any server, this one included, and
        // handed back with its capacity.
        if self.pool.is_some() {
            let next_start = self.global_time(round + 1);
            for i in 0..self.servers.len() {
                let offset = self.servers[i].clock_offset;
                let mut events = std::mem::take(&mut self.servers[i].events);
                for ev in events.drain(..) {
                    let at = ev.at + offset;
                    match ev.caller {
                        Caller::Span(ctx) => self.resolve_span(ctx, ev.resolution, at, next_start),
                        Caller::Client(client) => self
                            .pool
                            .as_mut()
                            .expect("checked above")
                            .deliver(client, at),
                    }
                }
                self.servers[i].events = events;
            }
            self.drain_traces();
        }
    }

    /// Handles one traced span's terminal event: completions spawn the
    /// next tier's fan-out of children (sharded by per-span PRNG streams,
    /// arriving at the next barrier), sheds fail the DAG.
    fn resolve_span(&mut self, ctx: topology::SpanCtx, res: Resolution, at: Ps, next_start: Ps) {
        let tr = self
            .tiers
            .as_mut()
            .expect("traced event without tier runtime");
        match res {
            Resolution::Completed => {
                for child in tr.dag.complete(ctx, at, next_start) {
                    let ti = child.tier as usize;
                    let members = tier_members(&tr.graph, &self.servers, ti);
                    if members.is_empty() {
                        // The child's whole tier churned away: the span
                        // cannot be placed, so the DAG fails.
                        tr.dag.fail(child, next_start);
                        continue;
                    }
                    let mut rng = tr.dag.child_rng(child);
                    let shard = members[rng.below(members.len() as u64) as usize];
                    let size = tr.base_instrs * tr.graph.tiers()[ti].work * (0.5 + rng.f64());
                    self.servers[shard].push_request(Request {
                        arrival: next_start,
                        remaining_instrs: size,
                        caller: Some(Caller::Span(child)),
                    });
                }
            }
            Resolution::Shed => tr.dag.fail(ctx, at),
        }
    }

    /// Drains DAGs that closed since the last call: releases their clients,
    /// records end-to-end sojourns and critical-path attributions for
    /// non-failed closures, and seals the trace collector's round.
    fn drain_traces(&mut self) {
        let Some(tr) = self.tiers.as_mut() else {
            return;
        };
        let pool = self.pool.as_mut().expect("tiers require a closed loop");
        for root in tr.dag.take_closed() {
            pool.deliver(root.client, root.close);
            if !root.failed {
                tr.e2e_hist.record(root.e2e().as_ps().max(1));
                tr.collector.record(&root.crit_ps);
            }
        }
        tr.collector.end_round();
    }

    fn finish(self) -> ServiceResult {
        let tiers = self.tiers.map(|t| TierSummary {
            graph: t.graph.to_string(),
            tier_names: t.graph.tiers().iter().map(|x| x.name.clone()).collect(),
            stats: t.dag.stats().clone(),
            crit_total_ps: t.collector.total_ps().to_vec(),
            slowest_counts: t.collector.slowest_counts().to_vec(),
            roots_recorded: t.collector.roots_recorded(),
            e2e_hist: t.e2e_hist,
            e2e_target_s: t.e2e_target_s,
        });
        let closed_loop = match (&self.closed, &self.pool) {
            (Some(cl), Some(pool)) => Some(ClientSummary {
                clients: pool.len(),
                model: cl.model,
                balance: cl.balance,
                mean_think: cl.mean_think,
                generated: pool.generated(),
                responses: pool.responses(),
                thinking_at_end: pool.thinking(),
                waiting_at_end: pool.waiting(),
            }),
            _ => None,
        };
        let mut outcomes = self.departures;
        outcomes.extend(self.servers.into_iter().map(|s| s.into_outcome(false)));
        ServiceResult {
            split: self.config.split,
            topology: self.topology_spec,
            global_cap_w: self.config.global_cap_w,
            outcomes,
            rounds: self.config.rounds,
            cap_timeline: self.cap_timeline,
            closed_loop,
            tiers,
        }
    }
}

/// Convenience: build and run a serving fleet in one call.
pub fn run_service(config: ServiceConfig) -> ServiceResult {
    ServiceSim::new(config).run()
}
