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
        let offset = config.closed_loop.as_ref().map(|_| Ps::ZERO);
        let servers = config
            .servers
            .iter()
            .map(|spec| ServiceServer::new(spec, initial, offset))
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
    // The configuration; its churn schedule drains as the run goes.
    config: ServiceConfig,
    servers: Vec<ServiceServer>,
    workers: WorkerPool<ServiceServer>,
    // The budget tree churn reshapes: the configured topology, the tier
    // tree, or the one-group flat tree.
    tree: BudgetTree,
    // The rendered starting topology; `None` for a flat split.
    topology_spec: Option<String>,
    departures: Vec<ServiceOutcome>,
    cap_timeline: Vec<Vec<f64>>,
    // The fleet-global clock: round `r` spans `[r·D, (r+1)·D)` where `D`
    // is the uniform round duration (validated for the initial fleet and
    // for churn joiners under a closed loop).
    round_d: Ps,
    // `tree` compiled against the fleet order; recompiled on churn.
    splitter: HierSplitter,
    closed_loop: Option<ClosedLoop>,
}

/// A closed loop's moving parts: the client population, the front-end
/// balancer and, under a tier topology, the multi-tier runtime.
struct ClosedLoop {
    pool: Box<dyn ClientPopulation>,
    balancer: LoadBalancer,
    tiers: Option<TierRuntime>,
}

/// The moving state of a multi-tier run: the tier graph, the in-flight
/// request DAGs, the windowed critical-path collector and the end-to-end
/// latency accounting.
struct TierRuntime {
    graph: TierGraph,
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
        let names: Vec<&str> = servers.iter().map(|s| s.server.name.as_str()).collect();
        // `ServiceConfig::validate` checked the tier tree.
        let topology = match &config.tiers {
            Some(tc) => Some(tc.budget_tree(config.split)),
            None => config.topology.clone(),
        };
        let topology_spec = topology.as_ref().map(|t| t.to_string());
        let tree = topology.unwrap_or_else(|| BudgetTree::flat(config.split, &names));
        let splitter = HierSplitter::new(&tree, &names);
        // `ServiceConfig::validate` gives tiers a closed loop.
        let closed_loop = config.closed_loop.as_ref().map(|cl| ClosedLoop {
            pool: match cl.model {
                ClientModel::Exact => Box::new(ClientPool::new(cl)),
                ClientModel::Fluid => Box::new(FluidPool::new(cl)),
            },
            balancer: LoadBalancer::new(cl.balance),
            tiers: config.tiers.as_ref().map(|tc| TierRuntime {
                graph: tc.graph.clone(),
                dag: DagTracker::new(&tc.graph, cl.seed ^ 0x7134_c0de),
                collector: TraceCollector::new(tc.graph.n_tiers(), TRACE_WINDOW_ROUNDS),
                e2e_hist: Histogram::new(),
                base_instrs: cl.mean_request_instrs,
            }),
        });
        let round_d = config
            .servers
            .first()
            .map(|s| s.config.epoch * config.epochs_per_round as u64)
            .unwrap_or(Ps::ZERO);
        FleetRun {
            config,
            servers,
            workers,
            tree,
            topology_spec,
            departures: Vec::new(),
            cap_timeline: Vec::new(),
            round_d,
            splitter,
            closed_loop,
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
        for action in self.config.churn.drain_due(round) {
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
                    let group = self.config.tiers.as_ref().map(|tc| {
                        let ti = tc
                            .graph
                            .tier_of(&spec.name)
                            .expect("validated: churn joiners name a tier");
                        tc.graph.tiers()[ti].name.clone()
                    });
                    if let Err(e) = self.tree.attach_server(&spec.name, group.as_deref()) {
                        panic!("churn join {}: {e}", spec.name);
                    }
                    let offset = self.closed_loop.as_ref().map(|_| self.global_time(round));
                    self.servers.push(ServiceServer::new(&spec, 0.0, offset));
                }
                ChurnAction::Leave(name) => {
                    let i = self
                        .servers
                        .iter()
                        .position(|s| s.server.name == name)
                        .expect("validated: a leave names a live server");
                    let mut server = self.servers.remove(i);
                    // Closed loop: the departing server's queued
                    // requests are lost and released like shed ones,
                    // at this barrier: a client goes back to
                    // thinking, a traced span fails its DAG (the
                    // client learns when the root closes).
                    let orphans = server.abandon_queue();
                    let now = self.global_time(round);
                    if let Some(cl) = self.closed_loop.as_mut() {
                        for caller in orphans {
                            cl.release(caller, Resolution::Shed, now, now, &mut self.servers);
                        }
                    }
                    self.departures.push(server.into_outcome(true));
                    self.tree.remove_server(&name);
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
            if let Some(cl) = self.closed_loop.as_mut() {
                cl.drain_traces();
            }
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
        let tiers = self.closed_loop.as_ref().and_then(|cl| cl.tiers.as_ref());
        let crit: Option<Vec<f64>> = tiers.map(|t| {
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
            tier_floor_frac: self.config.tiers.as_ref().map_or(0.0, |tc| tc.floor_frac),
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
        if let Some(ClosedLoop {
            pool,
            balancer,
            tiers,
        }) = self.closed_loop.as_mut()
        {
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
            if let Some(tr) = tiers {
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
        // are taken out, so a completed span may push its children into
        // any server, this one included, and dropped once delivered.
        let next_start = self.global_time(round + 1);
        if let Some(cl) = self.closed_loop.as_mut() {
            for i in 0..self.servers.len() {
                let offset = self.servers[i].clock_offset;
                for ev in std::mem::take(&mut self.servers[i].events) {
                    let at = ev.at + offset;
                    cl.release(ev.caller, ev.resolution, at, next_start, &mut self.servers);
                }
            }
            cl.drain_traces();
        }
    }

    fn finish(self) -> ServiceResult {
        let (summary, tiers) = match self.closed_loop.zip(self.config.closed_loop.as_ref()) {
            Some((ClosedLoop { pool, tiers, .. }, cfg)) => (
                Some(ClientSummary {
                    clients: pool.len(),
                    model: cfg.model,
                    balance: cfg.balance,
                    mean_think: cfg.mean_think,
                    generated: pool.generated(),
                    responses: pool.responses(),
                    thinking_at_end: pool.thinking(),
                    waiting_at_end: pool.waiting(),
                }),
                tiers
                    .zip(self.config.tiers.as_ref())
                    .map(|(t, tc)| TierSummary {
                        graph: t.graph.to_string(),
                        tier_names: t.graph.tiers().iter().map(|x| x.name.clone()).collect(),
                        stats: t.dag.stats().clone(),
                        crit_total_ps: t.collector.total_ps().to_vec(),
                        slowest_counts: t.collector.slowest_counts().to_vec(),
                        roots_recorded: t.collector.roots_recorded(),
                        e2e_hist: t.e2e_hist,
                        e2e_target_s: tc.e2e_target_s,
                    }),
            ),
            None => (None, None),
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
            closed_loop: summary,
            tiers,
        }
    }
}

impl ClosedLoop {
    /// Releases whoever waits on one request that reached `resolution` at
    /// `at`: a client hears at once; a completed span spawns the next
    /// tier's fan-out of children into `servers` (sharded by per-span
    /// PRNG streams, arriving at `next_start`); a shed span fails its DAG.
    /// A request abandoned by a departing server is released as shed.
    fn release(
        &mut self,
        caller: Caller,
        resolution: Resolution,
        at: Ps,
        next_start: Ps,
        servers: &mut [ServiceServer],
    ) {
        let ctx = match caller {
            Caller::Client(client) => return self.pool.deliver(client, at),
            Caller::Span(ctx) => ctx,
        };
        let tr = self
            .tiers
            .as_mut()
            .expect("spans travel under a tier runtime");
        if resolution == Resolution::Shed {
            return tr.dag.fail(ctx, at);
        }
        for child in tr.dag.complete(ctx, at, next_start) {
            let ti = child.tier as usize;
            let members = tier_members(&tr.graph, servers, ti);
            if members.is_empty() {
                // The child's whole tier churned away: the span cannot be
                // placed, so the DAG fails.
                tr.dag.fail(child, next_start);
                continue;
            }
            let mut rng = tr.dag.child_rng(child);
            let shard = members[rng.below(members.len() as u64) as usize];
            let size = tr.base_instrs * tr.graph.tiers()[ti].work * (0.5 + rng.f64());
            servers[shard].push_request(Request {
                arrival: next_start,
                remaining_instrs: size,
                caller: Some(Caller::Span(child)),
            });
        }
    }

    /// Drains DAGs that closed since the last call: releases their clients,
    /// records end-to-end sojourns and critical-path attributions for
    /// non-failed closures, and seals the trace collector's round.
    fn drain_traces(&mut self) {
        let Some(tr) = self.tiers.as_mut() else {
            return;
        };
        for root in tr.dag.take_closed() {
            self.pool.deliver(root.client, root.close);
            if !root.failed {
                tr.e2e_hist.record(root.e2e().as_ps().max(1));
                tr.collector.record(&root.crit_ps);
            }
        }
        tr.collector.end_round();
    }
}

/// Convenience: build and run a serving fleet in one call.
pub fn run_service(config: ServiceConfig) -> ServiceResult {
    ServiceSim::new(config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClosedLoopConfig, ServiceServerSpec};

    /// The barrier drops each server's events once it has delivered them,
    /// so round 0's flash crowd leaves no event capacity behind.
    #[test]
    fn a_barrier_frees_the_events_it_delivers() {
        let fleet = (0..2)
            .map(|i| ServiceServerSpec::small(&format!("s{i}"), "MID1", i, 0.0))
            .collect();
        let crowd = 4096;
        let config = ServiceConfig::new(fleet, 120.0, CapSplit::FastCap)
            .with_rounds(1)
            .with_closed_loop(ClosedLoopConfig::new(
                crowd,
                Ps::from_us(100),
                BalancePolicy::RoundRobin,
            ));
        let mut run = FleetRun::new(ServiceSim::new(config));
        run.barrier(0);
        let closed = run.closed_loop.as_ref().expect("a closed loop");
        // Each server sheds all but a queue's worth of its half.
        assert!(closed.pool.responses() >= (crowd - 2 * 512) as u64);
        for s in &run.servers {
            assert_eq!(s.events.capacity(), 0, "{}", s.server.name);
        }
    }
}
