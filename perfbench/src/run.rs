//! One measured repetition of one workload, in a child process: the
//! untraced run that end-to-end metrics come from, the traced run that
//! per-layer metrics come from, and the checks both must pass.

use crate::fleet;
use crate::speed;
use crate::stats::{median, quantile, tail_q};
use crate::trace::{self_times, Span, Tracer};
use crate::workload::Setup;
use cluster::{ClusterConfig, ClusterResult, ClusterSim};
use coscale::{make_policy, Model, Plan, Policy, PolicyKind, RunResult, Runner};
use service::{ServiceResult, ServiceSim};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The worst per-application slowdown CoScale may show against the
/// all-max baseline: γ = 10% plus the model's 1.5-point tolerance.
pub const MAX_DEGRADATION: f64 = 0.115;

/// MPKI of the paper's Table 1 for the mixes the paper workloads run.
const TABLE1_MPKI: [(&str, f64); 2] = [("MEM1", 18.2), ("ILP1", 0.37)];

/// What one repetition measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Host-time metrics: `(name, value, unit)`.
    pub host: Vec<(&'static str, f64, &'static str)>,
    /// Simulated outputs, identical for every run of one seed.
    pub sim: Vec<(&'static str, f64, &'static str)>,
    /// FNV-1a hash of the result digest.
    pub digest: u64,
    /// `(name, passed, detail)`.
    pub checks: Vec<(&'static str, bool, String)>,
    /// Per-core completion times, picoseconds (paper workloads).
    pub completion: Vec<u64>,
}

impl Report {
    fn host(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.host.push((name, value, unit));
    }

    fn sim(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.sim.push((name, value, unit));
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push((name, ok, detail));
    }

    /// Records the measured run and set-up times, and the same times
    /// normalized by the reference `bursts` timed alongside the run (see
    /// [`speed`]) together with the time per server-epoch; returns the
    /// normalized run time. Call after the simulated outputs, which carry
    /// the epoch count.
    fn host_times(&mut self, wall_run_s: f64, wall_setup_s: f64, bursts: &[f64]) -> f64 {
        let epochs = self
            .sim
            .iter()
            .find(|s| s.0 == "server_epochs")
            .map_or(f64::NAN, |s| s.1);
        let k = speed::factor(bursts);
        let run_s = wall_run_s * k;
        self.host("run_s", run_s, "s");
        self.host("server_epoch_us", run_s * 1e6 / epochs, "us");
        self.host("setup_s", wall_setup_s * k, "s");
        self.host("wall_run_s", wall_run_s, "s");
        self.host("wall_setup_s", wall_setup_s, "s");
        self.host("reference_ms", median(bursts) * 1e3, "ms");
        run_s
    }
}

/// 64-bit FNV-1a, the hash the goldens are kept in.
pub fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Bench-side digest of a single-server result: everything the paper's
/// figures read, bit-exact.
pub fn run_digest(r: &RunResult) -> String {
    let completion: Vec<u64> = r.completion.iter().map(|c| c.as_ps()).collect();
    format!(
        "policy={} mix={} epochs={} makespan={} cpu={:016x} l2={:016x} mem={:016x} \
         rest={:016x} mpki={:016x} completion={completion:?}",
        r.policy,
        r.mix,
        r.epochs,
        r.makespan.as_ps(),
        r.cpu_energy_j.to_bits(),
        r.l2_energy_j.to_bits(),
        r.mem_energy_j.to_bits(),
        r.rest_energy_j.to_bits(),
        r.mpki.to_bits(),
    )
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Constructions per untraced run; set-up time is their median.
const SETUPS: usize = 3;

/// Times one construction from a fresh copy of `cfg`.
fn build_timed<C: Clone, T>(cfg: &C, build: impl Fn(C) -> T) -> (T, f64) {
    let c = cfg.clone();
    let t = Instant::now();
    let built = build(c);
    (built, secs(t))
}

/// The median set-up time over `first` and [`SETUPS`]` - 1` further
/// constructions, each dropped before the next. They run after the timed
/// run, so the run always starts on the first construction of the process.
fn setup_median<C: Clone, T>(cfg: &C, first: f64, build: impl Fn(C) -> T) -> f64 {
    let mut times = vec![first];
    for _ in 1..SETUPS {
        times.push(build_timed(cfg, &build).1);
    }
    median(&times)
}

/// The untraced run: setup and run timed from outside, then checked.
/// `baseline` carries the all-max completion times a paper run's slowdown
/// is judged against.
///
/// Reference bursts are timed where the work runs: on a single-threaded
/// paper run, between epochs on the simulation's own thread (outside the
/// timed epochs); on a multi-threaded fleet, by a [`speed::Sampler`]
/// sharing the cores with the workers.
pub fn untraced(setup: Setup, baseline: Option<&[u64]>) -> Report {
    let mut rep = Report::default();
    match setup {
        Setup::Paper(cfg) => {
            let build = |c| Runner::new(c, PolicyKind::CoScale);
            let (mut runner, first) = build_timed(&cfg, build);
            let mut reference = speed::Reference::default();
            let mut bursts = Vec::new();
            let mut run_s = 0.0;
            while !runner.is_done() {
                let t = Instant::now();
                runner.step_epoch();
                run_s += secs(t);
                bursts.push(reference.burst());
            }
            let t = Instant::now();
            let instrs: u64 = runner.system().instrs().iter().sum();
            let r = runner.finalize();
            run_s += secs(t);
            let rss = peak_rss_mb();
            let setup_s = setup_median(&cfg, first, build);
            paper_outputs(&mut rep, &r, baseline);
            let run_s = rep.host_times(run_s, setup_s, &bursts);
            rep.host("sim_minstr_per_s", instrs as f64 / 1e6 / run_s, "Minstr/s");
            rep.host("peak_rss_mb", rss, "MB");
        }
        Setup::Fleet(cfg) => {
            let shape = FleetShape::of(&cfg);
            let (sim, first) = build_timed(&cfg, ClusterSim::new);
            let sampler = speed::Sampler::start();
            let t = Instant::now();
            let r = sim.run();
            let run_s = secs(t);
            let bursts = sampler.finish();
            let rss = peak_rss_mb();
            let setup_s = setup_median(&cfg, first, ClusterSim::new);
            let instrs: u64 = r.outcomes.iter().map(|o| o.total_target_instrs).sum();
            fleet_outputs(&mut rep, &r, &shape);
            let run_s = rep.host_times(run_s, setup_s, &bursts);
            rep.host("sim_minstr_per_s", instrs as f64 / 1e6 / run_s, "Minstr/s");
            rep.host("peak_rss_mb", rss, "MB");
        }
        Setup::Serve(cfg) => {
            let epochs_per_round = cfg.epochs_per_round;
            let (sim, first) = build_timed(&cfg, ServiceSim::new);
            let sampler = speed::Sampler::start();
            let t = Instant::now();
            let r = sim.run();
            let run_s = secs(t);
            let bursts = sampler.finish();
            let rss = peak_rss_mb();
            let setup_s = setup_median(&cfg, first, ServiceSim::new);
            let responses = r.closed_loop.as_ref().map_or(0, |c| c.responses);
            serve_outputs(&mut rep, &r, epochs_per_round);
            let run_s = rep.host_times(run_s, setup_s, &bursts);
            rep.host("requests_per_s", responses as f64 / run_s, "req/s");
            rep.host("peak_rss_mb", rss, "MB");
        }
    }
    rep
}

/// The traced run: the same simulation driven through the benchmark's
/// own instrumented loops, with every layer boundary recorded in `tr`.
pub fn traced(setup: Setup, baseline: Option<&[u64]>, tr: &Arc<Tracer>) -> Report {
    let mut rep = Report::default();
    match setup {
        Setup::Paper(cfg) => traced_paper(&mut rep, cfg, baseline, tr),
        Setup::Fleet(cfg) => {
            let shape = FleetShape::of(&cfg);
            let (r, shadow) = fleet::traced(cfg, tr);
            fleet_layers(&mut rep, &tr.spans(), &r, &shadow);
            // The plane funds each increase from the float remainder of the
            // budget, which can fall a few ulps short of a direct split once
            // the budget is fully spent; anything beyond rounding is a bug.
            rep.check(
                "shadow_split_matches_barrier",
                shadow.max_rel_dev <= 1e-9,
                if shape.loopback {
                    format!(
                        "{} of {} caps bit-identical, max relative deviation {:e}",
                        shadow.exact, shadow.compared, shadow.max_rel_dev
                    )
                } else {
                    "not compared: lossy plane".into()
                },
            );
            fleet_outputs(&mut rep, &r, &shape);
        }
        Setup::Serve(cfg) => {
            let epochs_per_round = cfg.epochs_per_round;
            let sim = tr.span(0, "setup", |_| ServiceSim::new(cfg));
            let r = tr.span(0, "run", |_| sim.run());
            serve_layers(&mut rep, &tr.spans(), &r);
            serve_outputs(&mut rep, &r, epochs_per_round);
        }
    }
    let spans = tr.spans();
    let l = Layers::new(&spans);
    rep.host("trace.root_s", l.root("run"), "s");
    // Folded from +0.0: an empty float sum is -0.0.
    let split_s = l.durations("cluster.split").iter().fold(0.0, |a, b| a + b);
    rep.host("trace.split_s", split_s, "s");
    rep.host("trace.spans", spans.len() as f64, "count");
    rep
}

/// The `Policy` wrapper the traced paper driver passes through
/// `Runner::with_policy`: it logs each decision's interval.
struct TimedPolicy {
    inner: Box<dyn Policy>,
    tracer: Arc<Tracer>,
    log: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl Policy for TimedPolicy {
    fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }

    fn needs_oracle(&self) -> bool {
        self.inner.needs_oracle()
    }

    fn decide(&mut self, model: &Model<'_>, current: &Plan) -> Plan {
        let start = self.tracer.now();
        let plan = self.inner.decide(model, current);
        let end = self.tracer.now();
        self.log
            .lock()
            .expect("decide log poisoned")
            .push((start, end));
        plan
    }
}

fn traced_paper(
    rep: &mut Report,
    cfg: coscale::SimConfig,
    baseline: Option<&[u64]>,
    tr: &Arc<Tracer>,
) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let policy = TimedPolicy {
        inner: make_policy(PolicyKind::CoScale),
        tracer: Arc::clone(tr),
        log: Arc::clone(&log),
    };
    let mut runner = tr.span(0, "setup", |_| {
        Runner::new(cfg, PolicyKind::CoScale).with_policy(Box::new(policy))
    });
    let (r, instrs, counts) = tr.span(0, "run", |run| {
        while !runner.is_done() {
            let step = tr.span(run, "coscale.step_epoch", |id| {
                runner.step_epoch();
                id
            });
            for (start, end) in log.lock().expect("decide log poisoned").drain(..) {
                tr.record(step, "coscale.decide", start, end);
            }
        }
        let sys = runner.system();
        let l2 = sys.l2().stats();
        let mem = sys.mem().counters();
        let counts = [
            ("cpusim.l2_accesses", (l2.hits + l2.misses) as f64, "count"),
            ("cpusim.l2_misses", l2.misses as f64, "count"),
            ("memsim.reads", mem.reads as f64, "count"),
            ("memsim.writes", mem.writes as f64, "count"),
            ("memsim.row_hits", mem.row_hits as f64, "count"),
            (
                "memsim.bank_wait_us",
                mem.bank_wait_sum.as_secs_f64() * 1e6,
                "sim_us",
            ),
            (
                "memsim.bus_wait_us",
                mem.bus_wait_sum.as_secs_f64() * 1e6,
                "sim_us",
            ),
        ];
        let instrs: u64 = sys.instrs().iter().sum();
        (runner.finalize(), instrs, counts)
    });

    let spans = tr.spans();
    let l = Layers::new(&spans);
    let run = l.root("run");
    let steps = l.durations("coscale.step_epoch");
    let decides = l.durations("coscale.decide");
    let decide_s: f64 = decides.iter().sum();
    let cyclesim_s = l.self_sum("coscale.step_epoch");
    rep.host("coscale.epochs", steps.len() as f64, "count");
    percentiles(
        rep,
        &steps,
        1e3,
        ["coscale.step_epoch_ms_p50", "coscale.step_epoch_ms_tail"],
        "ms",
    );
    percentiles(
        rep,
        &decides,
        1e6,
        ["coscale.decide_us_p50", "coscale.decide_us_tail"],
        "us",
    );
    rep.host("coscale.decide_s", decide_s, "s");
    rep.host("coscale.decide_share", decide_s / run, "fraction");
    rep.host("cyclesim.self_s", cyclesim_s, "s");
    rep.host("cyclesim.share", cyclesim_s / run, "fraction");
    rep.host(
        "cyclesim.ns_per_kinstr",
        cyclesim_s * 1e9 / (instrs as f64 / 1e3),
        "ns",
    );
    rep.host("cpusim.instrs", instrs as f64, "count");
    for (name, v, unit) in counts {
        rep.host(name, v, unit);
    }
    paper_outputs(rep, &r, baseline);
}

fn paper_outputs(rep: &mut Report, r: &RunResult, baseline: Option<&[u64]>) {
    rep.digest = fnv(&run_digest(r));
    rep.completion = r.completion.iter().map(|c| c.as_ps()).collect();
    rep.sim("energy_j", r.total_energy_j(), "J");
    rep.sim("makespan_ms", r.makespan.as_secs_f64() * 1e3, "ms");
    rep.sim("server_epochs", r.epochs as f64, "count");
    rep.sim("mpki", r.mpki, "1/kinstr");
    if let Some(&(_, paper)) = TABLE1_MPKI.iter().find(|(m, _)| *m == r.mix) {
        rep.sim("mpki_err_vs_table1", r.mpki / paper - 1.0, "fraction");
    }
    if let Some(base) = baseline {
        let worst = r
            .completion
            .iter()
            .zip(base)
            .map(|(t, &b)| t.as_ps() as f64 / b as f64 - 1.0)
            .fold(f64::NEG_INFINITY, f64::max);
        rep.sim("worst_degradation", worst, "fraction");
        rep.check(
            "paper_worst_degradation",
            base.len() == r.completion.len() && worst <= MAX_DEGRADATION,
            format!("worst slowdown {:.4} vs bound {MAX_DEGRADATION}", worst),
        );
    }
}

/// The all-max baseline a paper workload's slowdown is measured against.
pub fn baseline(setup: Setup) -> Report {
    let Setup::Paper(cfg) = setup else {
        panic!("only paper workloads have an all-max baseline");
    };
    let r = coscale::run_policy(cfg, PolicyKind::StaticMax);
    let mut rep = Report {
        completion: r.completion.iter().map(|c| c.as_ps()).collect(),
        ..Report::default()
    };
    rep.sim("mpki", r.mpki, "1/kinstr");
    rep
}

/// The fleet facts the checks need after the config is consumed.
struct FleetShape {
    budget_w: f64,
    servers: usize,
    floor_w: f64,
    loopback: bool,
}

impl FleetShape {
    fn of(cfg: &ClusterConfig) -> FleetShape {
        FleetShape {
            budget_w: cfg.global_cap_w,
            servers: cfg.servers.len(),
            floor_w: cfg.rpc.floor_cap_w,
            loopback: cfg.rpc.is_loopback(),
        }
    }
}

fn fleet_outputs(rep: &mut Report, r: &ClusterResult, shape: &FleetShape) {
    rep.digest = fnv(&r.digest());
    rep.sim("energy_j", r.total_energy_j(), "J");
    rep.sim("makespan_ms", r.makespan().as_secs_f64() * 1e3, "ms");
    rep.sim("rounds", r.rounds as f64, "count");
    let epochs: usize = r.outcomes.iter().map(|o| o.result.epochs).sum();
    rep.sim("server_epochs", epochs as f64, "count");
    rep.sim("cap_violations", r.total_violations() as f64, "count");
    // In-force caps may exceed the budget only by the floors of leases
    // that expired unrenewed.
    let limit = shape.budget_w + shape.servers as f64 * shape.floor_w + 1e-6;
    let worst = r
        .cap_timeline
        .iter()
        .map(|caps| caps.iter().sum::<f64>())
        .fold(0.0, f64::max);
    rep.check(
        "fleet_caps_within_budget_plus_floors",
        worst <= limit,
        format!("max in-force sum {worst:.3} W vs limit {limit:.3} W"),
    );
}

fn fleet_layers(rep: &mut Report, spans: &[Span], r: &ClusterResult, shadow: &fleet::ShadowStats) {
    let l = Layers::new(spans);
    let run = l.root("run");
    let split = l.durations("cluster.split");
    let barrier = l.durations("ctrlplane.barrier");
    let steps = l.durations("server.step_round");
    let pool_run: f64 = l.durations("engine.pool_run").iter().sum();
    let step_busy: f64 = steps.iter().sum();
    let split_s: f64 = split.iter().sum();
    let barrier_s: f64 = barrier.iter().sum();
    // The shadow split is extra work the untraced run does not do; shares
    // are of the run without it. The plane's own split runs inside the
    // barrier, so the barrier's self time is its duration minus the split.
    let base = run - split_s;
    rep.host("engine.barriers", barrier.len() as f64, "count");
    rep.host("engine.server_steps", steps.len() as f64, "count");
    rep.host(
        "engine.awake_mean",
        steps.len() as f64 / barrier.len().max(1) as f64,
        "count",
    );
    rep.host("engine.pool_run_s", pool_run, "s");
    rep.host("engine.step_busy_s", step_busy, "s");
    rep.host(
        "engine.pool_idle_frac",
        1.0 - step_busy / (crate::workload::THREADS as f64 * pool_run),
        "fraction",
    );
    percentiles(
        rep,
        &steps,
        1e6,
        ["server.step_round_us_p50", "server.step_round_us_tail"],
        "us",
    );
    rep.host(
        "server.status_s",
        l.durations("server.status").iter().sum(),
        "s",
    );
    rep.host("ctrlplane.barrier_s", barrier_s, "s");
    percentiles(
        rep,
        &barrier,
        1e3,
        ["ctrlplane.barrier_ms_p50", "ctrlplane.barrier_ms_tail"],
        "ms",
    );
    rep.host(
        "ctrlplane.barrier_share",
        (barrier_s - split_s).max(0.0) / base,
        "fraction",
    );
    rep.host("cyclesim.share", pool_run / base, "fraction");
    rep.host(
        "cluster.server_new_us",
        median(&l.durations("cluster.server_new")) * 1e6,
        "us",
    );
    rep.host("cluster.split_s", split_s, "s");
    percentiles(
        rep,
        &split,
        1e3,
        ["cluster.split_ms_p50", "cluster.split_ms_tail"],
        "ms",
    );
    rep.host("cluster.split_share", split_s / base, "fraction");
    rep.host(
        "hiercache.node_hit_ratio",
        shadow.node_hits as f64 / (shadow.node_hits + shadow.node_misses).max(1) as f64,
        "fraction",
    );
    let c = &r.control;
    let refused = c.grants_stale + c.grants_expired;
    for (name, v) in [
        ("netsim.msgs_sent", c.plane.sent),
        ("netsim.msgs_delivered", c.plane.delivered),
        (
            "netsim.msgs_dropped",
            c.plane.dropped_loss + c.plane.dropped_partition,
        ),
        ("netsim.msgs_duplicated", c.plane.duplicated),
        ("ctrlplane.grants_sent", c.grants_sent),
        ("ctrlplane.grants_applied", c.grants_applied),
        ("ctrlplane.grants_refused", refused),
        ("ctrlplane.lease_expirations", c.lease_expirations),
        ("ctrlplane.floor_rounds", c.floor_rounds),
        ("ctrlplane.elections", c.elections),
    ] {
        rep.host(name, v as f64, "count");
    }
    rep.host(
        "ctrlplane.grant_apply_ratio",
        c.grants_applied as f64 / c.grants_sent.max(1) as f64,
        "fraction",
    );
}

fn serve_outputs(rep: &mut Report, r: &ServiceResult, epochs_per_round: usize) {
    rep.digest = fnv(&r.digest());
    let cl = r
        .closed_loop
        .as_ref()
        .expect("serve workloads are closed-loop");
    let server_rounds: u64 = r.outcomes.iter().map(|o| o.rounds_run).sum();
    rep.sim(
        "server_epochs",
        (server_rounds * epochs_per_round as u64) as f64,
        "count",
    );
    rep.sim("energy_j", r.total_energy_j(), "J");
    rep.sim("responses", cl.responses as f64, "count");
    rep.sim(
        "shed_frac",
        r.total_shed() as f64 / cl.generated.max(1) as f64,
        "fraction",
    );
    match &r.tiers {
        None => {
            rep.sim("p99_ms", r.fleet_percentile_s(0.99) * 1e3, "ms");
            let terminal: u64 = r
                .outcomes
                .iter()
                .map(|o| o.completed + o.shed + o.abandoned)
                .sum();
            let arrived: u64 = r.outcomes.iter().map(|o| o.arrived).sum();
            rep.check(
                "requests_conserved",
                cl.generated == terminal
                    && cl.generated == arrived
                    && cl.responses + cl.waiting_at_end as u64 == cl.generated
                    && r.fleet_hist().count() == r.total_completed(),
                format!(
                    "generated {} terminal {terminal} arrived {arrived} responses {} waiting {}",
                    cl.generated, cl.responses, cl.waiting_at_end
                ),
            );
        }
        Some(t) => {
            rep.sim("e2e_p99_ms", t.e2e_p99_s() * 1e3, "ms");
            let s = &t.stats;
            let fanouts: Vec<u64> = t
                .graph
                .parse::<service::TierGraph>()
                .expect("rendered graph parses")
                .fanouts()
                .iter()
                .map(|&f| f as u64)
                .collect();
            let fanout_ok = (1..fanouts.len())
                .all(|k| s.spawned_by_tier[k] == s.completed_by_tier[k - 1] * fanouts[k]);
            rep.check(
                "dags_conserved",
                s.roots_opened == s.roots_closed + s.open_roots
                    && s.spans_opened == s.spans_closed + s.open_spans
                    && fanout_ok
                    && s.sojourn_dominance
                    && t.e2e_hist.count() == s.roots_closed - s.roots_failed
                    && cl.generated == s.roots_opened
                    && cl.responses == s.roots_closed
                    && cl.waiting_at_end as u64 == s.open_roots,
                format!(
                    "roots {}/{}/{} spans {}/{}/{} fan-out {fanout_ok}",
                    s.roots_opened,
                    s.roots_closed,
                    s.open_roots,
                    s.spans_opened,
                    s.spans_closed,
                    s.open_spans
                ),
            );
        }
    }
    rep.check(
        "population_conserved",
        cl.thinking_at_end + cl.waiting_at_end == cl.clients,
        format!(
            "thinking {} + waiting {} vs {} clients",
            cl.thinking_at_end, cl.waiting_at_end, cl.clients
        ),
    );
}

fn serve_layers(rep: &mut Report, spans: &[Span], r: &ServiceResult) {
    let l = Layers::new(spans);
    let run = l.root("run");
    let cl = r
        .closed_loop
        .as_ref()
        .expect("serve workloads are closed-loop");
    let server_rounds: u64 = r.outcomes.iter().map(|o| o.rounds_run).sum();
    rep.host("service.rounds", r.rounds as f64, "count");
    rep.host("service.server_rounds", server_rounds as f64, "count");
    rep.host(
        "service.us_per_server_round",
        run * 1e6 / server_rounds as f64,
        "us",
    );
    rep.host("service.requests_generated", cl.generated as f64, "count");
    rep.host(
        "service.requests_completed",
        r.total_completed() as f64,
        "count",
    );
    rep.host("service.requests_shed", r.total_shed() as f64, "count");
    rep.host(
        "service.shed_frac",
        r.total_shed() as f64 / cl.generated.max(1) as f64,
        "fraction",
    );
    rep.host(
        "service.requests_per_round",
        cl.generated as f64 / r.rounds as f64,
        "count",
    );
    if let Some(t) = &r.tiers {
        let s = &t.stats;
        rep.host("topology.roots_opened", s.roots_opened as f64, "count");
        rep.host("topology.roots_closed", s.roots_closed as f64, "count");
        rep.host("topology.spans_opened", s.spans_opened as f64, "count");
        rep.host("topology.spans_closed", s.spans_closed as f64, "count");
        let shares = t.crit_shares();
        rep.host(
            "topology.st_crit_share",
            shares.last().copied().unwrap_or(0.0),
            "fraction",
        );
    }
}

/// Per-name views over a finished trace.
struct Layers<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
}

impl<'a> Layers<'a> {
    fn new(spans: &'a [Span]) -> Layers<'a> {
        Layers {
            spans,
            self_ns: self_times(spans),
        }
    }

    /// Duration of the top-level span `name`, seconds.
    fn root(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.parent == 0 && s.name == name)
            .map_or(f64::NAN, |s| s.dur_ns() as f64 * 1e-9)
    }

    /// Durations of every span named `name`, seconds.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Summed self time of every span named `name`, seconds.
    fn self_sum(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 * 1e-9)
            .sum()
    }
}

/// Reports the median of `secs` as `p50` and its tail quantile as `tail`,
/// both scaled by `scale`.
fn percentiles(
    rep: &mut Report,
    secs: &[f64],
    scale: f64,
    names: [&'static str; 2],
    unit: &'static str,
) {
    rep.host(names[0], median(secs) * scale, unit);
    rep.host(names[1], quantile(secs, tail_q(secs.len())) * scale, unit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{build, Kind, Size, WORKLOADS};

    /// Every span's parent exists and encloses it, and no self time
    /// exceeds its span.
    fn assert_well_nested(name: &str, spans: &[Span]) {
        assert!(!spans.is_empty(), "{name}: no spans");
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            assert!(
                self_ns <= s.dur_ns(),
                "{name}: {} self time exceeds its span",
                s.name
            );
            if s.parent != 0 {
                let p = spans
                    .iter()
                    .find(|p| p.id == s.parent)
                    .unwrap_or_else(|| panic!("{name}: {} has no parent span", s.name));
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{name}: {} escapes its parent {}",
                    s.name,
                    p.name
                );
            }
        }
    }

    #[test]
    fn both_drivers_agree_on_every_workload() {
        for w in &WORKLOADS {
            for seed in [0, 7] {
                let base = (w.kind == Kind::Paper)
                    .then(|| baseline(build(w.name, seed, Size::Tiny)).completion);
                let plain = untraced(build(w.name, seed, Size::Tiny), base.as_deref());
                let tr = Arc::new(Tracer::default());
                let traced = traced(build(w.name, seed, Size::Tiny), base.as_deref(), &tr);
                let label = format!("{} seed {seed}", w.name);
                assert_eq!(
                    plain.digest, traced.digest,
                    "{label}: traced digest differs"
                );
                assert_eq!(plain.sim, traced.sim, "{label}: simulated outputs differ");
                for (check, ok, detail) in plain.checks.iter().chain(&traced.checks) {
                    assert!(ok, "{label}: {check} failed: {detail}");
                }
                assert!(!plain.checks.is_empty(), "{label}: nothing was checked");
                assert_well_nested(&label, &tr.spans());
            }
        }
    }
}
