//! The parent side: spawns the repetitions, checks them against each
//! other and against the goldens, and reports every metric.

use crate::run::Report;
use crate::stats::{median, quantile};
use crate::workload::{Kind, Workload, THREADS};
use crate::Opts;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// End-to-end metrics `BENCHMARK.json` gates: `(name, unit)`. All lower is
/// better, and every workload reports each of them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("server_epoch_us", "us"),
];

/// Per-layer metrics `BENCHMARK.json` lists: `(name, unit, better)`.
/// Counts, shares and simulated quantities only, so a layer a workload does
/// not cross reads 0 rather than a made-up time; absolute per-layer host
/// times are printed and written to `perf.json`.
pub const PER_LAYER: [(&str, &str, &str); 44] = [
    ("coscale.epochs", "count", "lower"),
    ("coscale.decide_share", "fraction", "lower"),
    ("cyclesim.share", "fraction", "lower"),
    ("cpusim.instrs", "count", "lower"),
    ("cpusim.l2_accesses", "count", "lower"),
    ("cpusim.l2_misses", "count", "lower"),
    ("memsim.reads", "count", "lower"),
    ("memsim.writes", "count", "lower"),
    ("memsim.row_hits", "count", "lower"),
    ("memsim.bank_wait_us", "sim_us", "lower"),
    ("memsim.bus_wait_us", "sim_us", "lower"),
    ("engine.barriers", "count", "lower"),
    ("engine.server_steps", "count", "lower"),
    ("engine.awake_mean", "count", "lower"),
    ("engine.pool_idle_frac", "fraction", "lower"),
    ("ctrlplane.barrier_share", "fraction", "lower"),
    ("cluster.split_share", "fraction", "lower"),
    ("hiercache.node_hit_ratio", "fraction", "higher"),
    ("netsim.msgs_sent", "count", "lower"),
    ("netsim.msgs_delivered", "count", "lower"),
    ("netsim.msgs_dropped", "count", "lower"),
    ("netsim.msgs_duplicated", "count", "lower"),
    ("ctrlplane.grants_sent", "count", "lower"),
    ("ctrlplane.grants_applied", "count", "lower"),
    ("ctrlplane.grant_apply_ratio", "fraction", "higher"),
    ("ctrlplane.grants_refused", "count", "lower"),
    ("ctrlplane.lease_expirations", "count", "lower"),
    ("ctrlplane.floor_rounds", "count", "lower"),
    ("ctrlplane.elections", "count", "lower"),
    ("service.rounds", "count", "lower"),
    ("service.server_rounds", "count", "lower"),
    ("service.requests_generated", "count", "lower"),
    ("service.requests_completed", "count", "higher"),
    ("service.requests_shed", "count", "lower"),
    ("service.shed_frac", "fraction", "lower"),
    ("service.requests_per_round", "count", "lower"),
    ("topology.roots_opened", "count", "lower"),
    ("topology.roots_closed", "count", "higher"),
    ("topology.spans_opened", "count", "lower"),
    ("topology.spans_closed", "count", "higher"),
    ("topology.st_crit_share", "fraction", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("sim.server_epochs", "count", "lower"),
];

/// Golden result digests at seed 0, `name<TAB>fnv64-hex` per line.
const GOLDENS: &str = include_str!("../goldens.tsv");

fn golden(name: &str) -> Option<u64> {
    GOLDENS.lines().find_map(|l| {
        let (n, h) = l.split_once('\t')?;
        (n == name).then(|| u64::from_str_radix(h.trim(), 16).ok())?
    })
}

/// Serializes a child's report in the line protocol:
/// `h`/`s` metric lines (`name value unit`), `d` digest, `c` checks
/// (`name 0|1 detail`), `p` completion times.
pub fn child_lines(rep: &Report) -> String {
    let mut out = String::new();
    for (tag, list) in [("h", &rep.host), ("s", &rep.sim)] {
        for (name, v, unit) in list {
            let _ = writeln!(out, "{tag}\t{name}\t{v}\t{unit}");
        }
    }
    let _ = writeln!(out, "d\t{:016x}", rep.digest);
    for (name, ok, detail) in &rep.checks {
        let _ = writeln!(out, "c\t{name}\t{}\t{detail}", u8::from(*ok));
    }
    if !rep.completion.is_empty() {
        let ps: Vec<String> = rep.completion.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "p\t{}", ps.join(","));
    }
    out
}

/// One child's report as the parent reads it back.
#[derive(Debug, Default)]
struct Rep {
    exited_ok: bool,
    host: Vec<(String, f64, String)>,
    sim: Vec<(String, f64, String)>,
    digest: Option<u64>,
    checks: Vec<(String, bool, String)>,
    completion: Vec<u64>,
}

impl Rep {
    fn host(&self, name: &str) -> Option<f64> {
        self.host
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, v, _)| v)
    }

    fn passed(&self) -> bool {
        self.exited_ok && self.digest.is_some() && self.checks.iter().all(|c| c.1)
    }
}

fn parse_child(stdout: &str, exited_ok: bool) -> Rep {
    let mut rep = Rep {
        exited_ok,
        ..Rep::default()
    };
    for line in stdout.lines() {
        let f: Vec<&str> = line.splitn(4, '\t').collect();
        let metric = || {
            (
                f[1].to_string(),
                f[2].parse().unwrap_or(f64::NAN),
                f[3].to_string(),
            )
        };
        match (f[0], f.len()) {
            ("h", 4) => rep.host.push(metric()),
            ("s", 4) => rep.sim.push(metric()),
            ("d", 2) => rep.digest = u64::from_str_radix(f[1], 16).ok(),
            ("c", 4) => rep
                .checks
                .push((f[1].to_string(), f[2] == "1", f[3].to_string())),
            ("p", 2) => rep.completion = f[1].split(',').filter_map(|p| p.parse().ok()).collect(),
            _ => {}
        }
    }
    rep
}

fn spawn(w: &Workload, opts: &Opts, extra: &[String]) -> Rep {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name, "--seed", &opts.seed.to_string(), "--out"])
        .arg(&opts.out)
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    match cmd.output() {
        Ok(out) => parse_child(&String::from_utf8_lossy(&out.stdout), out.status.success()),
        Err(e) => {
            eprintln!("perf: cannot start a {} run: {e}", w.name);
            Rep::default()
        }
    }
}

/// Everything gathered for one workload.
struct Runs {
    w: &'static Workload,
    baseline: Option<Rep>,
    reps: Vec<Rep>,
    traced: Option<Rep>,
    /// Workload-level checks: `(name, passed, detail)`.
    checks: Vec<(String, bool, String)>,
    failed: usize,
}

impl Runs {
    fn attempted(&self) -> usize {
        self.reps.len() + usize::from(self.traced.is_some()) + usize::from(self.baseline.is_some())
    }

    fn e2e(&self, name: &str) -> Vec<f64> {
        self.reps.iter().filter_map(|r| r.host(name)).collect()
    }

    fn digest(&self) -> Option<u64> {
        self.reps.first().and_then(|r| r.digest)
    }

    /// Every host metric the untraced runs reported, `(name, unit)`, in
    /// first-seen order.
    fn host_names(&self) -> Vec<(String, String)> {
        let mut names: Vec<(String, String)> = Vec::new();
        for (name, _, unit) in self.reps.iter().flat_map(|r| &r.host) {
            if !names.iter().any(|(n, _)| n == name) {
                names.push((name.clone(), unit.clone()));
            }
        }
        names
    }

    /// Each run's checks, once per name unless a run failed it, then the
    /// workload-level checks.
    fn all_checks(&self) -> Vec<(String, bool, String)> {
        let mut checks: Vec<(String, bool, String)> = Vec::new();
        for c in self.reps.iter().chain(&self.traced).flat_map(|r| &r.checks) {
            if !c.1 || !checks.iter().any(|k| k.0 == c.0) {
                checks.push(c.clone());
            }
        }
        checks.extend(self.checks.iter().cloned());
        checks
    }

    /// Judges every run: each must pass its own checks, agree with the
    /// first run's digest and simulated outputs (the traced run included),
    /// and — at seed 0 — match the golden.
    fn judge(&mut self, seed: u64) {
        let reference = self.reps.first().map(|r| (r.digest, r.sim.clone()));
        let golden = (seed == 0).then(|| golden(self.w.name));
        let mut failed = 0;
        for rep in self.reps.iter().chain(&self.traced) {
            let mut ok = rep.passed();
            if let Some((digest, sim)) = &reference {
                ok &= rep.digest == *digest;
                ok &= rep.sim.len() == sim.len()
                    && rep
                        .sim
                        .iter()
                        .zip(sim)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
            }
            if let Some(g) = golden {
                ok &= g.is_some() && rep.digest == g;
            }
            failed += usize::from(!ok);
        }
        if let Some(b) = &self.baseline {
            if !b.exited_ok {
                failed += 1;
                self.checks.push((
                    "baseline_run".into(),
                    false,
                    "all-max baseline failed".into(),
                ));
            }
        }
        self.failed = failed;
        let all_same = self
            .reps
            .iter()
            .chain(&self.traced)
            .all(|r| Some(r.digest) == reference.as_ref().map(|x| x.0));
        self.checks.push((
            "digests_identical_across_runs".into(),
            all_same,
            format!("{} runs incl. traced", self.attempted()),
        ));
        if let Some(g) = golden {
            let d = self.digest();
            self.checks.push((
                "digest_matches_golden".into(),
                g.is_some() && d == g,
                format!(
                    "got {}, golden {}",
                    d.map_or("none".into(), |d| format!("{d:016x}")),
                    g.map_or("missing".into(), |g| format!("{g:016x}"))
                ),
            ));
        }
    }
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// Runs the benchmark described by `opts`; the exit code is non-zero when
/// any run failed a check.
pub fn orchestrate(opts: &Opts) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&opts.out) {
        eprintln!("perf: cannot create {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let load = loadavg();
    let mut all: Vec<Runs> = opts
        .workloads
        .iter()
        .map(|&w| Runs {
            w,
            baseline: None,
            reps: Vec::new(),
            traced: None,
            checks: Vec::new(),
            failed: 0,
        })
        .collect();

    for r in &mut all {
        if r.w.kind == Kind::Paper {
            eprintln!("perf: {} all-max baseline ...", r.w.name);
            r.baseline = Some(spawn(r.w, opts, &["--baseline".into()]));
        }
    }
    let baseline_args = |r: &Runs| -> Vec<String> {
        r.baseline.as_ref().map_or(Vec::new(), |b| {
            let ps: Vec<String> = b.completion.iter().map(u64::to_string).collect();
            vec!["--baseline-ps".into(), ps.join(",")]
        })
    };
    let start = Instant::now();
    let mut round = 0;
    while round < opts.reps || start.elapsed().as_secs_f64() < opts.seconds {
        for r in &mut all {
            eprintln!("perf: {} run {} ...", r.w.name, round + 1);
            let rep = spawn(r.w, opts, &baseline_args(r));
            r.reps.push(rep);
        }
        round += 1;
    }
    if opts.trace {
        for r in &mut all {
            eprintln!("perf: {} traced run ...", r.w.name);
            let mut extra = baseline_args(r);
            extra.push("--traced".into());
            r.traced = Some(spawn(r.w, opts, &extra));
        }
    }
    for r in &mut all {
        r.judge(opts.seed);
    }

    let mut text = format!(
        "perf: nproc {nproc}, threads {THREADS}, load average at start {load}, seed {}, \
         {round} runs per workload{}\n",
        opts.seed,
        if opts.trace { " + 1 traced" } else { "" }
    );
    for r in &all {
        text.push_str(&human(r));
    }
    print!("{text}");
    let json = perf_json(opts, &all, nproc, &load);
    let path = opts.out.join("perf.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("perf: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("perf: wrote {}", path.display());
    let failed: usize = all.iter().map(|r| r.failed).sum();
    println!("{}", result_line(opts, &all));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-layer values of one workload: the traced run's own metrics plus
/// the ones that need the untraced runs.
fn layers(r: &Runs) -> Vec<(String, f64, String)> {
    let Some(t) = &r.traced else {
        return Vec::new();
    };
    let mut v = t.host.clone();
    // The traced run is not normalized, so it is held against measured time.
    let run_s = median(&r.e2e("wall_run_s"));
    if let (Some(root), Some(split)) = (t.host("trace.root_s"), t.host("trace.split_s")) {
        v.push((
            "trace.overhead_frac".into(),
            (root - split) / run_s - 1.0,
            "fraction".into(),
        ));
    }
    if let Some(e) = t.sim.iter().find(|s| s.0 == "server_epochs") {
        v.push(("sim.server_epochs".into(), e.1, "count".into()));
    }
    v
}

fn human(r: &Runs) -> String {
    let mut s = format!("\n== {} — {}\n", r.w.name, r.w.why);
    let n = r.reps.len();
    let _ = writeln!(
        s,
        "end-to-end, host time, median [q1, q3] over {n} untraced runs:"
    );
    for (name, unit) in &r.host_names() {
        let v = r.e2e(name);
        let _ = writeln!(
            s,
            "  {name:<22} {:>14.6} {unit:<9} [{:.6}, {:.6}]",
            median(&v),
            quantile(&v, 0.25),
            quantile(&v, 0.75)
        );
    }
    let frac = r.failed as f64 / r.attempted().max(1) as f64;
    let _ = writeln!(
        s,
        "  {:<22} {frac:>14.6} {:<9} ({}/{} runs)",
        "failed_run_frac",
        "fraction",
        r.failed,
        r.attempted()
    );
    let reference = match r.w.kind {
        Kind::Paper => "reference: paper Table 1 MPKI",
        Kind::Fleet | Kind::Serve => "unvalidated: no reference in repo",
    };
    let _ = writeln!(s, "simulated, must be identical across runs ({reference}):");
    if let Some(first) = r.reps.first() {
        for (name, v, unit) in &first.sim {
            let _ = writeln!(s, "  {name:<22} {v:>14.6} {unit}");
        }
        if let Some(b) = &r.baseline {
            for (name, v, unit) in &b.sim {
                let _ = writeln!(s, "  {:<22} {v:>14.6} {unit}", format!("baseline_{name}"));
            }
        }
    }
    let layer = layers(r);
    if !layer.is_empty() {
        let _ = writeln!(s, "per-layer, one traced run:");
        for (name, v, unit) in &layer {
            let _ = writeln!(s, "  {name:<30} {v:>14.6} {unit}");
        }
    }
    let _ = writeln!(s, "checks:");
    for (name, ok, detail) in &r.all_checks() {
        let _ = writeln!(
            s,
            "  {} {name}: {detail}",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    let _ = writeln!(
        s,
        "digest {}",
        r.digest().map_or("none".into(), |d| format!("{d:016x}"))
    );
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_values(list: &[(String, f64, String)]) -> String {
    let items: Vec<String> = list
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn perf_json(opts: &Opts, all: &[Runs], nproc: usize, load: &str) -> String {
    let mut s = format!(
        "{{\n  \"header\": {{\"nproc\": {nproc}, \"threads\": {THREADS}, \"loadavg_start\": {}, \
         \"seed\": {}, \"min_reps\": {}, \"min_seconds\": {}, \"trace\": {}}},\n  \"workloads\": {{\n",
        json_str(load),
        opts.seed,
        opts.reps,
        json_num(opts.seconds),
        opts.trace
    );
    for (k, r) in all.iter().enumerate() {
        let metrics: Vec<String> = r
            .host_names()
            .iter()
            .map(|(name, unit)| {
                let v = r.e2e(name);
                let values: Vec<String> = v.iter().map(|x| json_num(*x)).collect();
                format!(
                    "{}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"values\": [{}]}}",
                    json_str(name),
                    json_str(unit),
                    json_num(median(&v)),
                    json_num(quantile(&v, 0.25)),
                    json_num(quantile(&v, 0.75)),
                    v.len(),
                    values.join(", ")
                )
            })
            .collect();
        let checks: Vec<String> = r
            .all_checks()
            .iter()
            .map(|(n, ok, d)| {
                format!(
                    "{{\"name\": {}, \"ok\": {ok}, \"detail\": {}}}",
                    json_str(n),
                    json_str(d)
                )
            })
            .collect();
        let sim = r.reps.first().map(|f| f.sim.clone()).unwrap_or_default();
        let _ = write!(
            s,
            "    {}: {{\n      \"why\": {},\n      \"attempted\": {}, \"failed\": {}, \"failed_run_frac\": {},\n      \
             \"digest\": {},\n      \"metrics\": {{{}}},\n      \"simulated\": {},\n      \"layers\": {},\n      \
             \"checks\": [{}]\n    }}{}\n",
            json_str(r.w.name),
            json_str(r.w.why),
            r.attempted(),
            r.failed,
            json_num(r.failed as f64 / r.attempted().max(1) as f64),
            json_str(&r.digest().map_or("none".into(), |d| format!("{d:016x}"))),
            metrics.join(", "),
            json_values(&sim),
            json_values(&layers(r)),
            checks.join(", "),
            if k + 1 < all.len() { "," } else { "" }
        );
    }
    s.push_str("  }\n}\n");
    s
}

/// The final stdout line: `correct`, `attempted`, `failed` and either the
/// end-to-end medians or (with `--trace`) the per-layer values. With more
/// than one workload each metric name is prefixed `<workload>/`.
fn result_line(opts: &Opts, all: &[Runs]) -> String {
    let attempted: usize = all.iter().map(Runs::attempted).sum();
    let failed: usize = all.iter().map(|r| r.failed).sum();
    let correct = failed == 0;
    let mut metrics = Vec::new();
    for r in all {
        let prefix = if all.len() > 1 {
            format!("{}/", r.w.name)
        } else {
            String::new()
        };
        if opts.trace {
            let layer = layers(r);
            for (name, unit, _) in PER_LAYER {
                let v = layer.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1);
                metrics.push((format!("{prefix}{name}"), v, unit.to_string()));
            }
        } else {
            for (name, unit) in END_TO_END {
                metrics.push((
                    format!("{prefix}{name}"),
                    median(&r.e2e(name)),
                    unit.to_string(),
                ));
            }
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_values(&metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// Just enough JSON to read `BENCHMARK.json` and the result line back.
    #[derive(Debug)]
    enum J {
        Obj(Vec<(String, J)>),
        Arr(Vec<J>),
        Str(String),
        Num,
        Other,
    }

    impl J {
        fn get(&self, key: &str) -> &J {
            match self {
                J::Obj(kv) => &kv.iter().find(|(k, _)| k == key).expect(key).1,
                _ => panic!("not an object: {key}"),
            }
        }

        fn str(&self) -> &str {
            match self {
                J::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }
    }

    fn parse_json(text: &str) -> J {
        fn ws(b: &[u8], i: &mut usize) {
            while b[*i].is_ascii_whitespace() {
                *i += 1;
            }
        }
        fn string(b: &[u8], i: &mut usize) -> String {
            assert_eq!(b[*i], b'"');
            let start = *i + 1;
            *i = start;
            while b[*i] != b'"' {
                *i += if b[*i] == b'\\' { 2 } else { 1 };
            }
            *i += 1;
            String::from_utf8(b[start..*i - 1].to_vec()).expect("utf-8")
        }
        fn value(b: &[u8], i: &mut usize) -> J {
            ws(b, i);
            match b[*i] {
                b'{' | b'[' => {
                    let object = b[*i] == b'{';
                    *i += 1;
                    let (mut kv, mut items) = (Vec::new(), Vec::new());
                    loop {
                        ws(b, i);
                        if b[*i] == b'}' || b[*i] == b']' {
                            *i += 1;
                            return if object { J::Obj(kv) } else { J::Arr(items) };
                        }
                        if object {
                            let k = string(b, i);
                            ws(b, i);
                            assert_eq!(b[*i], b':');
                            *i += 1;
                            kv.push((k, value(b, i)));
                        } else {
                            items.push(value(b, i));
                        }
                        ws(b, i);
                        if b[*i] == b',' {
                            *i += 1;
                        }
                    }
                }
                b'"' => J::Str(string(b, i)),
                _ => {
                    let start = *i;
                    while !b",}] \n".contains(&b[*i]) {
                        *i += 1;
                    }
                    let t = std::str::from_utf8(&b[start..*i]).expect("utf-8");
                    t.parse::<f64>().map_or(J::Other, |_| J::Num)
                }
            }
        }
        value(text.as_bytes(), &mut 0)
    }

    fn list(j: &J, key: &str) -> Vec<Vec<String>> {
        let J::Arr(items) = j.get(key) else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|it| match it {
                J::Obj(kv) => kv
                    .iter()
                    .filter(|(k, _)| k != "bound")
                    .map(|(_, v)| v.str().to_string())
                    .collect(),
                other => panic!("{key}: not an object: {other:?}"),
            })
            .collect()
    }

    fn fake_runs() -> Runs {
        let rep = |names: Vec<(&str, &str)>| Rep {
            exited_ok: true,
            host: names
                .into_iter()
                .map(|(n, u)| (n.to_string(), 1.5, u.to_string()))
                .collect(),
            digest: Some(1),
            ..Rep::default()
        };
        let mut layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
        layer.extend([("trace.root_s", "s"), ("trace.split_s", "s")]);
        let mut e2e = END_TO_END.to_vec();
        e2e.push(("wall_run_s", "s"));
        Runs {
            w: &WORKLOADS[0],
            baseline: None,
            reps: vec![rep(e2e)],
            traced: Some(rep(layer)),
            checks: Vec::new(),
            failed: 0,
        }
    }

    /// `BENCHMARK.json` names exactly the workloads, metrics, units and
    /// directions this binary emits, and the result line carries exactly
    /// those metrics in both modes.
    #[test]
    fn benchmark_json_matches_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
        let workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(list(&spec, "workloads"), workloads);
        let e2e: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|&(n, u)| vec![n.into(), u.into(), "lower".into()])
            .collect();
        assert_eq!(list(&spec, "end_to_end"), e2e);
        let layer: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| vec![n.into(), u.into(), b.into()])
            .collect();
        assert_eq!(list(&spec, "per_layer"), layer);

        for (trace, expected) in [(false, &e2e), (true, &layer)] {
            let opts = Opts {
                workloads: vec![&WORKLOADS[0]],
                reps: 1,
                seconds: 0.0,
                seed: 0,
                trace,
                out: std::path::PathBuf::new(),
            };
            let line = parse_json(&result_line(&opts, &[fake_runs()]));
            let J::Obj(top) = &line else {
                panic!("result line is not an object");
            };
            let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let J::Obj(metrics) = line.get("metrics") else {
                panic!("metrics is not an object");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.get("unit").str().to_string()))
                .collect();
            let want: Vec<(String, String)> = expected
                .iter()
                .map(|m| (m[0].clone(), m[1].clone()))
                .collect();
            assert_eq!(got, want, "trace={trace}");
            for (k, v) in metrics {
                assert!(matches!(v.get("value"), J::Num), "{k} is not a number");
            }
        }
    }

    #[test]
    fn child_lines_round_trip() {
        let rep = Report {
            host: vec![("run_s", 1.25, "s")],
            sim: vec![("energy_j", 0.1 + 0.2, "J")],
            digest: 0xdead_beef,
            checks: vec![
                ("conserved", true, "a\tb".into()),
                ("bound", false, String::new()),
            ],
            completion: vec![7, 9],
        };
        let back = parse_child(&child_lines(&rep), true);
        assert_eq!(back.host, [("run_s".to_string(), 1.25, "s".to_string())]);
        assert_eq!(back.sim[0].1.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(back.digest, Some(0xdead_beef));
        assert_eq!(back.checks.len(), 2);
        assert!(back.checks[0].1 && !back.checks[1].1);
        assert_eq!(back.completion, [7, 9]);
        assert!(!back.passed());
    }
}
