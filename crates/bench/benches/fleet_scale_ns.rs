//! `fleet-scale-ns`: nanoseconds per server-epoch for the fleet loop on a
//! 90%-idle synthetic fleet at 1k / 8k / 32k servers, with a regression
//! gate against a committed baseline.
//!
//! The configuration is the scaling shape the loop is built for: a
//! uniform root over FastCap racks of 64 (so split cost stays linear in
//! fleet size instead of quadratic), a four-epoch coordination cadence,
//! and the cap timeline recording turned off. Every
//! size runs the *same* shortened per-server workload and the metric
//! normalizes by the server-epochs actually executed, so the idle/busy
//! epoch mix — and therefore the figure itself — is directly comparable
//! across sizes. The cadence matters at scale: a 32k-server fleet's busy
//! working set cannot stay cache-resident between wakes the way a
//! 1k-server fleet's can, so stepping several epochs per wake amortizes
//! the unavoidable cold re-touch of each server's state and keeps the
//! ratio measuring the *loop* rather than the LLC size. Worker threads
//! match the machine (`available_parallelism`), keeping the bench
//! meaningful on small CI runners.
//!
//! Modes, mirroring the vendored criterion shim:
//! * `cargo test` (no `--bench` flag) — two tiny fleets run once as a
//!   smoke test; no files, no gate.
//! * `cargo bench` — the three sizes are measured (best of two runs
//!   each), a table is printed, `results/fleet_scale_ns.{json,tsv}` are
//!   written, and the process exits 1 when either gate trips:
//!   1. **scaling invariant** — 32k ns/server-epoch must stay within 2× of
//!      1k (the ISSUE's acceptance bound);
//!   2. **baseline ratios** — each size's ratio to the 1k figure must stay
//!      within [`THRESHOLD`]× of the committed
//!      `baselines/fleet_scale_ns.json` ratio. Ratios, not absolute times,
//!      so the gate is robust to CI machines of different speeds (a
//!      uniform slowdown of every size is deliberately not flagged — that
//!      is a machine property, not a scaling regression).
//!
//! `FLEET_SCALE_SKIP=1` skips measurement entirely (used by
//! `scripts/check.sh` runs that only want the cheap steps).

use cluster::{synthetic_fleet, BudgetNode, BudgetTree, CapSplit, ClusterConfig, ClusterSim};
use criterion::Criterion;
use std::time::Instant;

/// Committed reference figures, measured on the machine that authored the
/// gate. Only *ratios* between sizes are compared against it.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/fleet_scale_ns.json");

/// Where the measured table lands. Anchored to the repo root (not the
/// process cwd — cargo runs bench binaries from the package root) so CI
/// artifact uploads of `results/` pick it up alongside the experiment
/// TSVs.
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// Allowed growth of each size's ns-per-server-epoch ratio (vs the 1k
/// size) over the committed baseline ratio. Loose enough to absorb
/// shared-runner noise (observed run-to-run swings of ~25% on a loaded
/// single-core box, even with best-of-two); the hard 2x scaling
/// invariant below is the primary gate.
const THRESHOLD: f64 = 1.5;

/// (fleet size, instruction-target divisor). Every size runs the *same*
/// per-server workload (divisor 4 — busy servers finish in ~14 epochs,
/// i.e. a few coordination rounds), so the idle/busy epoch mix is
/// identical across sizes and the ns-per-server-epoch figures are
/// directly comparable: any ratio growth is loop scaling, not
/// workload-composition drift. The divisor also bounds the horizon well
/// under the `max_epochs` panic guard.
const SIZES: [(usize, u64); 3] = [(1024, 4), (8192, 4), (32768, 4)];

/// The benchmark fleet: `n` servers, 90% idle, uniform root over FastCap
/// racks of 64.
fn fleet_config(n: usize, target_divisor: u64) -> ClusterConfig {
    let mut fleet = synthetic_fleet(n, 0.9);
    for s in &mut fleet {
        s.config.target_instrs = (s.config.target_instrs / target_divisor).max(1);
    }
    let racks = fleet
        .chunks(64)
        .enumerate()
        .map(|(r, chunk)| {
            BudgetNode::group(
                &format!("rack{r}"),
                CapSplit::FastCap,
                chunk.iter().map(|s| BudgetNode::server(&s.name)).collect(),
            )
        })
        .collect();
    let tree = BudgetTree::new(BudgetNode::group("fleet", CapSplit::Uniform, racks));
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut c = ClusterConfig::new(fleet, 100.0 * n as f64, CapSplit::FastCap)
        .with_epochs_per_round(4)
        .with_threads(threads)
        .with_record_timeline(false)
        .with_topology(tree);
    c.quantum_w = 1.0;
    c
}

/// Best-of-`runs` ns per executed server-epoch at fleet size `n`.
/// Construction stays outside the timed region.
fn measure(n: usize, target_divisor: u64, runs: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let sim = ClusterSim::new(fleet_config(n, target_divisor));
        let t0 = Instant::now();
        let result = sim.run();
        let elapsed_ns = t0.elapsed().as_nanos() as f64;
        let server_epochs: usize = result.outcomes.iter().map(|o| o.result.epochs).sum();
        assert!(server_epochs > 0, "fleet of {n} executed zero epochs");
        best = best.min(elapsed_ns / server_epochs as f64);
    }
    best
}

/// Pulls `"<size>": <number>` out of the baseline JSON (hand-rolled: the
/// workspace is dependency-free, so no serde).
fn baseline_ns(text: &str, size: usize) -> Option<f64> {
    let key = format!("\"{size}\"");
    let rest = &text[text.find(&key)? + key.len()..];
    let rest = rest[rest.find(':')? + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let measure_mode = std::env::args().any(|a| a == "--bench");
    if !measure_mode {
        // cargo test runs harness-less bench targets too: smoke the
        // plumbing on tiny fleets and skip the gate.
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("fleet_scale_ns");
        for (n, divisor) in [(64usize, 8u64), (128, 8)] {
            g.bench_function(&format!("smoke/{n}"), |b| b.iter(|| measure(n, divisor, 1)));
        }
        g.finish();
        return;
    }
    if std::env::var("FLEET_SCALE_SKIP").as_deref() == Ok("1") {
        println!("fleet_scale_ns: skipped (FLEET_SCALE_SKIP=1)");
        return;
    }

    let mut rows: Vec<(usize, f64)> = Vec::new();
    for (n, divisor) in SIZES {
        // Best-of-two everywhere: the first run at each size pays
        // allocator warm-up and first-touch page faults that the second
        // run does not, and the gate is about loop scaling, not the
        // OS's lazy-zeroing throughput.
        let ns = measure(n, divisor, 2);
        println!("fleet_scale_ns/{n}: {ns:10.1} ns/server-epoch");
        rows.push((n, ns));
    }

    std::fs::create_dir_all(RESULTS_DIR).ok();
    let mut tsv = String::from("servers\tns_per_server_epoch\n");
    let mut json = String::from("{\n");
    for (i, (n, ns)) in rows.iter().enumerate() {
        tsv.push_str(&format!("{n}\t{ns:.3}\n"));
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!("  \"{n}\": {ns:.3}{comma}\n"));
    }
    json.push('}');
    json.push('\n');
    if let Err(e) = std::fs::write(format!("{RESULTS_DIR}/fleet_scale_ns.tsv"), &tsv) {
        eprintln!("fleet_scale_ns: could not write results TSV: {e}");
    }
    if let Err(e) = std::fs::write(format!("{RESULTS_DIR}/fleet_scale_ns.json"), &json) {
        eprintln!("fleet_scale_ns: could not write results JSON: {e}");
    }

    let mut failed = false;
    let ns_1k = rows[0].1;
    let ns_32k = rows[rows.len() - 1].1;
    if ns_32k > 2.0 * ns_1k {
        eprintln!(
            "fleet_scale_ns: FAIL scaling invariant: 32k at {ns_32k:.1} ns/server-epoch \
             exceeds 2x the 1k figure ({ns_1k:.1})"
        );
        failed = true;
    } else {
        println!(
            "fleet_scale_ns: scaling invariant ok (32k/1k = {:.2}x <= 2x)",
            ns_32k / ns_1k
        );
    }
    match std::fs::read_to_string(BASELINE) {
        Ok(text) => {
            if let Some(base_1k) = baseline_ns(&text, rows[0].0) {
                for (n, ns) in &rows[1..] {
                    let Some(base_n) = baseline_ns(&text, *n) else {
                        eprintln!("fleet_scale_ns: baseline missing size {n}; skipping");
                        continue;
                    };
                    let got = ns / ns_1k;
                    let want = base_n / base_1k;
                    if got > want * THRESHOLD {
                        eprintln!(
                            "fleet_scale_ns: FAIL regression at {n} servers: ratio-to-1k \
                             {got:.2}x vs baseline {want:.2}x (threshold {THRESHOLD}x)"
                        );
                        failed = true;
                    } else {
                        println!(
                            "fleet_scale_ns: {n} servers ok (ratio-to-1k {got:.2}x vs \
                             baseline {want:.2}x)"
                        );
                    }
                }
            } else {
                eprintln!("fleet_scale_ns: baseline lacks the 1k row; skipping regression gate");
            }
        }
        Err(e) => eprintln!("fleet_scale_ns: no baseline ({e}); skipping regression gate"),
    }
    if failed {
        std::process::exit(1);
    }
}
