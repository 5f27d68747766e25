//! `perf` — the repository benchmark.
//!
//! ```text
//! perf [--workload NAME|all] [--reps N] [--seconds S] [--seed N] [--trace [0|1]] [--out DIR]
//! ```
//!
//! Runs each selected workload in fresh child processes, at least `--reps`
//! times and for at least `--seconds`, interleaved round-robin across
//! workloads; checks every output; prints every metric by name and unit;
//! writes `<out>/perf.json`; and, with `--trace`, adds one traced run per
//! workload whose per-layer numbers are reported and whose spans land in
//! `<out>/trace_<workload>.tsv`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (untraced) or the per-layer metrics (`--trace 1`).

#![forbid(unsafe_code)]

mod fleet;
mod report;
mod run;
mod speed;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: perf [--workload NAME|all] [--reps N] [--seconds S] [--seed N] \
                     [--trace [0|1]] [--out DIR]";

/// Parsed command line of the parent process.
#[derive(Debug)]
pub struct Opts {
    /// Workloads to run, in set order.
    pub workloads: Vec<&'static workload::Workload>,
    /// Minimum untraced runs per workload: `--reps`, else 5 without
    /// `--seconds` and 1 with it.
    pub reps: usize,
    /// Minimum measuring time, seconds.
    pub seconds: f64,
    /// XORed into every workload seed.
    pub seed: u64,
    /// Add one traced run per workload.
    pub trace: bool,
    /// Output directory.
    pub out: PathBuf,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: workload::WORKLOADS.iter().collect(),
        reps: 5,
        seconds: 0.0,
        seed: 0,
        trace: false,
        out: PathBuf::from("results/perf"),
    };
    let mut reps = None;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workloads = if name == "all" {
                    workload::WORKLOADS.iter().collect()
                } else {
                    vec![workload::find(name).ok_or(format!("unknown workload '{name}'"))?]
                };
            }
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                reps = Some(n);
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => opts.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    opts.reps = reps.unwrap_or(if opts.seconds > 0.0 { 1 } else { 5 });
    Ok(opts)
}

/// The child side: `perf --child NAME --seed N --out DIR [--traced]
/// [--baseline | --baseline-ps P,P,...]` runs one repetition and prints it
/// in the line protocol `report::parse_child` reads.
fn child(args: &[String]) -> ExitCode {
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let name = arg("--child").expect("--child NAME");
    let seed: u64 = arg("--seed")
        .and_then(|s| s.parse().ok())
        .expect("--seed N");
    let setup = workload::build(name, seed, workload::Size::Full);
    let baseline: Option<Vec<u64>> = arg("--baseline-ps").map(|s| {
        s.split(',')
            .map(|p| p.parse().expect("picosecond completion time"))
            .collect()
    });
    let rep = if args.iter().any(|a| a == "--baseline") {
        run::baseline(setup)
    } else if args.iter().any(|a| a == "--traced") {
        let tr = Arc::new(trace::Tracer::default());
        let rep = run::traced(setup, baseline.as_deref(), &tr);
        let out = PathBuf::from(arg("--out").expect("--out DIR"));
        let path = out.join(format!("trace_{name}.tsv"));
        if let Err(e) = std::fs::write(&path, trace::to_tsv(&tr.spans())) {
            eprintln!("perf: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        rep
    } else {
        run::untraced(setup, baseline.as_deref())
    };
    print!("{}", report::child_lines(&rep));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--child") {
        return child(&args);
    }
    match parse(&args) {
        Ok(opts) => report::orchestrate(&opts),
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Opts, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn parses_timed_and_interactive_command_lines() {
        let o = parse_str("--workload fleet_flat --seed 3 --seconds 10 --trace 0").unwrap();
        assert_eq!(
            (o.workloads.len(), o.seed, o.trace, o.reps),
            (1, 3, false, 1)
        );
        let o = parse_str("--trace --reps 2").unwrap();
        assert_eq!((o.workloads.len(), o.trace, o.reps), (7, true, 2));
        let o = parse_str("--trace 1 --workload all --out x").unwrap();
        assert_eq!((o.trace, o.reps, o.out), (true, 5, PathBuf::from("x")));
        for bad in [
            "--workload nope",
            "--reps 0",
            "--seconds -1",
            "--seed x",
            "--bogus",
            "--out",
        ] {
            assert!(parse_str(bad).is_err(), "{bad}");
        }
    }
}
