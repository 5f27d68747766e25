//! Experiment infrastructure: run orchestration, result caching, table
//! rendering and TSV output for the per-figure reproduction harness.
//!
//! One function per paper artifact lives in [`experiments`]; the
//! `experiments` binary dispatches to them. Results print to stdout as
//! aligned tables (the paper's rows/series) and are also written as TSV
//! under the output directory so EXPERIMENTS.md can reference them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod scenarios;
mod table;

pub use table::Table;

use coscale::{PolicyKind, RunResult, SimConfig};
use std::path::PathBuf;
use std::sync::Arc;

/// Harness options shared by all experiments.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Reduced instruction budget for fast iteration.
    pub quick: bool,
    /// Directory for TSV outputs.
    pub out_dir: PathBuf,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            quick: false,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl Opts {
    /// Instructions each application must commit (paper: 100 M; our full
    /// scale: 25 M; quick: 6 M).
    pub fn target_instrs(&self) -> u64 {
        if self.quick {
            6_000_000
        } else {
            25_000_000
        }
    }
}

/// Experiment context: options plus every run made so far, so that
/// figures sharing a configuration (5/6/8/9/16, a sweep's default point…)
/// do not repeat it.
pub struct Ctx {
    /// Options.
    pub opts: Opts,
    /// Each run is a pure function of its configuration and policy, so
    /// those two are its key. A linear scan is enough: `experiments all`
    /// keeps about 300 runs at full scale, and comparing configurations
    /// costs nothing next to simulating one.
    runs: Vec<(SimConfig, PolicyKind, Arc<RunResult>)>,
}

impl Ctx {
    /// Creates a context and the output directory.
    ///
    /// # Panics
    ///
    /// Panics if the output directory cannot be created.
    pub fn new(opts: Opts) -> Ctx {
        std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
        Ctx {
            opts,
            runs: Vec::new(),
        }
    }

    /// The standard (Table 2) configuration for `mix_name`.
    ///
    /// # Panics
    ///
    /// Panics if the mix name is unknown.
    pub fn standard_config(&self, mix_name: &str) -> SimConfig {
        let m = workloads::mix(mix_name).unwrap_or_else(|| panic!("unknown mix {mix_name}"));
        let mut cfg = SimConfig::for_mix(m);
        cfg.target_instrs = self.opts.target_instrs();
        cfg
    }

    /// `quick` under `--quick`, else `full`: the mixes an experiment
    /// averages over.
    pub fn mixes<'a>(&self, full: &[&'a str], quick: &[&'a str]) -> Vec<&'a str> {
        if self.opts.quick { quick } else { full }.to_vec()
    }

    /// Runs the standard configuration of `mix_name` under `kind`, or
    /// returns the earlier run of the same configuration.
    pub fn run(&mut self, mix_name: &str, kind: PolicyKind) -> Arc<RunResult> {
        self.run_config(self.standard_config(mix_name), kind)
    }

    /// Runs `cfg` under `kind`, or returns the earlier run of the same
    /// configuration and policy.
    pub fn run_config(&mut self, cfg: SimConfig, kind: PolicyKind) -> Arc<RunResult> {
        if let Some((.., r)) = self.runs.iter().find(|(c, k, _)| *k == kind && *c == cfg) {
            return Arc::clone(r);
        }
        eprintln!("  running {} / {kind} ...", cfg.mix.name);
        let r = Arc::new(coscale::run_policy(cfg.clone(), kind));
        self.runs.push((cfg, kind, Arc::clone(&r)));
        r
    }

    /// Writes `table` as TSV under the output directory and prints it.
    pub fn emit(&self, table: &Table, file: &str) {
        table.print();
        let path = self.opts.out_dir.join(file);
        if let Err(e) = table.write_tsv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("  -> {}", path.display());
        }
    }
}

/// Average and worst per-application degradation of `run` vs `base`.
pub fn degradation_stats(run: &RunResult, base: &RunResult) -> (f64, f64) {
    let d = run.degradation_vs(base);
    let avg = d.iter().sum::<f64>() / d.len() as f64;
    let worst = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (avg, worst)
}

/// Formats a fraction as a percent string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// The four class-representative orderings used by the figures.
pub const ALL_MIXES: [&str; 16] = [
    "MEM1", "MEM2", "MEM3", "MEM4", "MID1", "MID2", "MID3", "MID4", "ILP1", "ILP2", "ILP3", "ILP4",
    "MIX1", "MIX2", "MIX3", "MIX4",
];

/// The MID mixes (default subject of the sensitivity studies, §4.2.4).
pub const MID_MIXES: [&str; 4] = ["MID1", "MID2", "MID3", "MID4"];

/// The MEM mixes (used by Figure 13).
pub const MEM_MIXES: [&str; 4] = ["MEM1", "MEM2", "MEM3", "MEM4"];

/// One representative mix per class: `--quick` shrinks all-mix averages
/// to these.
pub const CLASS_REPS: [&str; 4] = ["MEM1", "MID1", "ILP1", "MIX2"];

/// The mixes of one class.
pub fn class_mixes(class: &str) -> Vec<&'static str> {
    ALL_MIXES
        .iter()
        .copied()
        .filter(|m| m.starts_with(class))
        .collect()
}
