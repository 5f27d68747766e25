//! Tests of the experiment-harness utilities.

use bench::experiments::{synthetic_profile, EXPERIMENTS};
use bench::{class_mixes, degradation_stats, pct, ALL_MIXES};
use coscale::{PolicyKind, RunResult};
use simkernel::Ps;
use std::process::{Command, Output};

#[test]
fn all_mixes_covers_table1() {
    assert_eq!(ALL_MIXES.len(), 16);
    for class in ["MEM", "MID", "ILP", "MIX"] {
        assert_eq!(class_mixes(class).len(), 4, "{class}");
    }
    // Every listed mix resolves in the workloads registry.
    for m in ALL_MIXES {
        assert!(workloads::mix(m).is_some(), "{m}");
    }
}

#[test]
fn pct_formats_fractions() {
    assert_eq!(pct(0.1234), "12.3%");
    assert_eq!(pct(-0.005), "-0.5%");
    assert_eq!(pct(0.0), "0.0%");
}

#[test]
fn synthetic_profiles_scale_with_core_count() {
    for n in [1usize, 16, 64, 128] {
        let p = synthetic_profile(n);
        assert_eq!(p.cores.len(), n);
        assert_eq!(p.core_freq_idx.len(), n);
        assert!(p.cores.iter().all(|c| c.cpu_cycles_pi >= 1.0));
        assert!(p.mem.reads > 0);
    }
}

fn fake_result(completion_us: &[u64], energy: f64) -> RunResult {
    RunResult {
        policy: PolicyKind::StaticMax,
        mix: "TEST".into(),
        epochs: 1,
        completion: completion_us.iter().map(|&u| Ps::from_us(u)).collect(),
        makespan: Ps::from_us(*completion_us.iter().max().unwrap()),
        cpu_energy_j: energy,
        l2_energy_j: 0.0,
        mem_energy_j: 0.0,
        rest_energy_j: 0.0,
        records: vec![],
        mpki: 0.0,
        wpki: 0.0,
        prefetch_accuracy: 0.0,
        bus_utilization: 0.0,
        row_hit_rate: 0.0,
        avg_read_latency_ns: 0.0,
        mem_sleep_fraction: 0.0,
        read_lat_p50_ns: 0.0,
        read_lat_p95_ns: 0.0,
        read_lat_p99_ns: 0.0,
    }
}

#[test]
fn degradation_stats_computes_avg_and_worst() {
    let base = fake_result(&[100, 100], 1.0);
    let run = fake_result(&[110, 105], 0.9);
    let (avg, worst) = degradation_stats(&run, &base);
    assert!((avg - 0.075).abs() < 1e-9);
    assert!((worst - 0.10).abs() < 1e-9);
    assert!((run.energy_savings_vs(&base) - 0.1).abs() < 1e-9);
}

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments runs")
}

#[test]
fn help_lists_every_registry_name_once() {
    let out = experiments(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let listed: Vec<&str> = stderr.split_whitespace().collect();
    let mut names: Vec<&str> = EXPERIMENTS
        .iter()
        .flat_map(|(names, _)| names.iter().copied())
        .chain(["report", "all"])
        .collect();
    for name in &names {
        assert!(listed.contains(name), "--help omits {name}:\n{stderr}");
    }
    names.sort_unstable();
    let n = names.len();
    names.dedup();
    assert_eq!(names.len(), n, "a command name selects two experiments");
}

#[test]
fn an_unknown_command_exits_2_before_anything_runs() {
    let out_dir = std::env::temp_dir().join(format!("experiments-nosuch-{}", std::process::id()));
    let dir = out_dir.to_str().expect("a UTF-8 temp dir");
    let out = experiments(&["--quick", "--out", dir, "table1", "nosuch"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown command: nosuch"), "{stderr}");
    assert!(!out_dir.exists(), "the output directory was created");
}

#[test]
fn report_files_sections_in_registry_order() {
    let dir = std::env::temp_dir().join(format!("report-order-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Written in neither order; every stem's title is the stem itself.
    let stems = [
        "zzz_custom",
        "control_plane_loss",
        "fig9",
        "fluid_clients_diurnal",
        "fig8",
        "fleet_scale",
        "ablation_phase",
        "cluster_capping",
        "search_cost",
        "table1",
        "control_plane_failover",
    ];
    for stem in stems {
        std::fs::write(dir.join(format!("{stem}.tsv")), format!("# {stem}\nk\tv\n")).unwrap();
    }
    let report = bench::report::render_report(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let order: Vec<&str> = report
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .collect();
    assert_eq!(
        order,
        [
            "table1",
            "fig8",
            "fig9",
            "search_cost",
            "ablation_phase",
            "cluster_capping",
            "fluid_clients_diurnal",
            "fleet_scale",
            "control_plane_failover",
            "control_plane_loss",
            "zzz_custom",
        ]
    );
}
