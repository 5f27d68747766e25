//! Cluster power capping: eight heterogeneous servers under one 500 W
//! global power budget, coordinated by the cluster-level cap
//! redistributor. The fleet is `bench::scenarios::cluster_capping`, the
//! one `experiments cluster-capping` runs at full scale.
//!
//! Compares the three splitting disciplines (uniform, demand-proportional,
//! FastCap-style marginal-utility) at the same budget, printing per-server
//! caps, total energy, and the Jain fairness index.
//!
//! Run with: `cargo run --release --example cluster_capping`

use bench::scenarios;
use coscale_repro::prelude::*;

fn main() {
    let runs = [
        CapSplit::Uniform,
        CapSplit::DemandProportional,
        CapSplit::FastCap,
    ]
    .map(|split| scenarios::cluster_capping(split, false));
    let global_cap_w = runs[0].global_cap_w;
    println!(
        "cluster_capping: {} servers, global budget {global_cap_w} W\n",
        runs[0].servers.len()
    );

    let mut results: Vec<ClusterResult> = Vec::new();
    for cfg in runs {
        let split = cfg.split;
        let r = run_cluster(cfg);

        println!("== {split} ==");
        println!(
            "  {:<10} {:>9} {:>9} {:>12} {:>11} {:>6}",
            "server", "mean cap", "final cap", "makespan", "energy", "viol"
        );
        for o in &r.outcomes {
            println!(
                "  {:<10} {:>7.1} W {:>7.1} W {:>9.2} ms {:>9.2} J {:>6}",
                o.name,
                o.mean_cap_w,
                o.final_cap_w,
                o.result.makespan.as_secs_f64() * 1e3,
                o.result.total_energy_j(),
                o.violation_rounds,
            );
        }
        println!(
            "  total energy {:.1} J | cluster makespan {:.2} ms | aggregate {:.2} GIPS",
            r.total_energy_j(),
            r.makespan().as_secs_f64() * 1e3,
            r.aggregate_throughput_ips() / 1e9,
        );
        println!(
            "  cap fairness (Jain) {:.3} | perf fairness {:.3} | rounds {} | violations {}\n",
            r.cap_fairness(),
            r.perf_fairness(),
            r.rounds,
            r.total_violations(),
        );
        results.push(r);
    }

    let uni = &results[0];
    let fc = &results[2];
    println!(
        "FastCap vs uniform at {global_cap_w} W: aggregate throughput {:+.1}%, \
         cluster makespan {:+.1}%",
        (fc.aggregate_throughput_ips() / uni.aggregate_throughput_ips() - 1.0) * 100.0,
        (fc.makespan().as_secs_f64() / uni.makespan().as_secs_f64() - 1.0) * 100.0,
    );
}
