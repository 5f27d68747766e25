//! Hierarchical budget trees: a bursty rack next to a quiet pod, under one
//! 280 W fleet budget.
//!
//! The rack holds an 8-core memory-bound server absorbing an MMPP stream
//! that bursts to ~1.2× a calm rate already near its capped serving
//! capacity, plus a calm rack-mate; the pod holds two lightly loaded
//! servers. A flat uniform split hands the bursty server a 70 W share it
//! cannot serve bursts on — its p99 blows through the 1 ms target and the
//! queue sheds. The two-level tree
//! `dc:uniform[rack:sla-aware[h0,m0],pod:fastcap[q0,q1]]` pins each group
//! to half the budget and lets the rack's SLA-aware node shift watts onto
//! the bursting server the moment its tail-latency signal trips —
//! containing the burst inside the rack without taking a single watt from
//! the quiet pod, and on less energy than the flat split. The fleet and
//! both budget layouts are `bench::scenarios::hierarchical_capping` at
//! full scale.
//!
//! Run with: `cargo run --release --example hierarchical_capping`

use bench::scenarios;
use coscale_repro::prelude::*;

fn report(label: &str, r: &ServiceResult) {
    println!("== {label} ==");
    if let Some(t) = &r.topology {
        println!("  topology: {t}");
    }
    println!(
        "  {:<4} {:>9} {:>8} {:>8} {:>10} {:>5} {:>9}",
        "srv", "mean cap", "done", "shed", "p99", "SLO", "energy"
    );
    for o in &r.outcomes {
        println!(
            "  {:<4} {:>7.1} W {:>8} {:>8} {:>7.0} µs {:>5} {:>7.2} J",
            o.name,
            o.mean_cap_w,
            o.completed,
            o.shed,
            o.p99_s() * 1e6,
            if o.meets_slo() { "met" } else { "MISS" },
            o.energy_j,
        );
    }
    println!(
        "  fleet: energy {:.2} J | SLO violations {} rounds | rejects {}\n",
        r.total_energy_j(),
        r.total_violation_rounds(),
        r.total_shed(),
    );
}

fn main() {
    let flat = scenarios::hierarchical_capping(CapSplit::Uniform, false, false);
    let tree = scenarios::hierarchical_capping(CapSplit::Uniform, true, false);
    let global_cap_w = flat.global_cap_w;
    println!(
        "hierarchical_capping: {} servers, budget {global_cap_w} W, p99 target 1 ms\n",
        flat.servers.len()
    );

    let flat = run_service(flat);
    report("flat uniform", &flat);
    let hier = run_service(tree);
    report("tree uniform[sla-aware, fastcap]", &hier);

    println!(
        "tree vs flat uniform at {global_cap_w} W: tree {} every p99 target \
         (flat: {}/{}), energy {:+.1}%",
        if hier.all_meet_slo() {
            "meets"
        } else {
            "misses"
        },
        flat.outcomes.iter().filter(|o| o.meets_slo()).count(),
        flat.outcomes.len(),
        (hier.total_energy_j() / flat.total_energy_j() - 1.0) * 100.0,
    );
}
