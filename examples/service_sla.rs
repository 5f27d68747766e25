//! A serving fleet under tail-latency SLOs: one big memory-bound server
//! pushed near its full-speed serving capacity next to three lightly loaded
//! servers, all under one 280 W budget. The fleet is
//! `bench::scenarios::service_sla` at load 1.0 and full scale.
//!
//! Compares uniform, FastCap-style, and SLA-aware cap splitting. The
//! uniform 70 W share starves the big server below its arrival rate — its
//! queue saturates and the p99 blows through the 1 ms target — while the
//! SLA-aware coordinator boosts it to full demand, trims the comfortable
//! servers below theirs, and ends up spending *less* energy.
//!
//! Run with: `cargo run --release --example service_sla`

use bench::scenarios;
use coscale_repro::prelude::*;

fn main() {
    let runs = [CapSplit::Uniform, CapSplit::FastCap, CapSplit::SlaAware]
        .map(|split| scenarios::service_sla(split, 1.0, false));
    let global_cap_w = runs[0].global_cap_w;
    println!(
        "service_sla: {} servers, budget {global_cap_w} W, p99 target 1 ms\n",
        runs[0].servers.len()
    );

    let mut results: Vec<ServiceResult> = Vec::new();
    for cfg in runs {
        let split = cfg.split;
        let r = run_service(cfg);

        println!("== {split} ==");
        println!(
            "  {:<8} {:>9} {:>8} {:>8} {:>10} {:>10} {:>5} {:>9}",
            "server", "mean cap", "done", "shed", "p50", "p99", "SLO", "energy"
        );
        for o in &r.outcomes {
            println!(
                "  {:<8} {:>7.1} W {:>8} {:>8} {:>7.0} µs {:>7.0} µs {:>5} {:>7.2} J",
                o.name,
                o.mean_cap_w,
                o.completed,
                o.shed,
                o.percentile_s(0.50) * 1e6,
                o.p99_s() * 1e6,
                if o.meets_slo() { "met" } else { "MISS" },
                o.energy_j,
            );
        }
        println!(
            "  fleet: energy {:.2} J | p99 {:.3} ms | SLO violations {} rounds | rejects {}\n",
            r.total_energy_j(),
            r.fleet_percentile_s(0.99) * 1e3,
            r.total_violation_rounds(),
            r.total_shed(),
        );
        results.push(r);
    }

    let (uni, sla) = (&results[0], &results[2]);
    println!(
        "SLA-aware vs uniform at {global_cap_w} W: every server {} its p99 target \
         (uniform: {}/{}), energy {:+.1}%",
        if sla.all_meet_slo() {
            "meets"
        } else {
            "misses"
        },
        uni.outcomes.iter().filter(|o| o.meets_slo()).count(),
        uni.outcomes.len(),
        (sla.total_energy_j() / uni.total_energy_j() - 1.0) * 100.0,
    );
}
