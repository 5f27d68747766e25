//! Closed-loop clients + fleet load balancing under a tight global cap.
//!
//! A population of interactive clients (request → response → exponential
//! think) drives a heterogeneous fleet: one big memory-bound server next
//! to three small ones, under a budget tight enough that the uniform split
//! throttles the big server hard. A round-robin front end keeps sending it
//! a quarter of the traffic anyway — its queue grows and the fleet p99
//! blows up. The power-headroom balancer reads the same caps the
//! coordinator just granted and steers traffic toward servers with watts
//! of slack, meeting the p99 target at the same budget. The fleet is
//! `bench::scenarios::closed_loop_balancing` at full scale.
//!
//! Run with: `cargo run --release --example closed_loop_balancing`

use bench::scenarios;
use coscale_repro::prelude::*;

fn main() {
    let runs = [
        BalancePolicy::RoundRobin,
        BalancePolicy::LeastQueue,
        BalancePolicy::PowerHeadroom,
    ]
    .map(|balance| scenarios::closed_loop_balancing(balance, false));
    let cl = runs[0].closed_loop.as_ref().expect("closed loop");
    println!(
        "closed_loop_balancing: {} clients, {} µs mean think, {} W budget, uniform split\n",
        cl.clients,
        cl.mean_think.as_us(),
        runs[0].global_cap_w
    );
    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "balancer", "generated", "completed", "fleet p99", "big p99", "energy"
    );
    for cfg in runs {
        let r = run_service(cfg);
        let cl = r.closed_loop.as_ref().unwrap();
        let big = r.outcomes.iter().find(|o| o.name == "big").unwrap();
        println!(
            "{:<16} {:>10} {:>10} {:>9.3} ms {:>9.3} ms {:>8.2} J",
            cl.balance.to_string(),
            cl.generated,
            r.total_completed(),
            r.fleet_percentile_s(0.99) * 1e3,
            big.p99_s() * 1e3,
            r.total_energy_j(),
        );
    }
    println!(
        "\nThe headroom-weighted balancer routes around the capped big server;\n\
         round-robin saturates it and the whole fleet's tail pays."
    );
}
