//! Multi-tier request DAGs with trace-driven cross-tier power shifting.
//!
//! A two-tier service — a power-hungry ILP front end and a storage tier
//! doing 4× the per-request work at 2× the fan-out — serves a closed-loop
//! client population under one tight budget. Client requests become DAGs
//! (`fe[2] -> st[2]*2@4`): each front-end span spawns two storage spans
//! and the client hears back only when the whole DAG closes, so the SLA
//! binds the *end-to-end* p99.
//!
//! Three cross-tier disciplines split the same budget over the tiers:
//!
//! * `uniform` — half the budget each, blind to where time goes;
//! * `demand-proportional` — watts follow *power* demand, which favors
//!   the hungry front end, not the slow storage tier;
//! * `critical-path` — watts follow the windowed per-tier critical-path
//!   attribution from the request traces, shifting budget to whichever
//!   tier is the slowest leg of closed DAGs (PowerTracer's insight inside
//!   the lease-capping framework).
//!
//! At 220 W only the critical-path split meets the 4 ms end-to-end p99:
//! the static splits leave the storage tier throttled and the tail
//! doubles, at the same energy. The service is
//! `bench::scenarios::multi_tier`.
//!
//! Run with: `cargo run --release --example multi_tier`

use bench::scenarios;
use coscale_repro::prelude::*;

fn main() {
    let probe = scenarios::multi_tier(CapSplit::CriticalPath, 4);
    println!(
        "multi_tier: {}, {} W budget, 4 ms e2e p99 target\n",
        probe.tiers.as_ref().expect("a tier scenario").graph,
        probe.global_cap_w
    );
    println!(
        "{:<20} {:>8} {:>12} {:>12} {:>8} {:>10}  tier crit shares",
        "tier split", "DAGs", "e2e p50", "e2e p99", "SLO", "energy"
    );
    for tier_split in [
        CapSplit::Uniform,
        CapSplit::DemandProportional,
        CapSplit::CriticalPath,
    ] {
        let r = run_service(scenarios::multi_tier(tier_split, 4));
        let t = r.tiers.as_ref().unwrap();
        let shares: Vec<String> = t
            .crit_shares()
            .iter()
            .zip(&t.tier_names)
            .map(|(s, n)| format!("{n} {s:.2}"))
            .collect();
        println!(
            "{:<20} {:>8} {:>9.3} ms {:>9.3} ms {:>8} {:>8.2} J  {}",
            tier_split.to_string(),
            t.stats.roots_closed,
            t.e2e_percentile_s(0.50) * 1e3,
            t.e2e_p99_s() * 1e3,
            if t.meets_e2e_slo() { "met" } else { "MISSED" },
            r.total_energy_j(),
            shares.join(", "),
        );
    }
}
