//! The message-passing control plane under fire: the same four-server
//! fleet (`bench::scenarios::control_plane`: 4×MID1 under a 120 W FastCap
//! budget) run three ways —
//!
//! 1. **loopback** — the default perfect plane (its caps match a
//!    direct split of the budget up to float dust);
//! 2. **lossy** — one round of RPC latency, 20% loss, 5% duplication:
//!    grants and acks vanish, servers ride stale leases or fall to the
//!    floor cap, and the budget is *still* conserved every round;
//! 3. **failover** — the primary coordinator is partitioned away
//!    mid-run, the standby elects itself, and the healed primary steps
//!    down.
//!
//! Run with: `cargo run --release --example control_plane`

use bench::scenarios;
use coscale_repro::prelude::*;

fn run(label: &str, rpc: RpcConfig) -> ClusterResult {
    let floor_w = rpc.floor_cap_w;
    let cfg = scenarios::control_plane(rpc, 20);
    let (budget_w, n) = (cfg.global_cap_w, cfg.servers.len());
    let r = run_cluster(cfg);

    // The ledger's guarantee: in-force caps never sum past the budget
    // plus the floors of expired leases, no matter what the plane ate.
    let mut worst = 0.0_f64;
    for caps in &r.cap_timeline {
        worst = worst.max(caps.iter().sum());
    }
    assert!(worst <= budget_w + n as f64 * floor_w + 1e-6);

    let c = &r.control;
    println!("== {label} ==");
    println!(
        "  {} rounds, makespan {:.2} ms, energy {:.2} J, max Σcaps {:.1} W",
        r.rounds,
        r.makespan().as_secs_f64() * 1e3,
        r.total_energy_j(),
        worst
    );
    println!(
        "  plane: {} sent / {} delivered / {} lost / {} cut / {} duplicated",
        c.plane.sent,
        c.plane.delivered,
        c.plane.dropped_loss,
        c.plane.dropped_partition,
        c.plane.duplicated
    );
    println!(
        "  grants: {}/{} applied, {} stale, {} expired-on-arrival; \
         {} lease expirations, {} floor rounds",
        c.grants_applied,
        c.grants_sent,
        c.grants_stale,
        c.grants_expired,
        c.lease_expirations,
        c.floor_rounds
    );
    if c.elections > 0 || c.step_downs > 0 {
        println!(
            "  failover: {} election(s), {} step-down(s), final terms {:?}",
            c.elections, c.step_downs, c.terms
        );
    }
    println!();
    r
}

fn main() {
    let loopback = run("loopback (perfect plane)", RpcConfig::default());

    let lossy = run(
        "lossy (1-round latency, 20% loss, 5% dup, 6 W floor)",
        scenarios::lossy_plane(0.2),
    );

    let failover = run(
        "failover (primary partitioned rounds 8..20)",
        RpcConfig {
            failover: true,
            partitions: vec![PartitionSpec {
                from_round: 8,
                to_round: 20,
                nodes: vec!["primary".into()],
            }],
            ..RpcConfig::default()
        },
    );
    assert_eq!(failover.control.elections, 1);
    assert_eq!(failover.control.terms, vec![1, 1]);

    // Leases are what make the fleet this hard to hurt: a dropped renewal
    // means riding the previous cap (steady demand makes that nearly
    // free), never a stall — 20% loss costs ~0% makespan here, and the
    // leader change is invisible to the physics.
    println!(
        "loss cost the fleet {:+.1}% makespan; the failover run finished \
         within {:+.1}% of loopback under a different leader",
        100.0 * (lossy.makespan().as_secs_f64() / loopback.makespan().as_secs_f64() - 1.0),
        100.0 * (failover.makespan().as_secs_f64() / loopback.makespan().as_secs_f64() - 1.0),
    );
}
