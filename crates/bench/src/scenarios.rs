//! The named fleet scenarios, each defined once. The cluster experiments
//! and the fleet examples build from these constructors and keep only
//! their sweeps, asserts and printing; a constructor takes only the
//! settings its callers vary. `quick` selects the scale of
//! `experiments --quick`.

use cluster::{BalancePolicy, BudgetTree, CapSplit, ClusterConfig, RpcConfig, ServerSpec};
use service::{
    ArrivalKind, ClosedLoopConfig, ServiceConfig, ServiceServerSpec, TierConfig, TierGraph,
};
use simkernel::Ps;

/// The cap a control-plane server falls to when its lease expires, watts.
pub const FLOOR_CAP_W: f64 = 6.0;

/// Cluster capping: big memory-bound servers next to small compute-bound
/// ones under 62.5 W per server, tight enough to throttle the big servers
/// and loose enough that a uniform share over-provisions the small ones.
/// The faster servers get proportionally longer workloads, so the fleet
/// stays busy together. Eight servers, or at `quick` the four named `-a`
/// and `-b`.
pub fn cluster_capping(split: CapSplit, quick: bool) -> ClusterConfig {
    let fleet: Vec<ServerSpec> = [
        ("mem-8c-a", "MEM2", 1, 8),
        ("mem-8c-b", "MEM2", 2, 8),
        ("mem-8c-c", "MEM2", 3, 8),
        ("mid-4c", "MID1", 4, 4),
        ("ilp-2c-a", "ILP2", 5, 2),
        ("ilp-2c-b", "ILP2", 6, 2),
        ("ilp-2c-c", "ILP2", 7, 2),
        ("ilp-2c-d", "ILP2", 8, 2),
    ]
    .into_iter()
    .filter(|(name, ..)| !quick || name.ends_with('a') || name.ends_with('b'))
    .map(|(name, mix, seed, cores)| {
        let mut s = ServerSpec::small_with_cores(name, mix, seed, cores);
        s.config.target_instrs *= match cores {
            2 => 3,
            4 => 2,
            _ => 1,
        };
        s
    })
    .collect();
    let global_cap_w = 62.5 * fleet.len() as f64;
    ClusterConfig::new(fleet, global_cap_w, split)
        .with_epochs_per_round(2)
        .with_threads(4)
}

/// Service SLA: one 8-core memory-bound server pushed near its full-speed
/// serving capacity at `load` 1.0, next to three lightly loaded servers,
/// all under 280 W and a 1 ms p99 target.
pub fn service_sla(split: CapSplit, load: f64, quick: bool) -> ServiceConfig {
    let fleet = vec![
        ServiceServerSpec::small_with_cores("heavy", "MEM2", 11, 230_000.0 * load, 8)
            .with_p99_target_s(1e-3),
        ServiceServerSpec::small("light0", "ILP1", 12, 30_000.0 * load).with_p99_target_s(1e-3),
        ServiceServerSpec::small("light1", "ILP2", 13, 30_000.0 * load).with_p99_target_s(1e-3),
        ServiceServerSpec::small("light2", "MID2", 14, 30_000.0 * load).with_p99_target_s(1e-3),
    ];
    ServiceConfig::new(fleet, 280.0, split)
        .with_rounds(if quick { 16 } else { 40 })
        .with_threads(4)
}

/// Hierarchical capping: a bursty rack (`h0`'s MMPP stream bursts to
/// 240k req/s against a ~230k req/s full-power serving capacity, beside
/// its calm rack-mate `m0`) next to a quiet pod of two lightly loaded
/// servers, under 280 W and a 1 ms p99 target. The budget splits flat by
/// `split`, or, with `tree`, down
/// `dc:uniform[rack:sla-aware[h0,m0],pod:fastcap[q0,q1]]`.
pub fn hierarchical_capping(split: CapSplit, tree: bool, quick: bool) -> ServiceConfig {
    let fleet = vec![
        ServiceServerSpec::small_with_cores("h0", "MEM2", 11, 200_000.0, 8)
            .with_p99_target_s(1e-3)
            .with_arrivals(ArrivalKind::Mmpp {
                rate_hz: 200_000.0,
                burst_factor: 1.2,
                mean_calm: Ps::from_ms(3),
                mean_burst: Ps::from_ms(2),
                diurnal_period: Ps::ZERO,
                diurnal_depth: 0.0,
            }),
        ServiceServerSpec::small("m0", "MID1", 12, 25_000.0).with_p99_target_s(1e-3),
        ServiceServerSpec::small("q0", "ILP1", 13, 30_000.0).with_p99_target_s(1e-3),
        ServiceServerSpec::small("q1", "MID2", 14, 30_000.0).with_p99_target_s(1e-3),
    ];
    let mut cfg = ServiceConfig::new(fleet, 280.0, split)
        .with_rounds(if quick { 20 } else { 40 })
        .with_threads(4);
    if tree {
        cfg = cfg.with_topology(
            BudgetTree::parse("dc:uniform[rack:sla-aware[h0,m0],pod:fastcap[q0,q1]]")
                .expect("valid budget tree"),
        );
    }
    cfg
}

/// Closed-loop balancing: 320 clients with a 100 µs mean think, routed by
/// `balance` over one 8-core memory-bound server and three small ones. A
/// uniform split of 200 W throttles the big server near its power floor;
/// the p99 target is 2 ms.
pub fn closed_loop_balancing(balance: BalancePolicy, quick: bool) -> ServiceConfig {
    let fleet = vec![
        ServiceServerSpec::small_with_cores("big", "MEM2", 11, 0.0, 8).with_p99_target_s(2e-3),
        ServiceServerSpec::small("small0", "ILP1", 12, 0.0).with_p99_target_s(2e-3),
        ServiceServerSpec::small("small1", "ILP2", 13, 0.0).with_p99_target_s(2e-3),
        ServiceServerSpec::small("small2", "ILP1", 14, 0.0).with_p99_target_s(2e-3),
    ];
    ServiceConfig::new(fleet, 200.0, CapSplit::Uniform)
        .with_rounds(if quick { 16 } else { 40 })
        .with_threads(4)
        .with_closed_loop(
            ClosedLoopConfig::new(320, Ps::from_us(100), balance)
                .with_mean_request_instrs(120_000.0),
        )
}

/// The control plane: four MID1 servers, each running `instr_scale` times
/// the small default workload, under a 120 W FastCap budget on the plane
/// `rpc`.
pub fn control_plane(rpc: RpcConfig, instr_scale: u64) -> ClusterConfig {
    let fleet = (0..4)
        .map(|i| {
            let mut s = ServerSpec::small(&format!("s{i}"), "MID1", 1 + i);
            s.config.target_instrs *= instr_scale;
            s
        })
        .collect();
    ClusterConfig::new(fleet, 120.0, CapSplit::FastCap).with_rpc(rpc)
}

/// The control plane's lossy plane: one round (1250 µs) of one-way
/// latency, `loss`, 5% duplication and a [`FLOOR_CAP_W`] floor.
pub fn lossy_plane(loss: f64) -> RpcConfig {
    RpcConfig {
        latency_us: 1250.0,
        loss,
        duplicate: 0.05,
        floor_cap_w: FLOOR_CAP_W,
        ..RpcConfig::default()
    }
}

/// Multi-tier: 96 closed-loop clients whose requests fan out as
/// `fe[2] -> st[2]*2@4` DAGs over 4-core ILP1 front ends and MID2 storage
/// servers, under 220 W split across the tiers by `tier_split`, with a
/// 4 ms end-to-end p99 target over 24 rounds.
pub fn multi_tier(tier_split: CapSplit, threads: usize) -> ServiceConfig {
    let graph: TierGraph = "fe[2] -> st[2]*2@4".parse().expect("valid tier graph");
    let fleet = graph
        .server_names()
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mix = if name.starts_with("fe") {
                "ILP1"
            } else {
                "MID2"
            };
            ServiceServerSpec::small_with_cores(name, mix, 40 + i as u64, 0.0, 4)
        })
        .collect();
    ServiceConfig::new(fleet, 220.0, CapSplit::FastCap)
        .with_rounds(24)
        .with_threads(threads)
        .with_closed_loop(
            ClosedLoopConfig::new(96, Ps::from_us(100), BalancePolicy::LeastQueue)
                .with_mean_request_instrs(60_000.0),
        )
        .with_tiers(
            TierConfig::new(graph)
                .with_e2e_target_s(4e-3)
                .with_tier_split(tier_split),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::PartitionSpec;

    fn cut(from_round: u64, to_round: u64, nodes: &[&str]) -> PartitionSpec {
        PartitionSpec {
            from_round,
            to_round,
            nodes: nodes.iter().map(|n| n.to_string()).collect(),
        }
    }

    /// Every constructor at both scales and at every setting the
    /// experiments and the examples pass: `experiments --quick` reaches
    /// only one scale, so an invalid full-scale config would otherwise
    /// surface only in a full run.
    #[test]
    fn every_scenario_validates_at_every_scale() {
        let splits = [
            CapSplit::Uniform,
            CapSplit::DemandProportional,
            CapSplit::FastCap,
            CapSplit::SlaAware,
        ];
        let mut clusters = Vec::new();
        let mut services = Vec::new();
        for quick in [false, true] {
            for split in splits {
                clusters.push(cluster_capping(split, quick));
                for load in [0.75, 1.0] {
                    services.push(service_sla(split, load, quick));
                }
                for tree in [false, true] {
                    services.push(hierarchical_capping(split, tree, quick));
                }
            }
            for balance in [
                BalancePolicy::RoundRobin,
                BalancePolicy::LeastQueue,
                BalancePolicy::PowerHeadroom,
            ] {
                services.push(closed_loop_balancing(balance, quick));
            }
        }
        let planes = [
            RpcConfig::default(),
            RpcConfig {
                failover: true,
                partitions: vec![cut(8, 20, &["primary"])],
                ..RpcConfig::default()
            },
            RpcConfig {
                failover: true,
                floor_cap_w: FLOOR_CAP_W,
                partitions: vec![cut(8, 16, &["primary"]), cut(20, 70, &["s2", "s3"])],
                ..RpcConfig::default()
            },
            RpcConfig {
                jitter_us: 1250.0,
                failover: true,
                partitions: vec![cut(8, 16, &["primary"])],
                ..lossy_plane(0.2)
            },
        ]
        .into_iter()
        .chain([0.0, 0.05, 0.1, 0.2, 0.3, 0.4].map(lossy_plane));
        for rpc in planes {
            for instr_scale in [20, 90] {
                clusters.push(control_plane(rpc.clone(), instr_scale));
            }
        }
        for tier_split in [
            CapSplit::Uniform,
            CapSplit::DemandProportional,
            CapSplit::CriticalPath,
        ] {
            for threads in [1, 2, 4, 8] {
                services.push(multi_tier(tier_split, threads));
            }
        }
        for cfg in &clusters {
            let names: Vec<&str> = cfg.servers.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(cfg.validate(), Ok(()), "{names:?} / {}", cfg.split);
        }
        for cfg in &services {
            let names: Vec<&str> = cfg.servers.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(cfg.validate(), Ok(()), "{names:?} / {}", cfg.split);
        }
    }
}
