//! The seven benchmark workloads: what each one runs, why it is in the
//! set, and how `--seed` perturbs its inputs.
//!
//! Every workload is a batch or closed-loop simulation driven from one
//! process on [`THREADS`] worker threads, never more than a small box has
//! cores, and none has an open-loop generator. Seed 0 keeps the seeds the
//! repository's experiments use; any other seed is XORed into every seed
//! the workload owns (mix, fleet spec, client and RPC seeds), so the same
//! seed always gives the same inputs.

use cluster::{
    synthetic_fleet, BalancePolicy, BudgetNode, BudgetTree, CapSplit, ClusterConfig, PartitionSpec,
    RpcConfig, ServerSpec,
};
use coscale::SimConfig;
use service::{
    ClientModel, ClosedLoopConfig, ServiceConfig, ServiceServerSpec, TierConfig, TierGraph,
};
use simkernel::Ps;

/// Worker threads for every multi-server workload.
pub const THREADS: usize = 2;

/// Which drivers a workload runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One CoScale server stepped epoch by epoch (`coscale::Runner`).
    Paper,
    /// A batch fleet (`cluster::ClusterSim`).
    Fleet,
    /// A closed-loop serving fleet (`service::ServiceSim`).
    Serve,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as `BENCHMARK.json` and `--workload` spell it.
    pub name: &'static str,
    /// Why the workload is in the set (one line).
    pub why: &'static str,
    /// Which drivers run it.
    pub kind: Kind,
}

/// The benchmark's workloads, in the order a full set runs them.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "paper_mem",
        why: "the paper's CoScale path on memory-bound MEM1 (MPKI 18.2): memsim carries most of the cycle simulation",
        kind: Kind::Paper,
    },
    Workload {
        name: "paper_ilp",
        why: "compute-bound ILP1 (MPKI 0.37): cpusim dominates and memsim idles, so a memsim change should not move it",
        kind: Kind::Paper,
    },
    Workload {
        name: "fleet_racks",
        why: "2048-server 90%-idle batch fleet, uniform root over FastCap racks of 64: set-up and per-epoch fixed cost dominate, the split is cheap",
        kind: Kind::Fleet,
    },
    Workload {
        name: "fleet_flat",
        why: "512-server flat FastCap at 20 mW quanta, one epoch per round: the quantum-greedy split dominates the run",
        kind: Kind::Fleet,
    },
    Workload {
        name: "serve_fluid",
        why: "10^6 fluid clients on six servers under diurnal think: the request path at its largest volume, 98% shed at admission",
        kind: Kind::Serve,
    },
    Workload {
        name: "serve_tiers",
        why: "96 exact clients over fe[2] -> st[2]*2@4: DAG tracking, trace collection and the critical-path split",
        kind: Kind::Serve,
    },
    Workload {
        name: "ctrl_lossy",
        why: "512 servers on a plane with 20% loss, jitter and a cut primary: message plane and lease ledger under takeover",
        kind: Kind::Fleet,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Full size for measurement, tiny for the unit tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// A seconds-long shrink of the same shape, for tests.
    #[cfg(test)]
    Tiny,
}

/// The built configuration of one workload.
#[allow(clippy::large_enum_variant)] // built once per process
pub enum Setup {
    /// A single CoScale server.
    Paper(SimConfig),
    /// A batch fleet.
    Fleet(ClusterConfig),
    /// A serving fleet.
    Serve(ServiceConfig),
}

/// Builds workload `name` at `size`, with `seed` XORed into its seeds.
///
/// # Panics
///
/// Panics if `name` is not one of [`WORKLOADS`].
pub fn build(name: &str, seed: u64, size: Size) -> Setup {
    fn pick<T>(size: Size, full: T, tiny: T) -> T {
        if size == Size::Full {
            full
        } else {
            tiny
        }
    }
    match name {
        "paper_mem" => Setup::Paper(paper("MEM1", pick(size, 5_000_000, 1_000_000), seed)),
        "paper_ilp" => Setup::Paper(paper("ILP1", pick(size, 40_000_000, 4_000_000), seed)),
        "fleet_racks" => Setup::Fleet(fleet_racks(pick(size, 2048, 128), seed)),
        "fleet_flat" => Setup::Fleet(fleet_flat(pick(size, 512, 64), seed)),
        "ctrl_lossy" => Setup::Fleet(ctrl_lossy(pick(size, 512, 48), seed)),
        "serve_fluid" => Setup::Serve(serve_fluid(pick(size, 20, 6), seed)),
        "serve_tiers" => Setup::Serve(serve_tiers(pick(size, 24, 6), seed)),
        other => panic!("unknown workload {other}"),
    }
}

/// One 16-core server running `mix` under CoScale at γ = 10%, Table 2
/// configuration, `target_instrs` per application.
fn paper(mix: &str, target_instrs: u64, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::for_mix(workloads::mix(mix).expect("Table 1 mix"));
    cfg.target_instrs = target_instrs;
    cfg.seed ^= seed;
    cfg
}

fn reseed(fleet: &mut [ServerSpec], seed: u64) {
    for s in fleet {
        s.config.seed ^= seed;
    }
}

/// `synthetic_fleet(n, 0.9)` with targets ÷4, a uniform root over FastCap
/// racks of 64, 100 W per server, 1 W quanta and four epochs per round.
fn fleet_racks(n: usize, seed: u64) -> ClusterConfig {
    let mut fleet = synthetic_fleet(n, 0.9);
    reseed(&mut fleet, seed);
    for s in &mut fleet {
        s.config.target_instrs = (s.config.target_instrs / 4).max(1);
    }
    let rack = if n >= 1024 { 64 } else { 16 };
    let racks = fleet
        .chunks(rack)
        .enumerate()
        .map(|(r, chunk)| {
            BudgetNode::group(
                &format!("rack{r}"),
                CapSplit::FastCap,
                chunk.iter().map(|s| BudgetNode::server(&s.name)).collect(),
            )
        })
        .collect();
    let tree = BudgetTree::new(BudgetNode::group("fleet", CapSplit::Uniform, racks));
    let mut c = ClusterConfig::new(fleet, 100.0 * n as f64, CapSplit::FastCap)
        .with_epochs_per_round(4)
        .with_threads(THREADS)
        .with_topology(tree);
    c.quantum_w = 1.0;
    c
}

/// The `fleet-scale` experiment's fleet: `synthetic_fleet(n, 0.9)`, flat
/// FastCap at 20 mW quanta, one epoch per round.
fn fleet_flat(n: usize, seed: u64) -> ClusterConfig {
    let mut fleet = synthetic_fleet(n, 0.9);
    reseed(&mut fleet, seed);
    let mut c = ClusterConfig::new(fleet, 100.0 * n as f64, CapSplit::FastCap)
        .with_epochs_per_round(1)
        .with_threads(THREADS);
    c.quantum_w = 0.02;
    c
}

/// Budget floor every server falls to when its lease expires on the lossy
/// plane, watts.
pub const LOSSY_FLOOR_W: f64 = 6.0;

/// `synthetic_fleet(n, 0.5)` under a uniform split of 60 W per server, one
/// epoch per round, on a plane with one round of latency and of jitter, 20% loss and 5%
/// duplication, a standby coordinator and the primary cut for rounds 8–16.
fn ctrl_lossy(n: usize, seed: u64) -> ClusterConfig {
    let mut fleet = synthetic_fleet(n, 0.5);
    reseed(&mut fleet, seed);
    let rpc = RpcConfig {
        latency_us: 10.0,
        jitter_us: 10.0,
        loss: 0.2,
        duplicate: 0.05,
        seed: RpcConfig::default().seed ^ seed,
        failover: true,
        floor_cap_w: LOSSY_FLOOR_W,
        partitions: vec![PartitionSpec {
            from_round: 8,
            to_round: 16,
            nodes: vec!["primary".into()],
        }],
        ..RpcConfig::default()
    };
    ClusterConfig::new(fleet, 60.0 * n as f64, CapSplit::Uniform)
        .with_epochs_per_round(1)
        .with_threads(THREADS)
        .with_rpc(rpc)
}

/// The `fluid-clients` diurnal fleet: six servers, 300 W FastCap, 10⁶
/// fluid clients thinking 500 ms with a 10 ms / 0.9 diurnal swing,
/// least-queue balancing.
fn serve_fluid(rounds: usize, seed: u64) -> ServiceConfig {
    let fleet = (0..6)
        .map(|i| {
            let mix = ["ILP1", "MID1", "ILP2", "MID2", "ILP1", "MID1"][i];
            ServiceServerSpec::small(&format!("srv{i}"), mix, 9 ^ (i as u64 + 1) ^ seed, 0.0)
                .with_p99_target_s(2e-3)
        })
        .collect();
    ServiceConfig::new(fleet, 300.0, CapSplit::FastCap)
        .with_rounds(rounds)
        .with_threads(THREADS)
        .with_closed_loop(
            ClosedLoopConfig::new(1_000_000, Ps::from_ms(500), BalancePolicy::LeastQueue)
                .with_seed(9 ^ seed)
                .with_model(ClientModel::Fluid)
                .with_think_diurnal(Ps::from_ms(10), 0.9),
        )
}

/// The `multi-tier` experiment's fleet: `fe[2] -> st[2]*2@4` at 220 W
/// under the critical-path tier split, 96 exact clients at 100 µs think.
fn serve_tiers(rounds: usize, seed: u64) -> ServiceConfig {
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
            ServiceServerSpec::small_with_cores(name, mix, (40 + i as u64) ^ seed, 0.0, 4)
        })
        .collect();
    let clients = ClosedLoopConfig::new(96, Ps::from_us(100), BalancePolicy::LeastQueue);
    let seed_clients = clients.seed ^ seed;
    ServiceConfig::new(fleet, 220.0, CapSplit::FastCap)
        .with_rounds(rounds)
        .with_threads(THREADS)
        .with_closed_loop(
            clients
                .with_seed(seed_clients)
                .with_mean_request_instrs(60_000.0),
        )
        .with_tiers(
            TierConfig::new(graph)
                .with_e2e_target_s(4e-3)
                .with_tier_split(CapSplit::CriticalPath),
        )
}
