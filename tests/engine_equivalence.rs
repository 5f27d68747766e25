//! Differential harness for the fleet loops: the batch loop (active
//! list, persistent worker pool) must be **bit-identical** to the serial
//! reference loop in [`oracle`] — same energies, caps, makespans and
//! control-plane outcome — for every configuration, at every worker-thread
//! count, and the serving loop must give the same digest at every thread
//! count.
//!
//! Four layers of evidence:
//! 1. property tests sweeping fleet size, cap split, churn, topology,
//!    balancer, and open/closed loop, asserting digest equality with the
//!    oracle (batch) or across 1, 2, 4 and 8 threads (serving);
//! 2. a property test pinning the split executor (`HierSplitter`) to the
//!    recursive reference allocator in [`oracle::tree`]: bit-identical
//!    caps, `GroupShare` transcripts and floor errors;
//! 3. pinned golden digests for the four fleet-level bench experiments
//!    (cluster capping, serving SLOs, hierarchical budgets, closed-loop
//!    balancing), built from `bench::scenarios`, and for serving churn, so
//!    a drift in the loop, the oracle *or* a scenario is loud;
//! 4. `#[ignore]`d 1024- and 16384-server / 90%-idle differential smokes
//!    for the nightly `--release -- --ignored` job.

mod oracle;

use bench::scenarios;
use cluster::{
    run_cluster, synthetic_fleet, BudgetNode, BudgetTree, ClusterConfig, ClusterResult, GroupShare,
    HierSplitter, PartitionSpec, RpcConfig, ServerDemand, ServerSpec, SlaSignal, TreeSignals,
};
use proptest::prelude::*;
use service::{
    run_service, BalancePolicy, CapSplit, ChurnSchedule, ClosedLoopConfig, ServiceConfig,
    ServiceServerSpec,
};
use simkernel::{Ps, SimRng};

/// FNV-1a over the digest text (same constant-pinning scheme as
/// `tests/invariants.rs`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Runs `make()` through the serial oracle, then through the fleet loop
/// across the thread sweep, asserting every digest matches. Returns the
/// oracle's digest for optional pinning.
fn assert_cluster_matches_oracle(label: &str, make: &dyn Fn() -> ClusterConfig) -> String {
    let reference = oracle::run(&make()).digest();
    for threads in THREAD_SWEEP {
        let got = run_cluster(make().with_threads(threads)).digest();
        assert_eq!(reference, got, "[{label}] oracle vs fleet loop @{threads}");
    }
    reference
}

/// Runs `make()` at every thread count of the sweep, asserting every
/// digest matches the one-thread run's. Returns that digest.
fn assert_service_thread_invariant(label: &str, make: &dyn Fn() -> ServiceConfig) -> String {
    let reference = run_service(make().with_threads(1)).digest();
    for threads in &THREAD_SWEEP[1..] {
        let got = run_service(make().with_threads(*threads)).digest();
        assert_eq!(reference, got, "[{label}] 1 vs {threads} threads");
    }
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Batch fleets: any synthetic fleet (size, idle mix), any split, flat
    /// or tree-shaped budgets, any epochs-per-round — the fleet loop
    /// reproduces the oracle's digest at every thread count.
    #[test]
    fn batch_engines_agree_for_any_fleet(
        n in 2usize..5,
        idle_pct in 0u8..3,
        split in 0u8..3,
        epochs in 1usize..3,
        topo in any::<bool>(),
    ) {
        let split = [CapSplit::Uniform, CapSplit::DemandProportional, CapSplit::FastCap]
            [split as usize];
        let idle_fraction = [0.0, 0.5, 0.9][idle_pct as usize];
        let make = move || {
            let fleet = synthetic_fleet(n, idle_fraction);
            let cap_w = 55.0 * n as f64;
            let mut cfg = ClusterConfig::new(fleet, cap_w, split)
                .with_epochs_per_round(epochs);
            if topo && n >= 3 {
                let (a, b): (Vec<_>, Vec<_>) =
                    (0..n).map(|i| format!("s{i:04}")).partition(|s| s.as_str() < "s0002");
                let spec = format!(
                    "f:uniform[a:fastcap[{}],b:demand[{}]]",
                    a.join(","),
                    b.join(",")
                );
                cfg = cfg.with_topology(BudgetTree::parse(&spec).unwrap());
            }
            cfg
        };
        assert_cluster_matches_oracle("batch-prop", &make);
    }

    /// Serving fleets: open- or closed-loop arrivals, every balancer and
    /// split, with and without churn and hierarchical budgets — the same
    /// digest at every thread count.
    #[test]
    fn serving_engines_agree_for_any_fleet(
        seed in any::<u64>(),
        split in 0u8..3,
        policy in 0u8..3,
        closed in any::<bool>(),
        churn in any::<bool>(),
        topo in any::<bool>(),
        rounds in 6usize..9,
    ) {
        let split = [CapSplit::Uniform, CapSplit::FastCap, CapSplit::SlaAware][split as usize];
        let balance = [
            BalancePolicy::RoundRobin,
            BalancePolicy::LeastQueue,
            BalancePolicy::PowerHeadroom,
        ][policy as usize];
        let make = move || {
            let rate = if closed { 0.0 } else { 30_000.0 };
            let fleet = vec![
                ServiceServerSpec::small("s0", "MID1", seed ^ 1, rate).with_p99_target_s(2e-3),
                ServiceServerSpec::small("s1", "ILP1", seed ^ 2, rate).with_p99_target_s(2e-3),
                ServiceServerSpec::small("s2", "MEM1", seed ^ 3, rate).with_p99_target_s(2e-3),
            ];
            let mut cfg = ServiceConfig::new(fleet, 140.0, split).with_rounds(rounds);
            if closed {
                cfg = cfg.with_closed_loop(
                    ClosedLoopConfig::new(24, Ps::from_us(120), balance).with_seed(seed),
                );
            }
            if churn {
                let mut sched = ChurnSchedule::new();
                sched
                    .join(
                        2,
                        "late",
                        ServiceServerSpec::small("late", "ILP2", seed ^ 4, rate)
                            .with_p99_target_s(2e-3),
                    )
                    .unwrap();
                sched.leave(rounds - 2, "s1").unwrap();
                cfg = cfg.with_churn(sched);
            }
            if topo {
                let tree =
                    BudgetTree::parse("f:uniform[a:fastcap[s0,s1],b:sla-aware[s2]]").unwrap();
                cfg = cfg.with_topology(tree);
            }
            cfg
        };
        assert_service_thread_invariant("serve-prop", &make);
    }
}

/// The empty-barrier path: churn drains the whole fleet mid-run, leaves it
/// empty for two rounds, then refills it. Barriers must keep firing over
/// the empty fleet so the late joiner is admitted on schedule, and an
/// empty pool batch must not disturb the digest at any thread count.
#[test]
fn engines_agree_when_churn_empties_the_fleet() {
    let make = || {
        let fleet = vec![
            ServiceServerSpec::small("a", "MID1", 31, 25_000.0),
            ServiceServerSpec::small("b", "ILP1", 32, 25_000.0),
        ];
        let mut sched = ChurnSchedule::new();
        sched.leave(1, "a").unwrap();
        sched.leave(2, "b").unwrap();
        sched
            .join(
                5,
                "late",
                ServiceServerSpec::small("late", "MEM1", 33, 25_000.0),
            )
            .unwrap();
        ServiceConfig::new(fleet, 90.0, CapSplit::FastCap)
            .with_rounds(8)
            .with_churn(sched)
    };
    let d = assert_service_thread_invariant("empty-fleet", &make);
    assert!(
        d.contains("late departed=false"),
        "the late joiner never ran:\n{d}"
    );
}

// ---------------------------------------------------------------------------
// Control-plane equivalence. Every batch test above already proves the
// loopback message plane reproduces the direct-call coordinator: batch
// cluster traffic flows through `ControlPlane`. Serving fleets split
// directly through `HierSplitter` and never touch the plane. These tests
// pin the remaining failover claims and the lossy plane without a standby.
// ---------------------------------------------------------------------------

/// A standby coordinator at loopback is a pure observer: with `failover`
/// on but no partition, heartbeats replicate state every barrier, no
/// election ever fires, and the digest is bit-identical to the
/// failover-less run — in the oracle and the fleet loop alike.
#[test]
fn loopback_standby_is_a_pure_observer() {
    let fleet = |rpc: RpcConfig| {
        let servers: Vec<ServerSpec> = (0..4)
            .map(|i| {
                let mut s = ServerSpec::small(&format!("s{i}"), "MID1", 1 + i);
                s.config.target_instrs *= 10;
                s
            })
            .collect();
        ClusterConfig::new(servers, 120.0, CapSplit::FastCap).with_rpc(rpc)
    };
    let plain = run_cluster(fleet(RpcConfig::default()));
    let watched = fleet(RpcConfig {
        failover: true,
        ..RpcConfig::default()
    });
    let reference = oracle::run(&watched);
    assert_eq!(
        plain.digest(),
        reference.digest(),
        "a heartbeating standby changed the physics"
    );
    assert_eq!(reference.control.elections, 0);
    assert_eq!(reference.control.terms, vec![0, 0]);
    for threads in [1, 4, 8] {
        let d = run_cluster(watched.clone().with_threads(threads));
        assert_eq!(
            reference.digest(),
            d.digest(),
            "standby loopback: oracle vs fleet loop @{threads}"
        );
        assert_eq!(d.control.elections, 0);
    }
}

/// Loopback failover: partition the primary mid-run and the standby takes
/// over by exactly one election; at zero latency the replication gap is
/// empty (each heartbeat reflects its entire barrier, acks included), so
/// the in-force caps conserve the budget **strictly** through the
/// partition, the takeover, and the primary's post-heal step-down — and
/// the fleet loop reproduces the oracle at every thread count.
#[test]
fn loopback_failover_conserves_strictly_and_is_deterministic() {
    let budget = 120.0;
    let make = || {
        let servers: Vec<ServerSpec> = (0..4)
            .map(|i| {
                let mut s = ServerSpec::small(&format!("s{i}"), "MID1", 1 + i);
                s.config.target_instrs *= 30;
                s
            })
            .collect();
        let rpc = RpcConfig {
            failover: true,
            partitions: vec![PartitionSpec {
                from_round: 8,
                to_round: 24,
                nodes: vec!["primary".into()],
            }],
            ..RpcConfig::default()
        };
        ClusterConfig::new(servers, budget, CapSplit::FastCap).with_rpc(rpc)
    };
    let reference = oracle::run(&make());
    assert!(
        reference.rounds > 26,
        "horizon too short ({} rounds) to cover the partition window",
        reference.rounds
    );
    assert_eq!(reference.control.elections, 1, "exactly one takeover");
    assert!(
        reference.control.step_downs >= 1,
        "the healed primary must step down"
    );
    assert_eq!(
        reference.control.terms,
        vec![1, 1],
        "both coordinators converge on the standby's term"
    );
    for (round, caps) in reference.cap_timeline.iter().enumerate() {
        let total: f64 = caps.iter().sum();
        assert!(
            total <= budget + 1e-9,
            "round {round}: in-force caps {total:.6} W exceed the {budget} W budget"
        );
    }
    for threads in [1, 4, 8] {
        let d = run_cluster(make().with_threads(threads));
        assert_eq!(
            reference.digest(),
            d.digest(),
            "failover loopback: oracle vs fleet loop @{threads}"
        );
    }
}

/// One lossy-plane run without a standby, and what it must reproduce.
struct NoStandbyCase {
    split: CapSplit,
    latency_rounds: u64,
    jitter_rounds: u64,
    loss: f64,
    duplicate: f64,
    /// Cut two long-running servers off for rounds 6..20.
    partition: bool,
    /// Split over two FastCap racks under a uniform root.
    racks: bool,
    golden: u64,
    /// Grants sent, applied, stale, expired; acks; lease expirations;
    /// floor and suspect rounds; plane sent, delivered, dropped by loss,
    /// dropped by partition, duplicated; in flight at the end.
    counters: [u64; 14],
}

/// A lossy plane without a standby coordinator, where every lease release
/// is confirmed at once. The other lossy goldens all run with failover,
/// so these six runs pin this path's digest and transport counters across
/// three splits, 0–2 rounds of latency and of jitter, 20–40% loss with
/// duplication, a two-server partition and a two-rack topology.
#[test]
fn lossy_plane_without_standby_is_pinned() {
    let cases = [
        NoStandbyCase {
            split: CapSplit::FastCap,
            latency_rounds: 1,
            jitter_rounds: 0,
            loss: 0.2,
            duplicate: 0.05,
            partition: false,
            racks: false,
            golden: 5920456755221690662,
            counters: [181, 148, 11, 0, 126, 3, 0, 0, 664, 569, 120, 0, 35, 10],
        },
        NoStandbyCase {
            split: CapSplit::Uniform,
            latency_rounds: 0,
            jitter_rounds: 1,
            loss: 0.3,
            duplicate: 0.1,
            partition: false,
            racks: false,
            golden: 13455993071222828853,
            counters: [174, 124, 13, 0, 101, 5, 0, 0, 641, 470, 208, 0, 40, 3],
        },
        NoStandbyCase {
            split: CapSplit::DemandProportional,
            latency_rounds: 2,
            jitter_rounds: 1,
            loss: 0.4,
            duplicate: 0.1,
            partition: true,
            racks: false,
            golden: 14220695104210111041,
            counters: [170, 91, 8, 0, 65, 66, 31, 30, 653, 393, 246, 41, 43, 16],
        },
        NoStandbyCase {
            split: CapSplit::FastCap,
            latency_rounds: 1,
            jitter_rounds: 2,
            loss: 0.25,
            duplicate: 0.05,
            partition: false,
            racks: true,
            golden: 7773451955391085306,
            counters: [186, 138, 17, 0, 125, 7, 0, 0, 683, 557, 142, 0, 31, 15],
        },
        NoStandbyCase {
            split: CapSplit::Uniform,
            latency_rounds: 2,
            jitter_rounds: 2,
            loss: 0.35,
            duplicate: 0.15,
            partition: true,
            racks: false,
            golden: 1000056536771228534,
            counters: [183, 81, 20, 0, 54, 109, 37, 21, 674, 413, 242, 50, 52, 21],
        },
        NoStandbyCase {
            split: CapSplit::DemandProportional,
            latency_rounds: 0,
            jitter_rounds: 0,
            loss: 0.2,
            duplicate: 0.2,
            partition: false,
            racks: true,
            golden: 4839744565760670780,
            counters: [230, 178, 42, 0, 222, 3, 0, 0, 768, 755, 155, 0, 142, 0],
        },
    ];
    for (k, case) in cases.iter().enumerate() {
        let fleet = synthetic_fleet(6, 0.34);
        let names: Vec<String> = fleet.iter().map(|s| s.name.clone()).collect();
        let mut config = ClusterConfig::new(fleet, 40.0 * 6.0, case.split).with_epochs_per_round(1);
        let round_us = config.round_s() * 1e6;
        let partitions = if case.partition {
            vec![PartitionSpec {
                from_round: 6,
                to_round: 20,
                nodes: vec![names[3].clone(), names[4].clone()],
            }]
        } else {
            vec![]
        };
        config = config.with_rpc(RpcConfig {
            latency_us: round_us * case.latency_rounds as f64,
            jitter_us: round_us * case.jitter_rounds as f64,
            loss: case.loss,
            duplicate: case.duplicate,
            seed: 0x10_55 + k as u64,
            floor_cap_w: 4.0,
            partitions,
            ..RpcConfig::default()
        });
        if case.racks {
            config = config.with_topology(rack_tree(&names, 3));
        }
        let resolved = config.rpc.resolve(config.round_s()).unwrap();
        assert_eq!(
            (resolved.latency_rounds, resolved.jitter_rounds),
            (case.latency_rounds, case.jitter_rounds),
            "case {k}: delays must land on whole rounds"
        );
        let r = run_cluster(config);
        let c = &r.control;
        let counters = [
            c.grants_sent,
            c.grants_applied,
            c.grants_stale,
            c.grants_expired,
            c.acks,
            c.lease_expirations,
            c.floor_rounds,
            c.suspect_rounds,
            c.plane.sent,
            c.plane.delivered,
            c.plane.dropped_loss,
            c.plane.dropped_partition,
            c.plane.duplicated,
            c.in_flight_at_end as u64,
        ];
        let got = fnv1a(r.digest().as_bytes());
        println!("case {k}: golden {got}, counters {counters:?}");
        assert_eq!(got, case.golden, "case {k}: digest drifted");
        assert_eq!(
            counters, case.counters,
            "case {k}: control counters drifted"
        );
    }
}

// ---------------------------------------------------------------------------
// The split executor. `HierSplitter` walks a compiled budget tree afresh at
// every split: it must equal the recursive reference allocator
// (`oracle::tree`) bit for bit.
// ---------------------------------------------------------------------------

/// Every discipline a budget-tree node can run.
const GROUP_SPLITS: [CapSplit; 5] = [
    CapSplit::Uniform,
    CapSplit::DemandProportional,
    CapSplit::FastCap,
    CapSplit::SlaAware,
    CapSplit::CriticalPath,
];

/// A two-rack topology over `n` servers named `h0..h{n-1}`, split at
/// `n / 2`, with per-node disciplines.
fn two_rack_tree(
    n: usize,
    root: CapSplit,
    r0: CapSplit,
    r1: CapSplit,
) -> (BudgetTree, Vec<String>) {
    let names: Vec<String> = (0..n).map(|i| format!("h{i}")).collect();
    let rack = |label: &str, split: CapSplit, servers: &[String]| {
        BudgetNode::group(
            label,
            split,
            servers.iter().map(|s| BudgetNode::server(s)).collect(),
        )
    };
    let mid = n / 2;
    let tree = BudgetTree::new(BudgetNode::group(
        "fleet",
        root,
        vec![
            rack("rack0", r0, &names[..mid]),
            rack("rack1", r1, &names[mid..]),
        ],
    ));
    (tree, names)
}

/// A uniform root over FastCap racks of `rack_size` servers each — the
/// shape the fleet-scale smokes and benches use.
fn rack_tree(names: &[String], rack_size: usize) -> BudgetTree {
    let racks = names
        .chunks(rack_size)
        .enumerate()
        .map(|(r, chunk)| {
            BudgetNode::group(
                &format!("rack{r}"),
                CapSplit::FastCap,
                chunk.iter().map(|s| BudgetNode::server(s)).collect(),
            )
        })
        .collect();
    BudgetTree::new(BudgetNode::group("fleet", CapSplit::Uniform, racks))
}

/// Deterministic pseudo-random per-server telemetry.
fn random_telemetry(rng: &mut SimRng, n: usize) -> (Vec<ServerDemand>, Vec<SlaSignal>) {
    let demands = (0..n)
        .map(|_| ServerDemand {
            demand_w: 20.0 + 80.0 * rng.f64(),
            min_w: 5.0 + 10.0 * rng.f64(),
            active: rng.f64() > 0.15,
        })
        .collect();
    let sla = (0..n)
        .map(|_| SlaSignal {
            p99_s: if rng.f64() < 0.3 {
                0.0
            } else {
                1e-3 * (0.5 + rng.f64())
            },
            target_s: 1e-3,
        })
        .collect();
    (demands, sla)
}

/// Field-wise bit equality of two `GroupShare` transcripts.
fn assert_traces_match(label: &str, got: &[GroupShare], want: &[GroupShare]) {
    assert_eq!(got.len(), want.len(), "[{label}] trace length");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.label, w.label, "[{label}] group order");
        assert_eq!(
            g.budget_w.to_bits(),
            w.budget_w.to_bits(),
            "[{label}] {}: {} W vs {} W",
            g.label,
            g.budget_w,
            w.budget_w
        );
        assert_eq!(g.leaves, w.leaves, "[{label}] {} leaves", g.label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One splitter, reused across a telemetry sequence, is a pure
    /// function: caps and the full `GroupShare` transcript bit-match the
    /// recursive reference allocator for any discipline mix, with SLA
    /// signals, critical-path shares and per-tier floors — and where the
    /// floors over-commit a node both return the same `SplitError`.
    #[test]
    fn hier_cache_bit_matches_the_tree_at_zero_dead_band(
        seed in any::<u64>(),
        n in 4usize..9,
        root in 0u8..5,
        r0 in 0u8..5,
        r1 in 0u8..5,
        steps in 2usize..6,
    ) {
        let (tree, names) = two_rack_tree(
            n,
            GROUP_SPLITS[root as usize],
            GROUP_SPLITS[r0 as usize],
            GROUP_SPLITS[r1 as usize],
        );
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut h = HierSplitter::new(&tree, &name_refs);
        let mut rng = SimRng::new(seed);
        for step in 0..steps {
            let (demands, sla) = random_telemetry(&mut rng, n);
            // Critical-path shares, all zero (sparse traces) a quarter of
            // the time. A fifth of the steps get 2–10 W per server, mostly
            // below the 5–15 W power floors, where tier floors over-commit
            // critical-path nodes.
            let sparse = rng.f64() < 0.25;
            let crit: Vec<f64> =
                (0..n).map(|_| if sparse { 0.0 } else { rng.f64() }).collect();
            let tier_floor_frac = 0.9 * rng.f64();
            let budget = if rng.f64() < 0.2 {
                2.0 * n as f64 * (1.0 + 4.0 * rng.f64())
            } else {
                40.0 * n as f64 * (0.5 + rng.f64())
            };
            let sig = TreeSignals { sla: Some(&sla), crit: Some(&crit), tier_floor_frac };
            let got = h.split_with_trace(budget, &demands, &sig, 0.5);
            let want = oracle::tree::split(&tree, budget, &name_refs, &demands, &sig, 0.5);
            let ((caps, trace), (want, want_trace)) = match (got, want) {
                (Ok(got), Ok(want)) => (got, want),
                (got, want) => {
                    prop_assert_eq!(got.err(), want.err(), "step {}", step);
                    continue;
                }
            };
            for (i, (a, b)) in caps.iter().zip(&want).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "step {} cap {}: {} vs {}", step, i, a, b);
            }
            assert_traces_match(&format!("step {step}"), &trace, &want_trace);
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned goldens for the four fleet-level bench experiments. Each builds
// its `--quick` scenario from `bench::scenarios`, as
// `crates/bench/src/experiments.rs` does (with shortened horizons where
// the full quick run would dominate the suite); one representative row of
// each table is pinned at every thread count (and, for the batch row, in
// the oracle too). If an intentional simulation change shifts a constant,
// re-pin it — the test exists to make such shifts loud in the same commit
// that causes them.
// ---------------------------------------------------------------------------

/// `cluster_capping` (quick fleet, FastCap row).
#[test]
fn golden_cluster_capping_agrees_and_is_pinned() {
    const GOLDEN: u64 = 8740660264855400926;
    let make = || scenarios::cluster_capping(CapSplit::FastCap, true);
    let d = assert_cluster_matches_oracle("cluster_capping", &make);
    println!("cluster_capping fnv = {}", fnv1a(d.as_bytes()));
    assert_eq!(fnv1a(d.as_bytes()), GOLDEN, "digest drifted:\n{d}");
}

/// `service_sla` (load 1.0, SLA-aware row, shortened horizon).
#[test]
fn golden_service_sla_agrees_and_is_pinned() {
    const GOLDEN: u64 = 3851301938566848033;
    let make = || scenarios::service_sla(CapSplit::SlaAware, 1.0, true).with_rounds(8);
    let d = assert_service_thread_invariant("service_sla", &make);
    println!("service_sla fnv = {}", fnv1a(d.as_bytes()));
    assert_eq!(fnv1a(d.as_bytes()), GOLDEN, "digest drifted:\n{d}");
}

/// `hierarchical_capping` (tree row, shortened horizon).
#[test]
fn golden_hierarchical_capping_agrees_and_is_pinned() {
    const GOLDEN: u64 = 6114866557331418861;
    let make = || scenarios::hierarchical_capping(CapSplit::Uniform, true, true).with_rounds(10);
    let d = assert_service_thread_invariant("hierarchical_capping", &make);
    println!("hierarchical_capping fnv = {}", fnv1a(d.as_bytes()));
    assert_eq!(fnv1a(d.as_bytes()), GOLDEN, "digest drifted:\n{d}");
}

/// `closed_loop_balancing` (power-headroom row, shortened horizon).
#[test]
fn golden_closed_loop_balancing_agrees_and_is_pinned() {
    const GOLDEN: u64 = 2262805444707370977;
    let make =
        || scenarios::closed_loop_balancing(BalancePolicy::PowerHeadroom, true).with_rounds(8);
    let d = assert_service_thread_invariant("closed_loop_balancing", &make);
    println!("closed_loop_balancing fnv = {}", fnv1a(d.as_bytes()));
    assert_eq!(fnv1a(d.as_bytes()), GOLDEN, "digest drifted:\n{d}");
}

/// Serving churn, pinned at two threads: joiners are built mid-run with a
/// zero cap (and, in closed loop, a clock offset), leavers abandon their
/// queues. One case per fleet shape: open loop, closed loop, tiers and a
/// budget tree.
#[test]
fn serving_churn_digests_are_pinned() {
    use service::{ArrivalKind, TierConfig, TierGraph};
    let small = |name: &str, mix: &str, seed: u64, rate: f64| {
        ServiceServerSpec::small(name, mix, seed, rate).with_p99_target_s(2e-3)
    };
    let open_loop = || {
        let fleet = vec![
            small("s0", "MID1", 81, 40_000.0),
            small("s1", "MEM1", 82, 40_000.0),
        ];
        let mut churn = ChurnSchedule::new();
        churn
            .join(3, "late", small("late", "ILP1", 83, 40_000.0))
            .unwrap();
        churn.leave(7, "s0").unwrap();
        ServiceConfig::new(fleet, 150.0, CapSplit::FastCap)
            .with_rounds(10)
            .with_churn(churn)
    };
    let closed_loop = || {
        let fleet = vec![small("c0", "MID1", 84, 0.0), small("c1", "MEM1", 85, 0.0)];
        let mut churn = ChurnSchedule::new();
        churn
            .join(4, "late", small("late", "ILP1", 86, 0.0))
            .unwrap();
        churn.leave(8, "c1").unwrap();
        ServiceConfig::new(fleet, 150.0, CapSplit::SlaAware)
            .with_rounds(12)
            .with_churn(churn)
            .with_closed_loop(ClosedLoopConfig::new(
                48,
                Ps::from_us(150),
                BalancePolicy::LeastQueue,
            ))
    };
    let tiers = || {
        let graph: TierGraph = "fe[2] -> st[2]*2".parse().unwrap();
        let spec = |name: &str, seed: u64| {
            let mix = if name.starts_with("fe") {
                "ILP1"
            } else {
                "MID2"
            };
            ServiceServerSpec::small_with_cores(name, mix, seed, 0.0, 4)
        };
        let fleet = graph
            .server_names()
            .iter()
            .enumerate()
            .map(|(i, name)| spec(name, 40 + i as u64))
            .collect();
        let mut churn = ChurnSchedule::new();
        churn.join(5, "st2", spec("st2", 47)).unwrap();
        churn.leave(8, "fe1").unwrap();
        ServiceConfig::new(fleet, 280.0, CapSplit::FastCap)
            .with_rounds(12)
            .with_churn(churn)
            .with_closed_loop(
                ClosedLoopConfig::new(96, Ps::from_us(100), BalancePolicy::LeastQueue)
                    .with_mean_request_instrs(60_000.0),
            )
            .with_tiers(TierConfig::new(graph).with_e2e_target_s(4e-3))
    };
    let tree = || {
        let fleet = vec![
            small("h0", "MEM2", 11, 200_000.0).with_arrivals(ArrivalKind::Mmpp {
                rate_hz: 200_000.0,
                burst_factor: 1.2,
                mean_calm: Ps::from_ms(3),
                mean_burst: Ps::from_ms(2),
                diurnal_period: Ps::ZERO,
                diurnal_depth: 0.0,
            }),
            small("m0", "MID1", 12, 25_000.0),
            small("q0", "ILP1", 13, 30_000.0),
            small("q1", "MID2", 14, 30_000.0),
        ];
        let tree =
            BudgetTree::parse("dc:uniform[rack:sla-aware[h0,m0],pod:fastcap[q0,q1]]").unwrap();
        let mut churn = ChurnSchedule::new();
        churn
            .join(3, "late", small("late", "ILP2", 15, 30_000.0))
            .unwrap();
        churn.leave(6, "m0").unwrap();
        ServiceConfig::new(fleet, 280.0, CapSplit::Uniform)
            .with_rounds(10)
            .with_topology(tree)
            .with_churn(churn)
    };
    let cases: [(&str, &dyn Fn() -> ServiceConfig, u64); 4] = [
        ("open-loop fastcap", &open_loop, 6923421223272983155),
        ("closed-loop sla-aware", &closed_loop, 15731782920546030606),
        ("tiers", &tiers, 6876893683442217847),
        ("budget tree", &tree, 9934934100162639516),
    ];
    for (label, make, golden) in cases {
        let d = run_service(make().with_threads(2)).digest();
        println!("{label} fnv = {}", fnv1a(d.as_bytes()));
        assert_eq!(
            fnv1a(d.as_bytes()),
            golden,
            "[{label}] digest drifted:\n{d}"
        );
    }
}

/// Runs `config` and returns the result with its wall time in seconds.
fn timed(config: ClusterConfig) -> (ClusterResult, f64) {
    let start = std::time::Instant::now();
    let r = run_cluster(config);
    (r, start.elapsed().as_secs_f64())
}

/// Nightly-scale differential smoke: a 1024-server fleet at 90% idle, the
/// fleet loop digest-equal to the oracle. Run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "1024-server differential smoke; run via cargo test --release -- --ignored"]
fn fleet_1024_differential_smoke() {
    let make = || {
        let mut c = ClusterConfig::new(
            synthetic_fleet(1024, 0.9),
            100.0 * 1024.0,
            CapSplit::FastCap,
        )
        .with_epochs_per_round(1)
        .with_threads(8);
        c.quantum_w = 0.02;
        c
    };
    let start = std::time::Instant::now();
    let reference = oracle::run(&make());
    let t_oracle = start.elapsed().as_secs_f64();
    let (exact, t_exact) = timed(make());
    assert_eq!(
        reference.digest(),
        exact.digest(),
        "1024-server oracle vs fleet loop digests diverged"
    );
    println!("1024-server smoke: serial oracle {t_oracle:.2}s, fleet loop {t_exact:.2}s");
}

/// Nightly-scale smoke: 16384 servers at 90% idle under a 256-rack budget
/// tree. The run must be digest-equal at two worker-thread counts and
/// conserve the budget every round. Run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "16384-server differential smoke; run via cargo test --release -- --ignored"]
fn fleet_16384_differential_smoke() {
    let n = 16_384usize;
    let budget = 100.0 * n as f64;
    let make = |threads: usize| {
        let mut fleet = synthetic_fleet(n, 0.9);
        for s in &mut fleet {
            // Eighth-length workloads keep the 16k fleet's horizon (and
            // the nightly job's wall-clock) bounded.
            s.config.target_instrs = (s.config.target_instrs / 8).max(1);
        }
        let names: Vec<String> = fleet.iter().map(|s| s.name.clone()).collect();
        let mut c = ClusterConfig::new(fleet, budget, CapSplit::FastCap)
            .with_epochs_per_round(1)
            .with_threads(threads)
            .with_topology(rack_tree(&names, 64));
        c.quantum_w = 1.0;
        c
    };
    let (exact, t_exact) = timed(make(8));
    let (odd, t_odd) = timed(make(3));
    assert_eq!(
        exact.digest(),
        odd.digest(),
        "16384-server digests diverged between 8 and 3 threads"
    );
    for (r, caps) in exact.cap_timeline.iter().enumerate() {
        let total: f64 = caps.iter().sum();
        assert!(
            total <= budget + 1e-3,
            "round {r}: in-force caps {total:.3} W exceed the {budget} W budget"
        );
    }
    println!("16384-server smoke: 8 threads {t_exact:.2}s, 3 threads {t_odd:.2}s");
}

/// Nightly-scale control-plane smoke: a 1024-server fleet on a loopback
/// plane with a live standby and a mid-run primary partition. The fleet
/// loop must match the oracle bit-for-bit through the election and
/// step-down, and the in-force caps must conserve the budget strictly
/// (zero-latency failover has no replication gap). Run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "1024-server control-plane smoke; run via cargo test --release -- --ignored"]
fn fleet_1024_control_plane_failover_smoke() {
    let budget = 100.0 * 1024.0;
    let make = || {
        let mut c = ClusterConfig::new(synthetic_fleet(1024, 0.9), budget, CapSplit::FastCap)
            .with_epochs_per_round(1)
            .with_threads(8)
            .with_rpc(RpcConfig {
                failover: true,
                partitions: vec![PartitionSpec {
                    from_round: 20,
                    to_round: 45,
                    nodes: vec!["primary".into()],
                }],
                ..RpcConfig::default()
            });
        c.quantum_w = 0.02;
        c
    };
    let (r, t_run) = timed(make());
    assert_eq!(
        oracle::run(&make()).digest(),
        r.digest(),
        "1024-server failover oracle vs fleet loop digests diverged"
    );
    assert!(
        r.rounds > 48,
        "horizon ({} rounds) too short: the partition must heal well before the run ends",
        r.rounds
    );
    assert_eq!(r.control.elections, 1, "exactly one takeover");
    assert_eq!(r.control.terms, vec![1, 1]);
    for (round, caps) in r.cap_timeline.iter().enumerate() {
        let total: f64 = caps.iter().sum();
        assert!(
            total <= budget + 1e-6,
            "round {round}: in-force caps {total:.3} W exceed the {budget} W budget"
        );
    }
    println!(
        "1024-server failover smoke: {t_run:.2}s, {} grants, {} heartbeat msgs in flight at end",
        r.control.grants_sent, r.control.in_flight_at_end,
    );
}

/// Nightly-scale handoff smoke: the same 1024-server primary outage on a
/// hostile plane — one round of latency, one of jitter, 25% loss, 5%
/// duplication — the regime where failover used to overshoot the budget
/// (DESIGN §10). With the acked-state handoff the in-force caps must stay
/// within budget every round, including the takeover round, at fleet
/// scale; the run must stay bit-identical across thread counts. Run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "1024-server lossy-failover conservation smoke; run via cargo test --release -- --ignored"]
fn fleet_1024_lossy_failover_conserves() {
    let budget = 100.0 * 1024.0;
    let make = |threads: usize| {
        let c = ClusterConfig::new(synthetic_fleet(1024, 0.9), budget, CapSplit::FastCap)
            .with_epochs_per_round(1)
            .with_threads(threads);
        // One round of latency and one of jitter, at the fleet's own
        // round length.
        let round_us = c.round_s() * 1e6;
        let mut c = c.with_rpc(RpcConfig {
            latency_us: round_us,
            jitter_us: round_us,
            loss: 0.25,
            duplicate: 0.05,
            failover: true,
            partitions: vec![PartitionSpec {
                from_round: 20,
                to_round: 45,
                nodes: vec!["primary".into()],
            }],
            ..RpcConfig::default()
        });
        c.quantum_w = 0.02;
        c
    };
    let start = std::time::Instant::now();
    let r = run_cluster(make(8));
    let elapsed = start.elapsed();
    assert!(
        r.control.elections >= 1,
        "the outage must elect the standby: {:?}",
        r.control
    );
    for (round, caps) in r.cap_timeline.iter().enumerate() {
        let total: f64 = caps.iter().sum();
        assert!(
            total <= budget + 1e-6,
            "round {round}: in-force caps {total:.3} W exceed the {budget} W budget \
             under lossy failover"
        );
    }
    let r4 = run_cluster(make(4));
    assert_eq!(
        r.digest(),
        r4.digest(),
        "1024-server lossy failover 8 vs 4 threads"
    );
    println!(
        "1024-server lossy-failover smoke: {:.2}s, {} elections, {}/{} grants applied",
        elapsed.as_secs_f64(),
        r.control.elections,
        r.control.grants_applied,
        r.control.grants_sent,
    );
}
