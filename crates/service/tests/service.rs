//! Integration tests for the serving fleet: thread-count determinism, the
//! SLA-aware discipline's headline behaviour, closed-loop balancing, churn,
//! and engines that never finish whatever the spec's completion target.

use service::{
    run_service, ArrivalKind, BalancePolicy, BudgetTree, CapSplit, ChurnSchedule, ClosedLoopConfig,
    ServiceConfig, ServiceServerSpec, TierConfig,
};
use simkernel::Ps;

/// The `service-sla` bench scenario: one big memory-bound server pushed
/// close to its full-speed capacity plus three lightly loaded servers, under
/// a 280 W budget. A uniform 70 W share starves the big server below its
/// arrival rate (its queue saturates), while its full ~99 W demand serves
/// the same stream with a sub-millisecond tail.
fn sla_fleet() -> Vec<ServiceServerSpec> {
    vec![
        ServiceServerSpec::small_with_cores("heavy", "MEM2", 11, 230_000.0, 8)
            .with_p99_target_s(1e-3),
        ServiceServerSpec::small("light0", "ILP1", 12, 30_000.0).with_p99_target_s(1e-3),
        ServiceServerSpec::small("light1", "ILP2", 13, 30_000.0).with_p99_target_s(1e-3),
        ServiceServerSpec::small("light2", "MID2", 14, 30_000.0).with_p99_target_s(1e-3),
    ]
}

fn sla_config(split: CapSplit) -> ServiceConfig {
    ServiceConfig::new(sla_fleet(), 280.0, split).with_rounds(40)
}

/// Servers only exchange state at round barriers, so the worker thread
/// count must not change a single bit of the result — checked on the full
/// bench scenario via the digest (energies, caps, queue counters, latency
/// buckets, cap timeline).
#[test]
fn results_are_bit_identical_across_thread_counts() {
    let d1 = run_service(sla_config(CapSplit::SlaAware).with_threads(1)).digest();
    let d2 = run_service(sla_config(CapSplit::SlaAware).with_threads(2)).digest();
    let d8 = run_service(sla_config(CapSplit::SlaAware).with_threads(8)).digest();
    assert_eq!(d1, d2, "1 vs 2 threads");
    assert_eq!(d1, d8, "1 vs 8 threads");
}

/// The PR's acceptance scenario: at the same 280 W budget the SLA-aware
/// discipline meets every server's p99 target (uniform misses on the heavy
/// server) while consuming *less* energy — the trimmed light servers more
/// than pay for the heavy server's boost.
#[test]
fn sla_aware_meets_slo_uniform_misses_at_same_budget() {
    let uniform = run_service(sla_config(CapSplit::Uniform));
    let sla = run_service(sla_config(CapSplit::SlaAware));

    // Uniform: the heavy server saturates and blows through its target.
    let heavy_uni = uniform.outcomes.iter().find(|o| o.name == "heavy").unwrap();
    assert!(
        !heavy_uni.meets_slo(),
        "uniform should miss on heavy: p99 {:.0} µs",
        heavy_uni.p99_s() * 1e6
    );
    assert!(heavy_uni.shed > 0, "saturated queue should shed");

    // SLA-aware: every server meets its target, nothing is shed.
    assert!(
        sla.all_meet_slo(),
        "sla-aware p99s: {:?}",
        sla.outcomes
            .iter()
            .map(|o| (o.name.clone(), o.p99_s()))
            .collect::<Vec<_>>()
    );
    assert_eq!(sla.total_shed(), 0);

    // And it does so on less energy than uniform at the same budget.
    assert!(
        sla.total_energy_j() <= uniform.total_energy_j(),
        "sla {:.2} J > uniform {:.2} J",
        sla.total_energy_j(),
        uniform.total_energy_j()
    );

    // The heavy server was actually boosted above its uniform share, and
    // the light servers trimmed below theirs.
    let heavy_sla = sla.outcomes.iter().find(|o| o.name == "heavy").unwrap();
    assert!(heavy_sla.mean_cap_w > heavy_uni.mean_cap_w + 5.0);
    for light in sla.outcomes.iter().filter(|o| o.name.starts_with("light")) {
        assert!(
            light.mean_cap_w < 70.0 - 5.0,
            "{}: {}",
            light.name,
            light.mean_cap_w
        );
    }
}

/// Churn mid-run: a join and a departure at round boundaries neither panic
/// nor corrupt fleet metrics, and the result stays thread-count
/// deterministic.
#[test]
fn churn_mid_run_keeps_metrics_sane_and_deterministic() {
    let build = |threads: usize| {
        let fleet = vec![
            ServiceServerSpec::small("s0", "MID1", 21, 40_000.0),
            ServiceServerSpec::small("s1", "MEM1", 22, 40_000.0).with_arrivals(ArrivalKind::Mmpp {
                rate_hz: 30_000.0,
                burst_factor: 3.0,
                mean_calm: Ps::from_ms(2),
                mean_burst: Ps::from_ms(1),
                diurnal_period: Ps::from_ms(10),
                diurnal_depth: 0.4,
            }),
        ];
        let mut churn = ChurnSchedule::new();
        churn
            .join(
                4,
                "late",
                ServiceServerSpec::small("late", "ILP1", 23, 40_000.0),
            )
            .unwrap();
        churn.leave(9, "s1").unwrap();
        ServiceConfig::new(fleet, 180.0, CapSplit::SlaAware)
            .with_rounds(14)
            .with_churn(churn)
            .with_threads(threads)
    };

    let r = run_service(build(1));
    // All three servers appear exactly once; only s1 departed.
    assert_eq!(r.outcomes.len(), 3);
    let s1 = r.outcomes.iter().find(|o| o.name == "s1").unwrap();
    assert!(s1.departed);
    assert_eq!(s1.rounds_run, 9);
    let late = r.outcomes.iter().find(|o| o.name == "late").unwrap();
    assert!(!late.departed);
    assert_eq!(late.rounds_run, 10);
    // Everyone served traffic, and the fleet histogram is exactly the sum
    // of the per-server ones (merge loses nothing).
    for o in &r.outcomes {
        assert!(o.completed > 0, "{} served nothing", o.name);
    }
    let total: u64 = r.outcomes.iter().map(|o| o.hist.count()).sum();
    assert_eq!(r.fleet_hist().count(), total);
    // The cap timeline tracks the changing fleet width.
    assert_eq!(r.cap_timeline[0].len(), 2);
    assert_eq!(r.cap_timeline[4].len(), 3);
    assert_eq!(r.cap_timeline[9].len(), 2);

    // Churn does not break round-barrier determinism.
    let d4 = run_service(build(4)).digest();
    assert_eq!(r.digest(), d4);
}

/// A serving run under a two-level topology (uniform across a rack and a
/// pod, SLA-aware inside the rack) stays within budget, respects the root's
/// per-group shares, survives churn (joiners attach under the root,
/// leavers are pruned from their rack), and stays thread-deterministic.
#[test]
fn topology_serve_run_is_deterministic_and_respects_group_shares() {
    let build = |threads: usize| {
        let fleet = vec![
            ServiceServerSpec::small("r0", "MEM1", 41, 40_000.0),
            ServiceServerSpec::small("r1", "MID1", 42, 40_000.0),
            ServiceServerSpec::small("p0", "ILP1", 43, 25_000.0),
            ServiceServerSpec::small("p1", "ILP2", 44, 25_000.0),
        ];
        let tree =
            BudgetTree::parse("fleet:uniform[rack:sla-aware[r0,r1],pod:fastcap[p0,p1]]").unwrap();
        let mut churn = ChurnSchedule::new();
        churn
            .join(
                5,
                "late",
                ServiceServerSpec::small("late", "MID2", 45, 20_000.0),
            )
            .unwrap();
        churn.leave(9, "r1").unwrap();
        ServiceConfig::new(fleet, 240.0, CapSplit::Uniform)
            .with_topology(tree)
            .with_rounds(14)
            .with_churn(churn)
            .with_threads(threads)
    };

    let r = run_service(build(1));
    assert_eq!(r.outcomes.len(), 5);
    assert!(r.topology.as_deref().unwrap().starts_with("fleet:uniform["));
    for (round, caps) in r.cap_timeline.iter().enumerate() {
        let total: f64 = caps.iter().sum();
        assert!(total <= 240.0 + 1e-6, "round {round}: {total} > budget");
    }
    // Before churn the uniform root gives each of the two groups 120 W
    // (fleet order is rack servers then pod servers).
    for caps in &r.cap_timeline[..5] {
        assert_eq!(caps.len(), 4);
        assert!(caps[0] + caps[1] <= 120.0 + 1e-6, "rack over its share");
        assert!(caps[2] + caps[3] <= 120.0 + 1e-6, "pod over its share");
    }
    // After the join the root has three children: 80 W each.
    assert_eq!(r.cap_timeline[5].len(), 5);
    assert!(r.cap_timeline[5][4] <= 80.0 + 1e-6, "joiner over its share");
    // The departed server drops out of the split.
    assert_eq!(r.cap_timeline[9].len(), 4);
    for o in &r.outcomes {
        assert!(o.completed > 0, "{} served nothing", o.name);
    }

    let d4 = run_service(build(4)).digest();
    assert_eq!(r.digest(), d4, "topology run not thread-deterministic");
}

/// The `closed-loop-balancing` bench scenario: one big memory-bound server
/// throttled near its power floor by the uniform split, next to three fast
/// small servers with watts of slack, serving a closed-loop client
/// population through a front-end balancer.
fn balancing_config(balance: BalancePolicy) -> ServiceConfig {
    let fleet = vec![
        ServiceServerSpec::small_with_cores("big", "MEM2", 11, 0.0, 8).with_p99_target_s(2e-3),
        ServiceServerSpec::small("small0", "ILP1", 12, 0.0).with_p99_target_s(2e-3),
        ServiceServerSpec::small("small1", "ILP2", 13, 0.0).with_p99_target_s(2e-3),
        ServiceServerSpec::small("small2", "ILP1", 14, 0.0).with_p99_target_s(2e-3),
    ];
    ServiceConfig::new(fleet, 200.0, CapSplit::Uniform)
        .with_rounds(16)
        .with_closed_loop(
            ClosedLoopConfig::new(320, Ps::from_us(100), balance)
                .with_mean_request_instrs(120_000.0),
        )
}

/// The PR's acceptance scenario: at the same 200 W budget the
/// power-headroom balancer meets the fleet's 2 ms p99 target while
/// round-robin keeps feeding the capped big server a quarter of the
/// traffic and blows through it. Closed-loop bookkeeping must balance
/// exactly in both runs: every generated request is completed, shed, or
/// abandoned in queue, and every client ends the horizon either thinking
/// or waiting.
#[test]
fn headroom_balancer_meets_p99_where_round_robin_saturates() {
    let rr = run_service(balancing_config(BalancePolicy::RoundRobin));
    let headroom = run_service(balancing_config(BalancePolicy::PowerHeadroom));

    let target = 2e-3;
    let rr_p99 = rr.fleet_percentile_s(0.99);
    let hr_p99 = headroom.fleet_percentile_s(0.99);
    let big_rr = rr.outcomes.iter().find(|o| o.name == "big").unwrap();
    assert!(
        !big_rr.meets_slo(),
        "round-robin should saturate big: p99 {:.3} ms",
        big_rr.p99_s() * 1e3
    );
    assert!(rr_p99 > target, "round-robin fleet p99 {rr_p99:.4}s");
    assert!(
        headroom.all_meet_slo(),
        "headroom p99s: {:?}",
        headroom
            .outcomes
            .iter()
            .map(|o| (o.name.clone(), o.p99_s()))
            .collect::<Vec<_>>()
    );
    assert!(
        hr_p99 < rr_p99,
        "headroom {hr_p99:.4}s not better than round-robin {rr_p99:.4}s"
    );

    // The balancer visibly steered load off the capped server.
    let big_hr = headroom.outcomes.iter().find(|o| o.name == "big").unwrap();
    assert!(
        big_hr.arrived * 4 < big_rr.arrived,
        "headroom big share {} vs round-robin {}",
        big_hr.arrived,
        big_rr.arrived
    );

    // Request + client conservation, end to end.
    for r in [&rr, &headroom] {
        let cl = r.closed_loop.as_ref().expect("closed-loop summary");
        let terminal: u64 = r
            .outcomes
            .iter()
            .map(|o| o.completed + o.shed + o.abandoned)
            .sum();
        assert_eq!(cl.generated, terminal, "request conservation");
        let arrived: u64 = r.outcomes.iter().map(|o| o.arrived).sum();
        assert_eq!(cl.generated, arrived, "every request reached a server");
        assert_eq!(
            cl.thinking_at_end + cl.waiting_at_end,
            320,
            "client conservation"
        );
        assert_eq!(
            cl.responses + cl.waiting_at_end as u64,
            cl.generated,
            "responses + in-flight = generated"
        );
    }
}

/// Closed-loop serving with balancing *and* churn is bit-identical for any
/// worker thread count: clients draw think times from per-client streams
/// and the balancer runs at the round barrier, so delivery order cannot
/// leak into the result.
#[test]
fn closed_loop_run_is_deterministic_across_thread_counts() {
    let build = |threads: usize| {
        let fleet = vec![
            ServiceServerSpec::small("c0", "MID1", 61, 0.0),
            ServiceServerSpec::small("c1", "MEM1", 62, 0.0),
        ];
        let mut churn = ChurnSchedule::new();
        churn
            .join(3, "late", ServiceServerSpec::small("late", "ILP1", 63, 0.0))
            .unwrap();
        churn.leave(8, "c1").unwrap();
        ServiceConfig::new(fleet, 150.0, CapSplit::FastCap)
            .with_rounds(12)
            .with_churn(churn)
            .with_threads(threads)
            .with_closed_loop(ClosedLoopConfig::new(
                48,
                Ps::from_us(200),
                BalancePolicy::LeastQueue,
            ))
    };

    let r1 = run_service(build(1));
    let d1 = r1.digest();
    for threads in [2, 4, 8] {
        let d = run_service(build(threads)).digest();
        assert_eq!(d1, d, "1 vs {threads} threads");
    }
    // Departure orphans were re-delivered: the client population is intact
    // and every generated request is accounted for.
    let cl = r1.closed_loop.as_ref().unwrap();
    assert_eq!(cl.thinking_at_end + cl.waiting_at_end, 48);
    let terminal: u64 = r1
        .outcomes
        .iter()
        .map(|o| o.completed + o.shed + o.abandoned)
        .sum();
    assert_eq!(cl.generated, terminal);
}

/// A three-tier serving fleet: client requests fan out `fe -> app -> st`
/// into DAGs whose spans ride the ordinary queue machinery.
fn tier_fleet(names: &[&str], mixes: &[&str]) -> Vec<ServiceServerSpec> {
    names
        .iter()
        .zip(mixes)
        .enumerate()
        .map(|(i, (n, m))| ServiceServerSpec::small(n, m, 70 + i as u64, 0.0))
        .collect()
}

fn tier_config(threads: usize) -> ServiceConfig {
    let fleet = tier_fleet(
        &["fe0", "app0", "app1", "st0", "st1"],
        &["ILP1", "MID1", "MID2", "MEM1", "MEM2"],
    );
    let graph = "fe[1] -> app[2]*2 -> st[2]".parse().unwrap();
    ServiceConfig::new(fleet, 260.0, CapSplit::FastCap)
        .with_rounds(12)
        .with_threads(threads)
        .with_closed_loop(ClosedLoopConfig::new(
            48,
            Ps::from_us(150),
            BalancePolicy::LeastQueue,
        ))
        .with_tiers(TierConfig::new(graph).with_e2e_target_s(0.5))
}

/// Multi-tier DAG bookkeeping conserves spans end to end — every completed
/// parent spawns exactly its fan-out of children, every span terminates or
/// stays counted as open, the end-to-end sojourn dominates every child's —
/// and the whole run is bit-identical for any worker thread count.
#[test]
fn multi_tier_run_conserves_dags_and_is_deterministic() {
    let r = run_service(tier_config(1));
    let t = r.tiers.as_ref().expect("tier summary");
    let s = &t.stats;
    assert!(s.roots_opened > 0, "no DAGs opened");
    assert!(s.roots_closed > 0, "no DAGs closed");
    assert_eq!(s.roots_opened, s.roots_closed + s.open_roots);
    assert_eq!(s.spans_opened, s.spans_closed + s.open_spans);
    // Fan-out conservation: tier 1 spawns 2 per completed fe span, tier 2
    // spawns 1 per completed app span.
    assert_eq!(s.spawned_by_tier[1], s.completed_by_tier[0] * 2);
    assert_eq!(s.spawned_by_tier[2], s.completed_by_tier[1]);
    assert!(s.sojourn_dominance, "a child outlived its root's sojourn");
    // End-to-end accounting: one histogram entry per non-failed closure,
    // one client release per closure.
    assert_eq!(t.e2e_hist.count(), s.roots_closed - s.roots_failed);
    let cl = r.closed_loop.as_ref().unwrap();
    assert_eq!(cl.generated, s.roots_opened);
    assert_eq!(cl.responses, s.roots_closed);
    assert_eq!(cl.waiting_at_end as u64, s.open_roots);
    // The digest carries the tier lines.
    assert!(r
        .digest()
        .contains("tiers graph=fe[1] -> app[2]*2 -> st[2]"));

    for threads in [2, 4, 8] {
        let d = run_service(tier_config(threads)).digest();
        assert_eq!(r.digest(), d, "1 vs {threads} threads");
    }
}

/// With a storage tier doing 4× the work at 2× the fan-out, critical-path
/// attribution concentrates there and the warm split visibly shifts budget
/// toward it relative to the cold (demand-proportional) rounds.
#[test]
fn critical_path_shifts_budget_toward_the_slow_tier() {
    let fleet = tier_fleet(
        &["fe0", "fe1", "st0", "st1"],
        &["ILP1", "ILP2", "MID1", "MID2"],
    );
    let graph = "fe[2] -> st[2]*2@4".parse().unwrap();
    let cfg = ServiceConfig::new(fleet, 220.0, CapSplit::FastCap)
        .with_rounds(16)
        .with_closed_loop(
            ClosedLoopConfig::new(96, Ps::from_us(100), BalancePolicy::LeastQueue)
                .with_mean_request_instrs(60_000.0),
        )
        .with_tiers(TierConfig::new(graph).with_e2e_target_s(0.5));
    let r = run_service(cfg);
    let t = r.tiers.as_ref().unwrap();
    let shares = t.crit_shares();
    assert!(
        shares[1] > 0.6,
        "storage should dominate the critical path: {shares:?}"
    );
    assert!(
        t.slowest_counts[1] > t.slowest_counts[0],
        "slowest-leg counts: {:?}",
        t.slowest_counts
    );
    // Budget share of the storage tier (fleet positions 2..4) grows from
    // the cold demand-proportional split to the warm critical-path one.
    let st_frac = |caps: &[f64]| (caps[2] + caps[3]) / caps.iter().sum::<f64>();
    let cold = st_frac(&r.cap_timeline[0]);
    let warm = st_frac(r.cap_timeline.last().unwrap());
    assert!(
        warm > cold + 0.05,
        "no budget shift: cold {cold:.3} -> warm {warm:.3}"
    );
}

/// Tier churn: a storage server leaves mid-run with spans still queued
/// (the storage tier does 4× the work at 2× the fan-out, so its queues
/// carry work across barriers). Each orphaned span fails its DAG and the
/// client is released when the root closes; a replacement joins the tier by
/// name. Conservation and determinism survive.
#[test]
fn tier_churn_fails_orphaned_dags_and_stays_deterministic() {
    let build = |threads: usize| {
        let mut churn = ChurnSchedule::new();
        churn.leave(5, "st1").unwrap();
        churn
            .join(8, "st2", ServiceServerSpec::small("st2", "MEM1", 99, 0.0))
            .unwrap();
        let graph = "fe[1] -> app[2]*2 -> st[2]*2@4".parse().unwrap();
        ServiceConfig {
            tiers: Some(TierConfig::new(graph).with_e2e_target_s(0.5)),
            ..tier_config(threads).with_churn(churn).with_rounds(14)
        }
    };
    let r = run_service(build(1));
    let t = r.tiers.as_ref().unwrap();
    let s = &t.stats;
    let st1 = r.outcomes.iter().find(|o| o.name == "st1").unwrap();
    assert!(st1.departed, "st1 should have departed");
    assert!(st1.abandoned > 0, "st1 left with nothing queued");
    assert!(
        s.spans_failed >= st1.abandoned,
        "{} spans failed, {} orphaned",
        s.spans_failed,
        st1.abandoned
    );
    assert!(s.roots_failed > 0, "no DAG failed");
    assert_eq!(s.roots_opened, s.roots_closed + s.open_roots);
    assert_eq!(s.spans_opened, s.spans_closed + s.open_spans);
    let cl = r.closed_loop.as_ref().unwrap();
    assert_eq!(cl.responses, s.roots_closed);
    assert_eq!(cl.thinking_at_end + cl.waiting_at_end, 48);
    let st2 = r.outcomes.iter().find(|o| o.name == "st2").unwrap();
    assert!(!st2.departed);
    let d4 = run_service(build(4)).digest();
    assert_eq!(r.digest(), d4, "tier churn not thread-deterministic");
}

/// A serving engine never finishes: the spec's completion target is
/// ignored, so a target the ILP1 server reaches in its first epoch leaves
/// the run bit-identical to the default target, in open and closed loop.
#[test]
fn a_reachable_completion_target_changes_nothing() {
    let run = |target_instrs: Option<u64>, closed: bool| {
        let mut ilp = ServiceServerSpec::small("ilp", "ILP1", 51, 20_000.0);
        if let Some(t) = target_instrs {
            ilp.config.target_instrs = t;
        }
        let fleet = vec![ilp, ServiceServerSpec::small("mid", "MID1", 52, 20_000.0)];
        let mut cfg = ServiceConfig::new(fleet, 120.0, CapSplit::FastCap).with_rounds(30);
        if closed {
            cfg = cfg.with_closed_loop(ClosedLoopConfig::new(
                16,
                Ps::from_us(100),
                BalancePolicy::RoundRobin,
            ));
        }
        run_service(cfg).digest()
    };
    for closed in [false, true] {
        assert_eq!(
            run(Some(200_000), closed),
            run(None, closed),
            "closed loop: {closed}"
        );
    }
}

/// A fleet that churns down to empty and back keeps running (degenerate
/// rounds simply grant no caps).
#[test]
fn fleet_can_drain_to_empty_and_refill() {
    let fleet = vec![ServiceServerSpec::small("only", "MID1", 31, 20_000.0)];
    let mut churn = ChurnSchedule::new();
    churn.leave(2, "only").unwrap();
    churn
        .join(
            5,
            "fresh",
            ServiceServerSpec::small("fresh", "MID2", 32, 20_000.0),
        )
        .unwrap();
    let cfg = ServiceConfig::new(fleet, 90.0, CapSplit::FastCap)
        .with_rounds(8)
        .with_churn(churn);
    let r = run_service(cfg);
    assert_eq!(r.outcomes.len(), 2);
    assert!(r.cap_timeline[3].is_empty());
    assert_eq!(r.cap_timeline[6].len(), 1);
    let fresh = r.outcomes.iter().find(|o| o.name == "fresh").unwrap();
    assert_eq!(fresh.rounds_run, 3);
    assert!(fresh.completed > 0);
}
