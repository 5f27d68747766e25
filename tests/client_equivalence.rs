//! Differential harness: the fluid (aggregated) closed-loop client model
//! against the exact per-client pool, at the scales where both are
//! tractable (10²–10⁴ clients).
//!
//! This is the same credibility play that makes the fleet loop
//! trustworthy (`tests/engine_equivalence.rs`): the fast path is only
//! allowed to exist because it is continuously proven against the exact
//! reference where they overlap. The fluid model is *statistically*
//! equivalent, not bit-equal — cohort sampling replaces per-client draws —
//! so the comparison is on aggregate statistics within declared
//! tolerances:
//!
//! * **Offered load** (requests generated over the horizon) and
//!   **in-flight mass** (the sojourn integral, Little's `L × T`):
//!   relative error bounded by a `1/√N` sampling term plus a small model
//!   bias floor ([`rel_tol`]).
//! * **p99 sojourn**: ratio-bounded ([`P99_RATIO`]) — tail quantiles sit
//!   on queueing nonlinearities, so they get the loosest bound.
//! * **Energy**: under latency-blind splits the engine's power trajectory
//!   is independent of the request path, so fleet energy must agree to
//!   float noise ([`ENERGY_EXACT_TOL`]); under the SLA-aware split the
//!   p99 feedback couples the two, and the bound is statistical
//!   ([`ENERGY_SLA_TOL`]).
//!
//! Exact-match properties hold with no tolerance at all: request
//! conservation (generated = completed + shed + abandoned, population
//! constant under churn) and bit-identical fluid digests across worker
//! thread counts.

use proptest::prelude::*;
use service::{
    run_service, BalancePolicy, CapSplit, ChurnSchedule, ClientModel, ClosedLoopConfig,
    ServiceConfig, ServiceResult, ServiceServerSpec,
};
use simkernel::Ps;

/// Relative tolerance for offered-load and in-flight agreement at
/// population `n`: a `1.5/√N` sampling band (per-round binomial noise,
/// partially averaged over the 12-round horizon) plus a 2 % floor for
/// the fluid model's cohort-mean bias. Measured deviations are ≤ 4.2 %
/// at N=100 and ≤ 1 % at N=10⁴ — roughly 3–4× inside this bound.
fn rel_tol(n: usize) -> f64 {
    0.02 + 1.5 / (n as f64).sqrt()
}

/// p99 sojourns must agree within this ratio (either direction), unless
/// both sit below one epoch (250 µs) where bucket granularity dominates.
/// The shared log-bucketed histogram quantizes both models onto the same
/// grid — measured runs agree bit-for-bit — so this bound only has to
/// absorb a single bucket step.
const P99_RATIO: f64 = 1.5;

/// Fleet energy under latency-blind splits: the engines never see the
/// request path, so the trajectories are identical up to float noise.
const ENERGY_EXACT_TOL: f64 = 1e-9;

/// Fleet energy under the SLA-aware split, where the p99 feedback loop
/// couples caps to the (statistically different) request path. Because
/// the feedback reads the bucket-quantized p99, measured runs agree
/// exactly; the tolerance absorbs a cap step from a p99 bucket flip.
const ENERGY_SLA_TOL: f64 = 0.02;

fn fleet(seed: u64) -> Vec<ServiceServerSpec> {
    vec![
        ServiceServerSpec::small("e0", "MID1", seed ^ 1, 0.0).with_p99_target_s(2e-3),
        ServiceServerSpec::small("e1", "ILP1", seed ^ 2, 0.0).with_p99_target_s(2e-3),
        ServiceServerSpec::small("e2", "MEM1", seed ^ 3, 0.0).with_p99_target_s(2e-3),
    ]
}

fn config(
    model: ClientModel,
    clients: usize,
    think_us: u64,
    seed: u64,
    split: CapSplit,
    balance: BalancePolicy,
    threads: usize,
) -> ServiceConfig {
    ServiceConfig::new(fleet(seed), 150.0, split)
        .with_rounds(12)
        .with_threads(threads)
        .with_closed_loop(
            ClosedLoopConfig::new(clients, Ps::from_us(think_us), balance)
                .with_seed(seed)
                .with_model(model),
        )
}

/// The aggregate statistics the two models are compared on.
struct Stats {
    generated: u64,
    /// Total sojourn time of completed requests, seconds — Little's
    /// `L × T`, the run's integrated in-flight mass.
    sojourn_integral_s: f64,
    p99_s: f64,
    energy_j: f64,
}

fn stats(r: &ServiceResult) -> Stats {
    let hist = r.fleet_hist();
    Stats {
        generated: r.closed_loop.as_ref().expect("closed loop").generated,
        sojourn_integral_s: hist.mean() * 1e-12 * hist.count() as f64,
        p99_s: r.fleet_percentile_s(0.99),
        energy_j: r.total_energy_j(),
    }
}

fn assert_conserved(r: &ServiceResult, clients: usize, label: &str) {
    let cl = r.closed_loop.as_ref().expect("closed loop");
    let terminal: u64 = r
        .outcomes
        .iter()
        .map(|o| o.completed + o.shed + o.abandoned)
        .sum();
    assert_eq!(
        cl.generated, terminal,
        "[{label}] generated != completed + shed + abandoned"
    );
    let arrived: u64 = r.outcomes.iter().map(|o| o.arrived).sum();
    assert_eq!(
        cl.generated, arrived,
        "[{label}] request lost before a server"
    );
    assert_eq!(
        cl.thinking_at_end + cl.waiting_at_end,
        clients,
        "[{label}] population not conserved"
    );
    assert_eq!(
        cl.responses + cl.waiting_at_end as u64,
        cl.generated,
        "[{label}] responses + in-flight != generated"
    );
}

fn rel_diff(a: f64, b: f64) -> f64 {
    if a == 0.0 && b == 0.0 {
        return 0.0;
    }
    (a - b).abs() / a.abs().max(b.abs())
}

/// The headline comparison: at 10², 10³ and 10⁴ clients, under a
/// latency-blind and the SLA-aware split, the fluid model reproduces the
/// exact pool's offered load, in-flight mass, p99 tail and energy within
/// the declared tolerances — and both conserve requests exactly.
#[test]
fn fluid_matches_exact_across_scales_and_splits() {
    // Think times scale with the population so the operating point stays
    // interesting: issue fractions well inside (0, 1) and offered load
    // within reach of the fleet's service capacity.
    let cases = [
        (100usize, 300u64, 11u64),
        (1_000, 1_500, 12),
        (10_000, 5_000, 13),
    ];
    for (clients, think_us, seed) in cases {
        for split in [CapSplit::FastCap, CapSplit::SlaAware] {
            let run = |model| {
                run_service(config(
                    model,
                    clients,
                    think_us,
                    seed,
                    split,
                    BalancePolicy::LeastQueue,
                    4,
                ))
            };
            let exact = run(ClientModel::Exact);
            let fluid = run(ClientModel::Fluid);
            assert_conserved(&exact, clients, &format!("exact n={clients} {split}"));
            assert_conserved(&fluid, clients, &format!("fluid n={clients} {split}"));

            let (e, f) = (stats(&exact), stats(&fluid));
            let tol = rel_tol(clients);
            let label = format!("n={clients} split={split}");
            println!(
                "[{label}] generated {} vs {} ({:.3}), sojourn {:.6} vs {:.6} ({:.3}), \
                 p99 {:.6} vs {:.6} (x{:.3}), energy {:.6} vs {:.6} ({:.2e})",
                e.generated,
                f.generated,
                rel_diff(e.generated as f64, f.generated as f64),
                e.sojourn_integral_s,
                f.sojourn_integral_s,
                rel_diff(e.sojourn_integral_s, f.sojourn_integral_s),
                e.p99_s,
                f.p99_s,
                (f.p99_s / e.p99_s.max(1e-12)).max(e.p99_s / f.p99_s.max(1e-12)),
                e.energy_j,
                f.energy_j,
                rel_diff(e.energy_j, f.energy_j),
            );

            assert!(
                rel_diff(e.generated as f64, f.generated as f64) <= tol,
                "[{label}] offered load: exact {} vs fluid {} (tol {tol:.3})",
                e.generated,
                f.generated
            );
            assert!(
                rel_diff(e.sojourn_integral_s, f.sojourn_integral_s) <= tol,
                "[{label}] in-flight mass: exact {:.6}s vs fluid {:.6}s (tol {tol:.3})",
                e.sojourn_integral_s,
                f.sojourn_integral_s
            );
            let epoch_s = 250e-6;
            if e.p99_s.max(f.p99_s) > epoch_s {
                let ratio = (f.p99_s / e.p99_s.max(1e-12)).max(e.p99_s / f.p99_s.max(1e-12));
                assert!(
                    ratio <= P99_RATIO,
                    "[{label}] p99: exact {:.6}s vs fluid {:.6}s (x{ratio:.3} > x{P99_RATIO})",
                    e.p99_s,
                    f.p99_s
                );
            }
            let energy_tol = match split {
                CapSplit::SlaAware => ENERGY_SLA_TOL,
                _ => ENERGY_EXACT_TOL,
            };
            assert!(
                rel_diff(e.energy_j, f.energy_j) <= energy_tol,
                "[{label}] energy: exact {:.9} J vs fluid {:.9} J (tol {energy_tol:.1e})",
                e.energy_j,
                f.energy_j
            );
        }
    }
}

/// The fluid path keeps the serving layer's bedrock determinism: one
/// configuration, bit-identical digests at 1/2/4/8 worker threads — the
/// single-RNG cohort sampling and order-independent delivery accounting
/// cannot leak scheduling.
#[test]
fn fluid_digests_are_thread_invariant() {
    for balance in [BalancePolicy::PowerHeadroom, BalancePolicy::LeastQueue] {
        let mk = |threads| {
            run_service(config(
                ClientModel::Fluid,
                2_000,
                400,
                21,
                CapSplit::FastCap,
                balance,
                threads,
            ))
            .digest()
        };
        let d1 = mk(1);
        for threads in [2, 4, 8] {
            assert_eq!(
                d1,
                mk(threads),
                "[{balance}] fluid digest differs at {threads} threads"
            );
        }
        assert!(
            d1.contains("closed fluid "),
            "fluid runs must be marked in the digest:\n{d1}"
        );
    }
}

/// Satellite fix: a leaving server's orphaned in-flight mass re-credits
/// the fluid think pool at the barrier, mirroring the exact model's
/// orphan re-delivery — the churned requests count as abandoned on the
/// server and as responses to the population, and nobody leaks.
#[test]
fn churn_leave_recredits_the_fluid_think_pool() {
    // Enough clients that every server carries a queue backlog across the
    // round-3 barrier, so the departure actually orphans requests.
    let clients = 3_000;
    for model in [ClientModel::Exact, ClientModel::Fluid] {
        let mut cfg = config(
            model,
            clients,
            200,
            31,
            CapSplit::FastCap,
            BalancePolicy::RoundRobin,
            2,
        );
        let mut sched = ChurnSchedule::new();
        sched.leave(3, "e1").unwrap();
        cfg = cfg.with_churn(sched);
        let r = run_service(cfg);
        assert_conserved(&r, clients, &format!("churn {model}"));
        let departed = r
            .outcomes
            .iter()
            .find(|o| o.name == "e1" && o.departed)
            .expect("e1 departs");
        assert!(
            departed.abandoned > 0,
            "[{model}] the departing server should orphan queued requests \
             (otherwise this test exercises nothing)"
        );
        // The orphans were re-credited: at the end of the run the only
        // undelivered requests are the ones still sitting in the
        // *surviving* servers' queues — every request the departed server
        // abandoned went back to the think pool at the barrier.
        let cl = r.closed_loop.as_ref().unwrap();
        let end_abandoned: u64 = r
            .outcomes
            .iter()
            .filter(|o| !o.departed)
            .map(|o| o.abandoned)
            .sum();
        assert_eq!(
            cl.waiting_at_end as u64, end_abandoned,
            "[{model}] a churn orphan was never delivered back to the population"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized fluid-path conservation and determinism: any population,
    /// think time, balancer and split — requests conserve exactly and the
    /// digest is independent of the thread count.
    #[test]
    fn fluid_conserves_and_stays_deterministic(
        seed in any::<u64>(),
        clients in 64usize..4_000,
        think_us in 0u64..2_000,
        policy in 0u8..3,
        split in 0u8..3,
    ) {
        let balance = [
            BalancePolicy::RoundRobin,
            BalancePolicy::LeastQueue,
            BalancePolicy::PowerHeadroom,
        ][policy as usize];
        let split = [CapSplit::Uniform, CapSplit::FastCap, CapSplit::SlaAware][split as usize];
        let mk = |threads| {
            run_service(config(
                ClientModel::Fluid, clients, think_us, seed, split, balance, threads,
            ))
        };
        let r = mk(3);
        assert_conserved(&r, clients, "fluid proptest");
        prop_assert_eq!(r.fleet_hist().count(), r.total_completed());
        prop_assert_eq!(mk(1).digest(), r.digest(), "fluid digest thread-variant");
    }
}

/// Nightly 10⁶-client smoke: the fluid model carries a million-client
/// population with diurnal think modulation — conservation exact, digests
/// bit-identical across thread counts, at a per-round cost that scales
/// with issued requests. Run
/// via `cargo test --release -- --ignored`.
#[test]
#[ignore = "million-client fluid smoke; run via cargo test --release -- --ignored"]
fn million_client_fluid_smoke() {
    let clients = 1_000_000;
    let mk = |threads| {
        let mut cfg = ServiceConfig::new(fleet(41), 150.0, CapSplit::FastCap)
            .with_rounds(10)
            .with_threads(threads)
            .with_closed_loop(
                ClosedLoopConfig::new(clients, Ps::from_ms(100), BalancePolicy::LeastQueue)
                    .with_seed(41)
                    .with_model(ClientModel::Fluid)
                    .with_think_diurnal(Ps::from_ms(5), 0.8),
            );
        cfg.epochs_per_round = 2;
        cfg
    };
    let start = std::time::Instant::now();
    let r = run_service(mk(4));
    let elapsed = start.elapsed();
    assert_conserved(&r, clients, "million-client fluid");
    let cl = r.closed_loop.as_ref().unwrap();
    assert!(
        cl.generated >= clients as u64,
        "round 0 issues the whole ready population"
    );
    let wide = run_service(mk(8));
    assert_eq!(
        r.digest(),
        wide.digest(),
        "million-client fluid digests diverged across thread counts"
    );
    println!(
        "million-client fluid smoke: {} generated, {} responses, {:.2}s/run",
        cl.generated,
        cl.responses,
        elapsed.as_secs_f64()
    );
}
