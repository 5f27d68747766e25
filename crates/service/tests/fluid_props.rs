//! Property tests for the fluid client model's arrival sampling: the
//! integrated think-completion hazard must not care how the timeline is
//! chopped into rounds.
//!
//! The exact pool gets windowing invariance for free — each client owns a
//! concrete `ready_at` instant and a window either contains it or not. The
//! fluid model replaces those instants with an integrated hazard
//! `Λ(a, b)` per window, so invariance becomes an algebraic obligation:
//! `Λ` must be additive over any subdivision and the per-window completion
//! probabilities must compose as survivals. These are the same properties
//! the open-loop [`service::ArrivalGen`] proptests pin for thinned
//! Poisson/MMPP streams, restated for the closed-loop think process with
//! its diurnal rate modulation.

use proptest::prelude::*;
use service::{
    BalancePolicy, Caller, ClientModel, ClientPopulation, ClosedLoopConfig, FluidPool, Request,
};
use simkernel::Ps;

/// Collects one `issue` call's stream.
fn issued(p: &mut FluidPool, from: Ps, to: Ps) -> Vec<Request> {
    let mut batch = Vec::new();
    p.issue(from, to, &mut |r| batch.push(r));
    batch
}

/// The client tag the fluid pool stamps on each request.
fn client(r: &Request) -> u32 {
    match r.caller {
        Some(Caller::Client(c)) => c,
        other => panic!("fluid request without a client: {other:?}"),
    }
}

fn pool(mean_think_us: u64, period_us: u64, depth: f64, seed: u64) -> FluidPool {
    let mut cfg =
        ClosedLoopConfig::new(1_000, Ps::from_us(mean_think_us), BalancePolicy::RoundRobin)
            .with_seed(seed)
            .with_model(ClientModel::Fluid);
    if depth > 0.0 {
        cfg = cfg.with_think_diurnal(Ps::from_us(period_us), depth);
    }
    FluidPool::new(&cfg)
}

/// Midpoint-rule integral of the instantaneous think-completion rate
/// `(1 + depth·sin(2πt/P)) / θ` over `[a, b]` — the quantity the closed
/// form in [`FluidPool::hazard`] claims to be.
fn numeric_hazard(mean_think_us: u64, period_us: u64, depth: f64, a: Ps, b: Ps) -> f64 {
    let theta = Ps::from_us(mean_think_us).as_secs_f64();
    let (ta, tb) = (a.as_secs_f64(), b.as_secs_f64());
    let steps = 4_000;
    let dt = (tb - ta) / steps as f64;
    let w = std::f64::consts::TAU / Ps::from_us(period_us).as_secs_f64();
    (0..steps)
        .map(|i| {
            let t = ta + (i as f64 + 0.5) * dt;
            let rate = if depth > 0.0 {
                (1.0 + depth * (w * t).sin()) / theta
            } else {
                1.0 / theta
            };
            rate * dt
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Λ(a, c) = Λ(a, b) + Λ(b, c) for any split point — integrating the
    /// think hazard over one long round or many short ones is the same
    /// number, diurnal modulation included.
    #[test]
    fn hazard_is_additive_over_any_subdivision(
        mean_think_us in 10u64..10_000,
        period_us in 100u64..50_000,
        depth in 0.0f64..1.0,
        start_us in 0u64..100_000,
        first_us in 1u64..50_000,
        second_us in 1u64..50_000,
    ) {
        let p = pool(mean_think_us, period_us, depth, 1);
        let a = Ps::from_us(start_us);
        let b = a + Ps::from_us(first_us);
        let c = b + Ps::from_us(second_us);
        let whole = p.hazard(a, c);
        let split = p.hazard(a, b) + p.hazard(b, c);
        prop_assert!(
            (whole - split).abs() <= 1e-9 * whole.abs().max(1.0),
            "Λ(a,c)={whole} but Λ(a,b)+Λ(b,c)={split}"
        );
    }

    /// Survival probabilities compose multiplicatively across a split:
    /// 1 − p(a, c) = (1 − p(a, b)) · (1 − p(b, c)). This is exactly the
    /// statement that issuing round by round thins the thinking population
    /// with the same law as issuing once over the whole horizon.
    #[test]
    fn completion_prob_composes_as_survival(
        mean_think_us in 10u64..10_000,
        period_us in 100u64..50_000,
        depth in 0.0f64..1.0,
        start_us in 0u64..100_000,
        first_us in 1u64..50_000,
        second_us in 1u64..50_000,
    ) {
        let p = pool(mean_think_us, period_us, depth, 1);
        let a = Ps::from_us(start_us);
        let b = a + Ps::from_us(first_us);
        let c = b + Ps::from_us(second_us);
        let whole = 1.0 - p.completion_prob(a, c);
        let split = (1.0 - p.completion_prob(a, b)) * (1.0 - p.completion_prob(b, c));
        prop_assert!(
            (whole - split).abs() <= 1e-9,
            "survival over [a,c)={whole} but product of halves={split}"
        );
    }

    /// The closed-form integrated hazard equals the numerical integral of
    /// the instantaneous modulated rate (1 + depth·sin(2πt/P))/θ — the
    /// sinusoid's antiderivative was not fumbled.
    #[test]
    fn hazard_closed_form_matches_numerical_integral(
        mean_think_us in 10u64..10_000,
        period_us in 200u64..50_000,
        depth in 0.0f64..1.0,
        start_us in 0u64..100_000,
        span_us in 1u64..20_000,
    ) {
        let p = pool(mean_think_us, period_us, depth, 1);
        let a = Ps::from_us(start_us);
        let b = a + Ps::from_us(span_us);
        let closed = p.hazard(a, b);
        let numeric = numeric_hazard(mean_think_us, period_us, depth, a, b);
        prop_assert!(
            (closed - numeric).abs() <= 1e-4 * numeric.abs().max(1e-9),
            "closed form {closed} vs numerical {numeric}"
        );
    }

    /// Whatever the window, `issue` keeps arrivals sorted, inside
    /// `[from, to)` (the queue's contract), and conserves the population.
    #[test]
    fn issue_respects_the_window_contract(
        mean_think_us in 1u64..5_000,
        period_us in 100u64..50_000,
        depth in 0.0f64..1.0,
        windows_us in proptest::collection::vec(1u64..5_000, 1..6),
    ) {
        let mut p = pool(mean_think_us, period_us, depth, 9);
        let clients = p.len();
        let mut from = Ps::ZERO;
        for w_us in windows_us {
            let to = from + Ps::from_us(w_us);
            let reqs = issued(&mut p, from, to);
            for pair in reqs.windows(2) {
                prop_assert!(pair[0].arrival <= pair[1].arrival, "arrivals unsorted");
            }
            for r in &reqs {
                prop_assert!(r.arrival >= from && r.arrival < to, "arrival outside window");
            }
            prop_assert_eq!(p.len(), clients, "population leaked");
            // Deliver every other response so later windows exercise the
            // fresh-cohort path too.
            for (i, r) in reqs.iter().enumerate() {
                if i % 2 == 0 {
                    p.deliver(client(r), r.arrival);
                }
            }
            from = to;
        }
    }
}

/// Windowing invariance of the sampled counts themselves: issuing over one
/// long horizon and over the same horizon cut into quanta draw from the
/// same distribution. Fixed seeds make this deterministic; the bound is
/// five standard deviations of the binomial difference.
#[test]
fn sampled_issue_counts_are_windowing_invariant() {
    for (think_us, period_us, depth) in [(2_000u64, 0u64, 0.0f64), (1_500, 4_000, 0.8)] {
        // Park the whole population as a delivered cohort at t=1 ps so both
        // pools start from the identical thinking state.
        let prepare = |seed: u64| {
            let mut p = pool(think_us, period_us.max(1), depth, seed);
            let reqs = issued(&mut p, Ps::ZERO, Ps::new(1));
            for r in &reqs {
                p.deliver(client(r), Ps::new(1));
            }
            p
        };
        let horizon = Ps::from_us(1_000);
        let mut coarse = prepare(5);
        let k_coarse = issued(&mut coarse, Ps::new(1), horizon).len() as f64;
        let mut fine = prepare(6);
        let mut from = Ps::new(1);
        let mut k_fine = 0.0;
        for i in 1..=8 {
            let to = if i == 8 {
                horizon
            } else {
                Ps::from_us(125 * i)
            };
            k_fine += issued(&mut fine, from, to).len() as f64;
            from = to;
        }
        let probe = prepare(7);
        let p_whole = probe.completion_prob(Ps::new(1), horizon);
        let n = probe.thinking() as f64;
        let sigma = (2.0 * n * p_whole * (1.0 - p_whole)).sqrt();
        assert!(
            (k_coarse - k_fine).abs() <= 5.0 * sigma + 5.0,
            "think={think_us}us depth={depth}: one window issued {k_coarse}, \
             eight windows issued {k_fine} (5σ = {:.1})",
            5.0 * sigma
        );
    }
}
