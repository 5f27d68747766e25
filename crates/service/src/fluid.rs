//! The fluid (aggregated) closed-loop client model: population counters
//! instead of per-client state, for 10⁶+ client runs.
//!
//! [`crate::ClientPool`] is exact — every client carries its own RNG
//! stream and ready time — but issuing a round costs a scan of the whole
//! population, which caps realistic populations far below the "millions
//! of users" the fleet is meant to face. [`FluidPool`] compresses the
//! population into a handful of counters and replaces the per-client
//! think draws with *cohort sampling*:
//!
//! * Clients thinking since before the round window started complete
//!   their think in `[from, to)` with probability `p = 1 − exp(−Λ(from,
//!   to))`, where `Λ` is the integrated think-completion hazard (constant
//!   `1/θ`, optionally modulated by a diurnal sine — see
//!   [`ClosedLoopConfig::with_think_diurnal`]). Because the think times
//!   are exponential, re-sampling survival each window is exact in
//!   distribution (memorylessness), and because a Binomial draw *is* the
//!   sum of the cohort's Bernoulli trials, the number of issuing clients
//!   has exactly the per-client distribution.
//! * Clients whose response was delivered during the previous round are
//!   a separate cohort: their delivery times are accumulated as an
//!   order-independent integer picosecond sum (`u128`, overflow-safe at
//!   any population), and the cohort completes from its *mean* delivery
//!   time — the model's one approximation beyond aggregation, bounded by
//!   the round length.
//! * Issue times inside the window are conditional-exponential
//!   order-statistics draws; request sizes are uniform `[0.5, 1.5] ×`
//!   the configured mean, exactly as in the exact pool.
//!
//! Everything downstream — the [`LoadBalancer`](cluster::LoadBalancer),
//! [`crate::RequestQueue`], tier DAGs, churn orphan re-delivery — sees
//! real [`Request`]s tagged with synthetic (wrapping) client ids, so
//! every discipline runs unchanged. A round costs `O(issued)` instead of
//! `O(population)`, and the single RNG stream plus the order-independent
//! delivery accounting keep runs bit-identical for any worker thread
//! count — pinned by `tests/client_equivalence.rs`
//! and the fluid golden digests in `tests/invariants.rs`.

use crate::clients::ClientPopulation;
use crate::config::ClosedLoopConfig;
use crate::queue::{Caller, Request};
use simkernel::{Ps, SimRng};

/// A closed-loop client population compressed to aggregate counters.
#[derive(Clone, Debug)]
pub struct FluidPool {
    rng: SimRng,
    /// Clients ready to issue at the very next barrier (the whole
    /// population at construction, mirroring the exact pool's
    /// everyone-ready start; zero afterwards).
    ready: u64,
    /// Clients thinking since before the current window.
    thinking: u64,
    /// Clients whose response landed during the last round and who have
    /// not yet been folded into `thinking`.
    fresh: u64,
    /// Sum of the fresh cohort's delivery times, picoseconds. `u128`: at
    /// 10⁶ clients a single round of deliveries near the `u64` time
    /// horizon would overflow a `u64` sum.
    fresh_at_sum: u128,
    /// Clients with a request in flight.
    in_flight: u64,
    generated: u64,
    responses: u64,
    mean_think: Ps,
    mean_request_instrs: f64,
    diurnal_period: Ps,
    diurnal_depth: f64,
    /// Synthetic client tags cycle through `u32` (the tag only has to be
    /// present — delivery is by count, not by identity).
    next_tag: u32,
}

impl FluidPool {
    /// A fluid population per `cfg`, every client ready to issue
    /// immediately (matching [`crate::ClientPool::new`]).
    pub fn new(cfg: &ClosedLoopConfig) -> FluidPool {
        FluidPool {
            rng: SimRng::new(cfg.seed).fork(0xf1),
            ready: cfg.clients as u64,
            thinking: 0,
            fresh: 0,
            fresh_at_sum: 0,
            in_flight: 0,
            generated: 0,
            responses: 0,
            mean_think: cfg.mean_think,
            mean_request_instrs: cfg.mean_request_instrs,
            diurnal_period: cfg.think_diurnal_period,
            diurnal_depth: cfg.think_diurnal_depth,
            next_tag: 0,
        }
    }

    /// The integrated think-completion hazard `∫ λ(t) dt` over `[a, b]`,
    /// with `λ(t) = (1/θ)(1 + depth·sin(2πt/period))` — a constant
    /// `(b−a)/θ` when no diurnal modulation is configured, and `+∞` for a
    /// zero mean think (completion is immediate).
    ///
    /// The integral is evaluated in closed form, so it is *additive over
    /// any subdivision of the window* up to float rounding: issuing over
    /// `[a, c)` offers the same expected load as issuing over `[a, b)`
    /// then `[b, c)`, whatever the round quantum — the windowing
    /// invariance property pinned in `crates/service/tests/fluid_props.rs`.
    pub fn hazard(&self, a: Ps, b: Ps) -> f64 {
        debug_assert!(b >= a, "hazard window reversed");
        if self.mean_think == Ps::ZERO {
            return f64::INFINITY;
        }
        let theta = self.mean_think.as_secs_f64();
        let (ta, tb) = (a.as_secs_f64(), b.as_secs_f64());
        let base = (tb - ta) / theta;
        if self.diurnal_period == Ps::ZERO || self.diurnal_depth == 0.0 {
            return base;
        }
        let w = std::f64::consts::TAU / self.diurnal_period.as_secs_f64();
        base + self.diurnal_depth / theta * ((ta * w).cos() - (tb * w).cos()) / w
    }

    /// Probability that a client thinking at `a` completes its think
    /// before `b`: `1 − exp(−Λ(a, b))`.
    pub fn completion_prob(&self, a: Ps, b: Ps) -> f64 {
        -(-self.hazard(a, b)).exp_m1()
    }

    /// A completion time drawn uniformly from the conditional (truncated
    /// exponential) distribution over `[a, b)`, using the window-average
    /// hazard rate. Clamped strictly inside the window.
    fn completion_within(&mut self, a: Ps, b: Ps) -> Ps {
        let span = b - a;
        if span == Ps::ZERO {
            return a;
        }
        let lambda = self.hazard(a, b);
        if !lambda.is_finite() {
            return a; // zero think: completion is immediate
        }
        // Inverse CDF of Exp(rate) truncated to [0, W):
        // t = -ln(1 - u·(1 - e^{-Λ})) / rate, with rate = Λ / W.
        let u = self.rng.f64();
        let q = -(-lambda).exp_m1();
        let frac = -(1.0 - u * q).ln() / lambda; // in [0, 1)
        (a + span.scale_f64(frac)).min(b - Ps::new(1))
    }
}

impl ClientPopulation for FluidPool {
    fn len(&self) -> usize {
        (self.ready + self.thinking + self.fresh + self.in_flight) as usize
    }

    fn generated(&self) -> u64 {
        self.generated
    }

    fn responses(&self) -> u64 {
        self.responses
    }

    fn thinking(&self) -> usize {
        (self.ready + self.thinking + self.fresh) as usize
    }

    fn waiting(&self) -> usize {
        self.in_flight as usize
    }

    /// Moves one unit of in-flight mass back to the think pool. The client
    /// tag is ignored — the fluid model tracks mass, not identity — which
    /// is also what lets a churned server's orphaned requests re-credit the
    /// think pool through the same call.
    ///
    /// # Panics
    ///
    /// Panics if no request is in flight (a double delivery would break
    /// conservation, exactly as in the exact pool).
    fn deliver(&mut self, _client: u32, at: Ps) {
        assert!(
            self.in_flight > 0,
            "fluid pool: response delivered with nothing in flight"
        );
        self.in_flight -= 1;
        self.fresh += 1;
        self.fresh_at_sum += at.as_ps() as u128;
        self.responses += 1;
    }

    /// Samples how many thinking clients complete (Binomial via geometric
    /// skip sampling — `O(issued)`, not `O(population)`) and stamps their
    /// arrivals inside the window. As in [`crate::ClientPool`], clients ready
    /// before the window issue at `from`, and sizes are uniform
    /// `[0.5, 1.5] ×` the mean. Only the sorted arrival instants are held;
    /// each request is built as it streams out.
    fn issue(&mut self, from: Ps, to: Ps, sink: &mut dyn FnMut(Request)) {
        // Cohort 1: thinking since before `from` — memoryless, so the
        // completion probability over the window is exact.
        let p_think = self.completion_prob(from, to);
        let k_think = binomial(&mut self.rng, self.thinking, p_think);

        // Cohort 2: delivered during the previous round, thinking since
        // their (mean) delivery time. Deliveries never land past the
        // barrier, so the mean is at or before `from`.
        let (k_fresh, fresh_mean) = if self.fresh > 0 {
            let mean = Ps::new((self.fresh_at_sum / self.fresh as u128) as u64);
            let p = self.completion_prob(mean, to);
            (binomial(&mut self.rng, self.fresh, p), mean)
        } else {
            (0, from)
        };

        // Arrival times. Ready clients (initial state) were ready before
        // the window and issue at `from`, like an exact client held at
        // the barrier.
        let mut arrivals: Vec<Ps> = Vec::with_capacity((self.ready + k_think + k_fresh) as usize);
        arrivals.resize(self.ready as usize, from);
        for _ in 0..k_think {
            arrivals.push(self.completion_within(from, to));
        }
        for _ in 0..k_fresh {
            // Ready somewhere in [mean, to); the barrier holds anything
            // ready before `from` until `from`.
            arrivals.push(self.completion_within(fresh_mean, to).max(from));
        }
        arrivals.sort_unstable();

        // Update the aggregate state before materializing requests.
        let issued = arrivals.len() as u64;
        self.thinking = self.thinking - k_think + (self.fresh - k_fresh);
        self.ready = 0;
        self.fresh = 0;
        self.fresh_at_sum = 0;
        self.in_flight += issued;
        self.generated += issued;

        for arrival in arrivals {
            let size = self.mean_request_instrs * (0.5 + self.rng.f64());
            let tag = self.next_tag;
            self.next_tag = self.next_tag.wrapping_add(1);
            sink(Request {
                arrival,
                remaining_instrs: size,
                caller: Some(Caller::Client(tag)),
            });
        }
    }
}

/// A Binomial(`n`, `p`) sample via geometric skip sampling: successive
/// failure-run lengths are Geometric(`p`), so the draw costs `O(k + 1)`
/// RNG calls where `k` is the number of successes — per-round cost scales
/// with *issued requests*, not population.
fn binomial(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mut k = 0u64;
    let mut i = rng.geometric(p);
    while i < n {
        k += 1;
        // `i` is the index of the k-th success; skip the next failure run.
        i = i.saturating_add(1).saturating_add(rng.geometric(p));
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClientModel;
    use cluster::BalancePolicy;

    /// Collects one `issue` call's stream.
    fn issued(p: &mut FluidPool, from: Ps, to: Ps) -> Vec<Request> {
        let mut batch = Vec::new();
        p.issue(from, to, &mut |r| batch.push(r));
        batch
    }

    fn cfg(clients: usize, think_us: u64) -> ClosedLoopConfig {
        ClosedLoopConfig::new(clients, Ps::from_us(think_us), BalancePolicy::RoundRobin)
            .with_model(ClientModel::Fluid)
            .with_seed(7)
    }

    #[test]
    fn population_bounds_outstanding_requests() {
        let mut p = FluidPool::new(&cfg(5, 0));
        let batch = issued(&mut p, Ps::ZERO, Ps::from_ms(1));
        assert_eq!(batch.len(), 5, "everyone starts ready");
        assert_eq!(p.waiting(), 5);
        assert_eq!(p.thinking(), 0);
        assert!(issued(&mut p, Ps::from_ms(1), Ps::from_ms(2)).is_empty());
        p.deliver(2, Ps::from_ms(1));
        let again = issued(&mut p, Ps::from_ms(1), Ps::from_ms(2));
        assert_eq!(again.len(), 1, "zero think: a delivery issues next round");
        assert_eq!(p.generated(), 6);
        assert_eq!(p.responses(), 1);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn issue_is_sorted_and_inside_the_window() {
        let mut p = FluidPool::new(&cfg(1000, 50));
        let from = Ps::ZERO;
        let to = Ps::from_ms(1);
        issued(&mut p, from, to); // everyone ready at `from`
        for i in 0..1000 {
            p.deliver(i, Ps::from_us(100 + (i as u64 % 800)));
        }
        let batch = issued(&mut p, to, to + Ps::from_ms(1));
        assert!(!batch.is_empty());
        for w in batch.windows(2) {
            assert!(w[0].arrival <= w[1].arrival, "batch must be time-ordered");
        }
        for r in &batch {
            assert!(r.arrival >= to && r.arrival < to + Ps::from_ms(1));
            let rel = r.remaining_instrs / 40_000.0;
            assert!((0.5..1.5).contains(&rel), "size {rel} out of band");
        }
        assert_eq!(
            p.thinking() + p.waiting(),
            1000,
            "population conserved through a delivery/issue cycle"
        );
    }

    #[test]
    #[should_panic(expected = "nothing in flight")]
    fn double_delivery_panics() {
        let mut p = FluidPool::new(&cfg(1, 0));
        issued(&mut p, Ps::ZERO, Ps::from_ms(1));
        p.deliver(0, Ps::from_us(10));
        p.deliver(0, Ps::from_us(20));
    }

    #[test]
    fn issue_rate_matches_the_think_mean() {
        // 10 000 clients delivered at 200 µs, thinking 500 µs on average,
        // next window ending at 2 ms: the cohort completes with
        // probability 1 − e^(−1.8 ms / 500 µs).
        let mut p = FluidPool::new(&cfg(10_000, 500));
        let d = Ps::from_ms(1);
        let first = issued(&mut p, Ps::ZERO, d);
        assert_eq!(first.len(), 10_000);
        for i in 0..10_000u32 {
            p.deliver(i, Ps::from_us(200));
        }
        let batch = issued(&mut p, d, d + d);
        let expect = 10_000.0 * (1.0 - (-3.6f64).exp());
        let got = batch.len() as f64;
        assert!(
            (got - expect).abs() < 4.0 * (10_000.0f64 * 0.25).sqrt().max(1.0),
            "issued {got}, expected ≈{expect}"
        );
    }

    #[test]
    fn deliveries_are_order_independent() {
        let mk = || {
            let mut p = FluidPool::new(&cfg(64, 100));
            issued(&mut p, Ps::ZERO, Ps::from_ms(1));
            p
        };
        let mut a = mk();
        let mut b = mk();
        // Same multiset of delivery times, opposite orders.
        for i in 0..64u32 {
            a.deliver(i, Ps::from_us(10 + i as u64));
        }
        for i in (0..64u32).rev() {
            b.deliver(i, Ps::from_us(10 + i as u64));
        }
        let ba = issued(&mut a, Ps::from_ms(1), Ps::from_ms(2));
        let bb = issued(&mut b, Ps::from_ms(1), Ps::from_ms(2));
        assert_eq!(ba.len(), bb.len());
        for (x, y) in ba.iter().zip(&bb) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.remaining_instrs.to_bits(), y.remaining_instrs.to_bits());
        }
    }

    #[test]
    fn binomial_matches_mean_and_edges() {
        let mut rng = SimRng::new(11);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
        assert_eq!(binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(binomial(&mut rng, 100, 1.0), 100);
        let n = 2_000u64;
        let p = 0.3;
        let trials = 500;
        let mean: f64 = (0..trials)
            .map(|_| binomial(&mut rng, n, p) as f64)
            .sum::<f64>()
            / trials as f64;
        let expect = n as f64 * p;
        assert!(
            (mean - expect).abs() < 0.01 * expect,
            "mean {mean} expect {expect}"
        );
        // Samples never exceed n.
        for _ in 0..200 {
            assert!(binomial(&mut rng, 7, 0.9) <= 7);
        }
    }

    #[test]
    fn fresh_at_sum_survives_extreme_delivery_times() {
        // Boundary regression (10⁶-scale audit): delivery times near the
        // u64 picosecond horizon must not overflow the cohort sum.
        let mut p = FluidPool::new(&cfg(3, 100));
        issued(&mut p, Ps::ZERO, Ps::from_ms(1));
        let huge = Ps::new(u64::MAX - 1);
        p.deliver(0, huge);
        p.deliver(1, huge);
        p.deliver(2, huge);
        assert_eq!(p.responses(), 3);
        // The mean delivery time is representable and the next issue's
        // window sits past it without panicking.
        let batch = issued(&mut p, Ps::new(u64::MAX - 1), Ps::new(u64::MAX));
        assert!(batch.len() <= 3);
        assert_eq!(p.thinking() + p.waiting(), 3);
    }
}
