//! A small deterministic PRNG (xoshiro256**) for workload synthesis.
//!
//! The simulation must be a pure function of `(config, seed)` — across
//! machines, compiler versions and dependency upgrades — because experiment
//! tables in `EXPERIMENTS.md` are regenerated from scratch and compared over
//! time, and because the `Offline` oracle policy rewinds and replays
//! checkpointed simulation state. Implementing the generator here (rather
//! than depending on an external crate whose stream might change between
//! versions) pins the stream forever.

/// Deterministic xoshiro256** PRNG with convenience samplers.
///
/// # Example
///
/// ```
/// use simkernel::SimRng;
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let x = a.f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed. The four words of internal state are
    /// derived with SplitMix64, as recommended by the xoshiro authors.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent child generator; used to give each simulated
    /// core / application its own stream so that adding a core never perturbs
    /// another core's trace.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0xA24BAED4963EE407))
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Widening multiply keeps the result unbiased enough for simulation
        // purposes (bias < 2^-64 per draw without the rejection loop; we use
        // the simple variant deliberately for speed and determinism).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Geometric sample: the number of failures before the first success
    /// with success probability `p`; mean `(1-p)/p`. Used for inter-miss
    /// instruction gaps. A caller drawing many samples at one `p` can
    /// build the [`Geometric`] law once instead.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        Geometric::new(p).sample(self)
    }
}

/// The geometric law of [`SimRng::geometric`] with its `ln(1 - p)`
/// computed once, for callers that draw many samples at one `p`.
///
/// # Example
///
/// ```
/// use simkernel::{Geometric, SimRng};
/// let law = Geometric::new(0.25);
/// let (mut a, mut b) = (SimRng::new(3), SimRng::new(3));
/// assert_eq!(law.sample(&mut a), b.geometric(0.25));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Geometric {
    /// `ln(1 - p)`, or `None` when `p >= 1` and every sample is 0.
    ln_q: Option<f64>,
}

impl Geometric {
    /// The law with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "geometric needs p in (0,1], got {p}");
        Geometric {
            ln_q: (p < 1.0).then(|| (1.0 - p).ln()),
        }
    }

    /// One sample: the number of failures before the first success. Draws
    /// nothing from `rng` when `p >= 1`.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match self.ln_q {
            Some(ln_q) => {
                let u = rng.f64().max(f64::MIN_POSITIVE);
                (u.ln() / ln_q).floor() as u64
            }
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
        // Every residue should appear for a small bound.
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_endpoints() {
        let mut r = SimRng::new(9);
        for _ in 0..1_000 {
            let x = r.range(10, 12);
            assert!(x == 10 || x == 11);
        }
    }

    #[test]
    fn geometric_mean_matches_theory() {
        let mut r = SimRng::new(13);
        let p = 0.01;
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.geometric(p) as f64).sum::<f64>() / n as f64;
        let expect = (1.0 - p) / p; // 99
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} expect {expect}"
        );
    }

    #[test]
    fn geometric_p_one_is_zero() {
        let mut r = SimRng::new(1);
        let before = r.clone();
        assert_eq!(r.geometric(1.0), 0);
        assert_eq!(r, before, "p = 1 draws nothing");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut root = SimRng::new(21);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn clone_replays_identically() {
        let mut r = SimRng::new(99);
        r.next_u64();
        let mut snap = r.clone();
        let ahead: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
        let replay: Vec<u64> = (0..16).map(|_| snap.next_u64()).collect();
        assert_eq!(ahead, replay);
    }
}
