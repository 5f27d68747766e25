//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use simkernel::{stats::Histogram, EventQueue, Freq, Ps, SimRng};

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

proptest! {
    /// Events always pop in non-decreasing time order, with FIFO ties.
    #[test]
    fn event_queue_is_sorted_and_stable(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Ps::new(t), i);
        }
        let mut last: Option<(Ps, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(t > lt || (t == lt && id > lid),
                    "order violated: {lt:?}/{lid} then {t:?}/{id}");
            }
            last = Some((t, id));
        }
    }

    /// Popping returns exactly the set of pushed payloads.
    #[test]
    fn event_queue_conserves_events(times in prop::collection::vec(0u64..10_000, 0..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Ps::new(t), i);
        }
        let mut seen = vec![false; times.len()];
        while let Some((_, id)) = q.pop() {
            prop_assert!(!seen[id]);
            seen[id] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// The rounded period is within half a picosecond of the exact period
    /// for every frequency in the simulated range (100 MHz .. 5 GHz).
    #[test]
    fn freq_period_rounding_is_tight(hz in 100_000_000u64..5_000_000_000) {
        let f = Freq::from_hz(hz);
        let exact = 1e12 / hz as f64;
        let got = f.period().as_ps() as f64;
        prop_assert!((got - exact).abs() <= 0.5 + 1e-9, "got {got}, exact {exact}");
    }

    /// cycles() is the floor inverse of cycles_to_ps().
    #[test]
    fn freq_cycle_roundtrip(mhz in 100u64..4_000, n in 0u64..100_000) {
        let f = Freq::from_mhz(mhz);
        let span = f.cycles_to_ps(n);
        prop_assert_eq!(f.cycles(span), n);
        if n > 0 {
            prop_assert_eq!(f.cycles(span - Ps::new(1)), n - 1);
        }
    }

    /// The PRNG's uniform sampler stays in range for arbitrary bounds.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut r = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert!(r.below(bound) < bound);
        }
    }

    /// Cloned generators replay the identical stream (checkpointability).
    #[test]
    fn rng_clone_replays(seed in any::<u64>(), skip in 0usize..64) {
        let mut r = SimRng::new(seed);
        for _ in 0..skip { r.next_u64(); }
        let mut c = r.clone();
        for _ in 0..32 {
            prop_assert_eq!(r.next_u64(), c.next_u64());
        }
    }

    /// Histogram merging is commutative: a∪b has exactly the same buckets,
    /// count and sum as b∪a.
    #[test]
    fn histogram_merge_commutes(
        xs in prop::collection::vec(0u64..1_000_000_000, 0..80),
        ys in prop::collection::vec(0u64..1_000_000_000, 0..80),
    ) {
        let (a, b) = (hist_of(&xs), hist_of(&ys));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count(), (xs.len() + ys.len()) as u64);
    }

    /// Histogram merging is associative: (a∪b)∪c == a∪(b∪c), and both equal
    /// the histogram built from the concatenated samples.
    #[test]
    fn histogram_merge_associates(
        xs in prop::collection::vec(0u64..1_000_000_000, 0..50),
        ys in prop::collection::vec(0u64..1_000_000_000, 0..50),
        zs in prop::collection::vec(0u64..1_000_000_000, 0..50),
    ) {
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        let all: Vec<u64> = xs.iter().chain(&ys).chain(&zs).copied().collect();
        prop_assert_eq!(&left, &hist_of(&all));
    }

    /// Percentiles are monotone in the quantile: q1 ≤ q2 ⇒ P(q1) ≤ P(q2).
    #[test]
    fn histogram_percentile_monotone(
        xs in prop::collection::vec(1u64..1_000_000_000, 1..120),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let h = hist_of(&xs);
        let (lo_q, hi_q) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(h.percentile(lo_q) <= h.percentile(hi_q),
            "P({lo_q}) = {} > P({hi_q}) = {}", h.percentile(lo_q), h.percentile(hi_q));
    }

    /// Each percentile lies within the value bounds of the bucket holding
    /// the sample it targets (the ~2x bucket-resolution guarantee).
    #[test]
    fn histogram_percentile_within_bucket_bounds(
        xs in prop::collection::vec(1u64..1_000_000_000, 1..120),
        q in 0.0f64..1.0,
    ) {
        let h = hist_of(&xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        // The sample the quantile targets (matching the histogram's
        // ceil-rank convention).
        let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize - 1;
        let target = sorted[rank];
        let (lo, hi) = Histogram::bucket_bounds(target);
        let got = h.percentile(q);
        prop_assert!(got >= lo && got <= hi,
            "P({q}) = {got} outside bucket [{lo},{hi}] of sample {target}");
    }

    /// Ps::scale_f64 by a ratio a/b then b/a returns close to the original.
    #[test]
    fn ps_scale_roundtrip(ps in 1_000u64..1_000_000_000, num in 1u64..100, den in 1u64..100) {
        let t = Ps::new(ps);
        let f = num as f64 / den as f64;
        let back = t.scale_f64(f).scale_f64(1.0 / f);
        let err = back.as_ps().abs_diff(t.as_ps());
        // The first rounding is off by at most 0.5 ps, which the inverse
        // scale amplifies by up to den/num; allow one extra for the second
        // rounding.
        let bound = 1 + (0.5 * den as f64 / num as f64).ceil() as u64;
        prop_assert!(err <= bound, "err {err} > bound {bound}");
    }
}
