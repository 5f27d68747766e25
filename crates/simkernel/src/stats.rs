//! A streaming latency histogram: memsim's demand-read latencies and the
//! service layer's request sojourns.

/// A log₂-bucketed streaming histogram over `u64` samples (e.g. latencies
/// in picoseconds): constant memory, O(1) insert, ~2x-resolution percentile
/// queries — sufficient for tail-latency reporting. Histograms are
/// mergeable (associative and commutative up to the exact `u64` bucket
/// counts), so per-server or per-thread histograms can be combined into
/// fleet-wide ones without losing information.
///
/// Shared by the memory simulator (demand-read latencies) and the service
/// layer (request sojourn times).
///
/// # Example
///
/// ```
/// use simkernel::stats::Histogram;
/// let mut h = Histogram::new();
/// for v in [100, 200, 400, 800] { h.record(v); }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(0.5) >= 100);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()).saturating_sub(1) as usize
    }

    /// The inclusive `[lo, hi]` value range of the bucket a sample lands
    /// in. Any percentile that falls on that sample reports a value within
    /// these bounds.
    pub fn bucket_bounds(v: u64) -> (u64, u64) {
        let i = Self::bucket_of(v.max(1));
        let lo = 1u64 << i;
        (lo, lo.saturating_mul(2).saturating_sub(1))
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v.max(1))] += 1;
        self.count += 1;
        self.sum += v as u128;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples (not bucketed).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`): the geometric midpoint of
    /// the bucket containing the quantile. Zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let lo = 1u64 << i;
                let hi = lo.saturating_mul(2).saturating_sub(1);
                return lo / 2 + hi / 2 + 1; // midpoint without overflow
            }
        }
        u64::MAX
    }

    /// Merges another histogram into this one. Merging is associative and
    /// commutative: any merge tree over the same histograms produces the
    /// same buckets, counts and sums.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_basics() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.99), 0);
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // p50 of 1..=1000 is ~500; bucket [512,1023] or [256,511].
        let p50 = h.percentile(0.5);
        assert!((256..=1024).contains(&p50), "p50 {p50}");
        let p99 = h.percentile(0.99);
        assert!(p99 >= p50);
    }

    #[test]
    fn log_histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        // A fresh histogram is empty, so merging one changes nothing.
        assert_eq!(Histogram::new().count(), 0);
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn log_histogram_zero_maps_to_first_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert!(h.percentile(1.0) <= 2);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn log_histogram_bad_quantile_panics() {
        Histogram::new().percentile(1.5);
    }
}
