//! Windowed, deterministic aggregation of per-tier critical-path time.

use std::collections::VecDeque;

/// Aggregates [`ClosedRoot`] critical-path attributions per round over a
/// sliding window of rounds.
///
/// The serving loop calls [`record`] for every DAG that terminates during
/// a round and [`end_round`] at the barrier; [`shares`] then exposes the
/// windowed per-tier fraction of critical-path time for the *preceding*
/// rounds — each barrier's budget split sees only completed rounds, so the
/// signal is identical for any worker-thread count.
///
/// [`ClosedRoot`]: crate::ClosedRoot
/// [`record`]: TraceCollector::record
/// [`end_round`]: TraceCollector::end_round
/// [`shares`]: TraceCollector::shares
#[derive(Clone, Debug)]
pub struct TraceCollector {
    n_tiers: usize,
    window_rounds: usize,
    rounds: VecDeque<Vec<u64>>,
    windowed: Vec<u64>,
    current: Vec<u64>,
    total: Vec<u64>,
    slowest: Vec<u64>,
    roots_recorded: u64,
}

impl TraceCollector {
    /// Creates a collector for `n_tiers` tiers with a window of
    /// `window_rounds` completed rounds (at least 1).
    pub fn new(n_tiers: usize, window_rounds: usize) -> Self {
        TraceCollector {
            n_tiers,
            window_rounds: window_rounds.max(1),
            rounds: VecDeque::new(),
            windowed: vec![0; n_tiers],
            current: vec![0; n_tiers],
            total: vec![0; n_tiers],
            slowest: vec![0; n_tiers],
            roots_recorded: 0,
        }
    }

    /// Folds one terminated DAG's per-tier critical-path attribution into
    /// the current round, and counts its slowest leg (ties to the earliest
    /// tier).
    pub fn record(&mut self, crit_ps: &[u64]) {
        assert_eq!(crit_ps.len(), self.n_tiers, "tier count mismatch");
        let mut slow = 0usize;
        for (t, &c) in crit_ps.iter().enumerate() {
            self.current[t] += c;
            self.total[t] += c;
            if c > crit_ps[slow] {
                slow = t;
            }
        }
        self.slowest[slow] += 1;
        self.roots_recorded += 1;
    }

    /// Seals the current round into the window, evicting the oldest round
    /// beyond the window length.
    pub fn end_round(&mut self) {
        let round = std::mem::replace(&mut self.current, vec![0; self.n_tiers]);
        for (w, &c) in self.windowed.iter_mut().zip(&round) {
            *w += c;
        }
        self.rounds.push_back(round);
        while self.rounds.len() > self.window_rounds {
            let old = self.rounds.pop_front().expect("non-empty window");
            for (w, &c) in self.windowed.iter_mut().zip(&old) {
                *w -= c;
            }
        }
    }

    /// Per-tier share of critical-path time over the window of completed
    /// rounds; all zeros while no trace has landed (the split discipline
    /// treats that as "sparse" and degrades to demand-proportional).
    pub fn shares(&self) -> Vec<f64> {
        let sum: u64 = self.windowed.iter().sum();
        if sum == 0 {
            return vec![0.0; self.n_tiers];
        }
        self.windowed
            .iter()
            .map(|&w| w as f64 / sum as f64)
            .collect()
    }

    /// Lifetime per-tier critical-path totals, in picoseconds.
    pub fn total_ps(&self) -> &[u64] {
        &self.total
    }

    /// Lifetime per-tier slowest-leg counts.
    pub fn slowest_counts(&self) -> &[u64] {
        &self.slowest
    }

    /// Number of DAGs folded in over the collector's lifetime.
    pub fn roots_recorded(&self) -> u64 {
        self.roots_recorded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_zero_until_first_trace() {
        let mut c = TraceCollector::new(3, 4);
        assert_eq!(c.shares(), vec![0.0; 3]);
        c.end_round();
        assert_eq!(c.shares(), vec![0.0; 3]);
        c.record(&[10, 30, 60]);
        c.end_round();
        let s = c.shares();
        assert!((s[0] - 0.1).abs() < 1e-12);
        assert!((s[2] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn current_round_not_visible_until_sealed() {
        let mut c = TraceCollector::new(2, 4);
        c.record(&[5, 5]);
        assert_eq!(
            c.shares(),
            vec![0.0; 2],
            "unsealed round must not leak into shares"
        );
        c.end_round();
        assert_eq!(c.shares(), vec![0.5; 2]);
    }

    #[test]
    fn window_evicts_old_rounds() {
        let mut c = TraceCollector::new(2, 2);
        c.record(&[100, 0]);
        c.end_round();
        c.record(&[0, 1]);
        c.end_round();
        c.record(&[0, 1]);
        c.end_round();
        // The [100, 0] round fell out of the 2-round window.
        let s = c.shares();
        assert_eq!(s, vec![0.0, 1.0]);
        // Lifetime totals keep everything.
        assert_eq!(c.total_ps(), &[100, 2]);
    }

    #[test]
    fn slowest_ties_go_to_earliest_tier() {
        let mut c = TraceCollector::new(3, 4);
        c.record(&[5, 5, 1]);
        c.record(&[0, 7, 7]);
        assert_eq!(c.slowest_counts(), &[1, 1, 0]);
        assert_eq!(c.roots_recorded(), 2);
    }
}
