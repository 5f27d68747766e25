//! The memory-subsystem performance counters CoScale inherits from MemScale.
//!
//! The paper's model decomposes memory stall time as
//! `E[TPI_Mem] = ξ_bank · (S_Bank + ξ_bus · S_Bus)` where the `ξ` terms are
//! queueing multipliers and the `S` terms are raw service times. The
//! counters here record the measured waits and service times; the CoScale
//! model holds each `ξ` constant across frequencies (MemScale's rule), so it
//! re-predicts stall time by scaling the measured waits with the service
//! times they queue behind. They also hold the busy/idle and page-event
//! counts the memory power model consumes.

use simkernel::Ps;

/// Cumulative memory-subsystem counters. All fields are monotonically
/// increasing; epoch-level statistics are taken by snapshotting and
/// subtracting (see [`MemCounters::delta`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Demand reads completed.
    pub reads: u64,
    /// Writebacks drained to DRAM.
    pub writes: u64,
    /// Total read latency (arrival to data return), summed over reads.
    pub read_latency_sum: Ps,
    /// Total time read requests spent waiting for their bank to become
    /// available (queueing before ACT), summed.
    pub bank_wait_sum: Ps,
    /// Total time read requests spent waiting for the data bus after their
    /// column access would otherwise have completed, summed.
    pub bus_wait_sum: Ps,
    /// Total raw bank service time (ACT→data valid, excluding queueing),
    /// summed over reads.
    pub bank_service_sum: Ps,
    /// Total data-bus occupancy (read + write bursts).
    pub bus_busy: Ps,
    /// Row activations (page opens), reads and writes.
    pub page_opens: u64,
    /// Precharges (page closes), reads and writes.
    pub page_closes: u64,
    /// Accesses served from an already-open row (open-page policy only).
    pub row_hits: u64,
    /// Accesses that had to close another row first (open-page only).
    pub row_conflicts: u64,
    /// Refresh commands issued.
    pub refreshes: u64,
    /// Total time with at least one bank active, summed over ranks
    /// (rank-seconds; divide by rank count for an average active fraction).
    pub rank_active: Ps,
    /// Time the whole subsystem spent stalled for frequency recalibration.
    pub recal_stall: Ps,
    /// Total time ranks spent in a managed idle low-power state
    /// (rank-seconds; zero unless an [`crate::IdleMemPolicy`] is set).
    pub rank_sleep: Ps,
    /// Times a rank was woken out of a managed idle state.
    pub sleep_wakeups: u64,
}

impl MemCounters {
    /// Component-wise `self - earlier`; used to extract per-epoch or
    /// per-profiling-window statistics from cumulative counters.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    pub fn delta(&self, earlier: &MemCounters) -> MemCounters {
        MemCounters {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            read_latency_sum: self.read_latency_sum - earlier.read_latency_sum,
            bank_wait_sum: self.bank_wait_sum - earlier.bank_wait_sum,
            bus_wait_sum: self.bus_wait_sum - earlier.bus_wait_sum,
            bank_service_sum: self.bank_service_sum - earlier.bank_service_sum,
            bus_busy: self.bus_busy - earlier.bus_busy,
            page_opens: self.page_opens - earlier.page_opens,
            page_closes: self.page_closes - earlier.page_closes,
            row_hits: self.row_hits - earlier.row_hits,
            row_conflicts: self.row_conflicts - earlier.row_conflicts,
            refreshes: self.refreshes - earlier.refreshes,
            rank_active: self.rank_active - earlier.rank_active,
            recal_stall: self.recal_stall - earlier.recal_stall,
            rank_sleep: self.rank_sleep - earlier.rank_sleep,
            sleep_wakeups: self.sleep_wakeups - earlier.sleep_wakeups,
        }
    }

    /// Fraction of rank-time spent in a managed idle state over `window`.
    pub fn rank_sleep_fraction(&self, window: Ps, ranks: usize) -> f64 {
        if window == Ps::ZERO {
            return 0.0;
        }
        (self.rank_sleep.as_secs_f64() / (window.as_secs_f64() * ranks as f64)).min(1.0)
    }

    /// Mean read latency; zero when no reads completed.
    pub fn avg_read_latency(&self) -> Ps {
        if self.reads == 0 {
            Ps::ZERO
        } else {
            self.read_latency_sum / self.reads
        }
    }

    /// Mean bank-queueing wait per read.
    pub fn avg_bank_wait(&self) -> Ps {
        if self.reads == 0 {
            Ps::ZERO
        } else {
            self.bank_wait_sum / self.reads
        }
    }

    /// Mean bus wait per read.
    pub fn avg_bus_wait(&self) -> Ps {
        if self.reads == 0 {
            Ps::ZERO
        } else {
            self.bus_wait_sum / self.reads
        }
    }

    /// Data-bus utilization over a window of `window` per channel-second,
    /// given `channels` channels.
    pub fn bus_utilization(&self, window: Ps, channels: usize) -> f64 {
        if window == Ps::ZERO {
            return 0.0;
        }
        (self.bus_busy.as_secs_f64() / (window.as_secs_f64() * channels as f64)).min(1.0)
    }

    /// Average fraction of time a rank had at least one bank open, given
    /// `ranks` total ranks observed over `window`.
    pub fn rank_active_fraction(&self, window: Ps, ranks: usize) -> f64 {
        if window == Ps::ZERO {
            return 0.0;
        }
        (self.rank_active.as_secs_f64() / (window.as_secs_f64() * ranks as f64)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MemCounters {
        MemCounters {
            reads: 10,
            writes: 5,
            read_latency_sum: Ps::from_ns(1000),
            bank_wait_sum: Ps::from_ns(200),
            bus_wait_sum: Ps::from_ns(100),
            bank_service_sum: Ps::from_ns(400),
            bus_busy: Ps::from_ns(75),
            page_opens: 15,
            page_closes: 15,
            row_hits: 0,
            row_conflicts: 0,
            refreshes: 2,
            rank_active: Ps::from_ns(600),
            recal_stall: Ps::ZERO,
            rank_sleep: Ps::ZERO,
            sleep_wakeups: 0,
        }
    }

    #[test]
    fn averages() {
        let c = sample();
        assert_eq!(c.avg_read_latency(), Ps::from_ns(100));
        assert_eq!(c.avg_bank_wait(), Ps::from_ns(20));
        assert_eq!(c.avg_bus_wait(), Ps::from_ns(10));
    }

    #[test]
    fn empty_counters_have_zero_averages() {
        let c = MemCounters::default();
        assert_eq!(c.avg_read_latency(), Ps::ZERO);
        assert_eq!(c.bus_utilization(Ps::ZERO, 4), 0.0);
    }

    #[test]
    fn delta_subtracts_componentwise() {
        let a = sample();
        let mut b = a;
        b.reads += 3;
        b.read_latency_sum += Ps::from_ns(30);
        b.refreshes += 1;
        let d = b.delta(&a);
        assert_eq!(d.reads, 3);
        assert_eq!(d.read_latency_sum, Ps::from_ns(30));
        assert_eq!(d.refreshes, 1);
        assert_eq!(d.writes, 0);
    }

    #[test]
    fn utilization_fractions() {
        let c = sample();
        // 75ns busy over 100ns * 4 channels = 18.75%.
        assert!((c.bus_utilization(Ps::from_ns(100), 4) - 0.1875).abs() < 1e-12);
        // 600ns rank-active over 100ns * 16 ranks = 37.5%.
        assert!((c.rank_active_fraction(Ps::from_ns(100), 16) - 0.375).abs() < 1e-12);
    }
}
