//! Property-based tests for the service layer's queue and arrival stream.

use proptest::prelude::*;
use service::{ArrivalGen, ArrivalKind, Request, RequestQueue};
use simkernel::{stats::Histogram, Ps};

proptest! {
    /// Request conservation across randomized windows and rates: every
    /// request fed to the queue is exactly one of completed, shed, or
    /// still queued — none is lost or double-counted, however the timeline
    /// is windowed or the drain rate jumps around.
    #[test]
    fn queue_conserves_requests(
        seed in any::<u64>(),
        rate_hz in 1_000.0f64..200_000.0,
        capacity in 1usize..64,
        window_bounds in prop::collection::vec(1u64..2_000, 1..12),
        rates in prop::collection::vec(0u64..4, 1..12),
    ) {
        let mut gen = ArrivalGen::new(ArrivalKind::Poisson { rate_hz }, seed);
        let mut q = RequestQueue::new(capacity);
        let mut hist = Histogram::new();
        let mut fed = 0u64;
        let mut t = Ps::ZERO;
        for (i, us) in window_bounds.iter().enumerate() {
            let to = t + Ps::from_us(*us);
            // Rates cycle through stalled / slow / fast per window.
            let rate_ips = [0.0, 5e8, 2e9, 8e9][rates[i % rates.len()] as usize];
            let arrivals: Vec<Request> = gen
                .arrivals_until(to)
                .into_iter()
                .map(|arrival| Request { arrival, remaining_instrs: 1_000.0, caller: None })
                .collect();
            prop_assert!(arrivals.iter().all(|r| r.arrival >= t && r.arrival < to));
            fed += arrivals.len() as u64;
            let mut events = Vec::new();
            let advanced = q.advance(t, to, rate_ips, &arrivals, &mut hist, &mut events);
            prop_assert!(advanced.is_ok(), "queue invariant: {:?}", advanced.err());
            prop_assert!(events.is_empty(), "untagged requests emit no events");
            prop_assert_eq!(
                fed,
                q.completed() + q.shed() + q.depth() as u64,
                "conservation broken after window {}", i
            );
            t = to;
        }
        prop_assert_eq!(hist.count(), q.completed());
    }
}
