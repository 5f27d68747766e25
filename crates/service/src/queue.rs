//! Bounded FIFO request queue with a fluid service model.
//!
//! The serving layer does not simulate requests instruction-by-instruction;
//! instead each coordination round it measures the engine's aggregate
//! instruction throughput and drains queued requests *fluidly* at that
//! rate, first-come-first-served. A request's sojourn time is the span from
//! its arrival to the instant the fluid server finishes its instruction
//! demand — queueing delay plus service time under whatever DVFS plan the
//! power cap forced. Admission control is a hard bound on queue depth:
//! arrivals beyond it are shed and counted.
//!
//! The queue's accounting invariants (the half-open arrival window and
//! request conservation) are checked on *every* [`RequestQueue::advance`]
//! call, debug and release builds alike — a violation returns an error
//! rather than silently drifting the bench numbers.

use simkernel::{stats::Histogram, Ps};
use std::collections::VecDeque;
use topology::SpanCtx;

/// Who waits for a request's terminal event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Caller {
    /// The closed-loop client that issued the request.
    Client(u32),
    /// The span of a multi-tier DAG the request carries (the issuing
    /// client lives in the tracker's record of the root).
    Span(SpanCtx),
}

/// One in-flight request.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// When the request arrived.
    pub arrival: Ps,
    /// Instructions still to be executed on its behalf.
    pub remaining_instrs: f64,
    /// Who learns when the request completes or is shed. Open-loop
    /// streams leave this `None` and get no events.
    pub caller: Option<Caller>,
}

/// How a closed-loop request reached its terminal state within one
/// [`RequestQueue::advance`] window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// The fluid server finished the request's instruction demand.
    Completed,
    /// Admission control shed the request at arrival (queue full).
    Shed,
}

/// A request's terminal event, reported back so the issuing client can
/// start thinking (or the DAG tracker can spawn/close spans). Only
/// requests with a [`Caller`] produce events.
#[derive(Clone, Copy, Debug)]
pub struct ClientEvent {
    /// The client or span the request was issued for.
    pub caller: Caller,
    /// When the request completed (or was shed — its arrival instant).
    pub at: Ps,
    /// What happened to it.
    pub resolution: Resolution,
}

/// A bounded FIFO queue drained by the fluid server.
#[derive(Clone, Debug)]
pub struct RequestQueue {
    waiting: VecDeque<Request>,
    capacity: usize,
    arrived: u64,
    shed: u64,
    completed: u64,
    abandoned: u64,
}

impl RequestQueue {
    /// An empty queue holding at most `capacity` requests (including the
    /// one in service).
    pub fn new(capacity: usize) -> RequestQueue {
        assert!(capacity > 0, "queue capacity must be positive");
        RequestQueue {
            waiting: VecDeque::new(),
            capacity,
            arrived: 0,
            shed: 0,
            completed: 0,
            abandoned: 0,
        }
    }

    /// Requests currently queued (including the one in service).
    pub fn depth(&self) -> usize {
        self.waiting.len()
    }

    /// Requests handed to the queue so far (admitted or shed).
    pub fn arrived(&self) -> u64 {
        self.arrived
    }

    /// Requests shed by admission control so far.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Requests completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests abandoned in-queue so far (see
    /// [`RequestQueue::abandon_all`]).
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    fn admit(&mut self, r: Request, events: &mut Vec<ClientEvent>) {
        if self.waiting.len() >= self.capacity {
            self.shed += 1;
            if let Some(caller) = r.caller {
                events.push(ClientEvent {
                    caller,
                    at: r.arrival,
                    resolution: Resolution::Shed,
                });
            }
        } else {
            self.waiting.push_back(r);
        }
    }

    /// Drops everything still queued (server leaving the fleet, or the
    /// horizon ending), returning the abandoned requests so closed-loop
    /// callers can release their clients.
    pub fn abandon_all(&mut self) -> Vec<Request> {
        self.abandoned += self.waiting.len() as u64;
        self.waiting.drain(..).collect()
    }

    /// Advances the fluid server over the window `[from, to)`: admits
    /// `arrivals` (time-ordered, all strictly inside the half-open window)
    /// as their arrival times pass, drains the queue head at `rate_ips`
    /// instructions per second, and records each completion's sojourn time
    /// in picoseconds into `hist`. Requests unfinished at `to` carry their
    /// remaining instruction demand into the next window (where the rate
    /// may differ — that is how a power cap stretches the tail). Appends
    /// the terminal events of every request with a caller resolved in the
    /// window to `events`, in resolution order, leaving its existing
    /// contents untouched.
    ///
    /// # Errors
    ///
    /// Returns an error — in debug *and* release builds, before touching
    /// any state or `events` — when `arrivals` is not time-ordered or an
    /// arrival lands at or beyond `to` (such a request belongs to the
    /// *next* window: the generator's `arrivals_until(to)` contract, and
    /// admitting it here as well would double-count it at the window
    /// boundary), and after the drain when the conservation law `arrived =
    /// completed + shed + abandoned + queued` stops holding.
    pub fn advance(
        &mut self,
        from: Ps,
        to: Ps,
        rate_ips: f64,
        arrivals: &[Request],
        hist: &mut Histogram,
        events: &mut Vec<ClientEvent>,
    ) -> Result<(), String> {
        if !arrivals.windows(2).all(|w| w[0].arrival <= w[1].arrival) {
            return Err("queue invariant: arrivals not time-ordered".into());
        }
        if let Some(r) = arrivals.iter().find(|r| r.arrival >= to) {
            return Err(format!(
                "queue invariant: arrival at {} is at or past the window end {} \
                 and belongs to the next window",
                r.arrival, to
            ));
        }
        self.arrived += arrivals.len() as u64;
        let mut t = from;
        let mut next = 0usize;
        loop {
            // Admit everything that has arrived by now.
            while next < arrivals.len() && arrivals[next].arrival <= t {
                self.admit(arrivals[next], events);
                next += 1;
            }
            if t >= to {
                break;
            }
            let Some(head) = self.waiting.front_mut() else {
                // Idle: jump to the next arrival, or end the window.
                match arrivals.get(next) {
                    Some(r) if r.arrival < to => t = r.arrival,
                    _ => break,
                }
                continue;
            };
            if rate_ips <= 0.0 {
                // Stalled server: nothing completes; just admit the rest.
                t = to;
                continue;
            }
            let finish = t + Ps::from_secs_f64(head.remaining_instrs / rate_ips);
            let horizon = match arrivals.get(next) {
                Some(r) if r.arrival < to => r.arrival.min(to),
                _ => to,
            };
            if finish <= horizon {
                let sojourn = finish - head.arrival;
                hist.record(sojourn.as_ps().max(1));
                if let Some(caller) = head.caller {
                    events.push(ClientEvent {
                        caller,
                        at: finish,
                        resolution: Resolution::Completed,
                    });
                }
                self.waiting.pop_front();
                self.completed += 1;
                t = finish;
            } else {
                head.remaining_instrs =
                    (head.remaining_instrs - rate_ips * (horizon - t).as_secs_f64()).max(0.0);
                t = horizon;
            }
        }
        let accounted = self.completed + self.shed + self.abandoned + self.waiting.len() as u64;
        if self.arrived != accounted {
            return Err(format!(
                "queue invariant: {} arrived but {accounted} accounted \
                 (completed {} + shed {} + abandoned {} + queued {})",
                self.arrived,
                self.completed,
                self.shed,
                self.abandoned,
                self.waiting.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(at_ns: u64, instrs: f64) -> Request {
        Request {
            arrival: Ps::from_ns(at_ns),
            remaining_instrs: instrs,
            caller: None,
        }
    }

    #[test]
    fn lone_request_sojourn_is_its_service_time() {
        let mut q = RequestQueue::new(16);
        let mut h = Histogram::new();
        // 1e9 instrs/s → 1000 instrs take 1 µs.
        q.advance(
            Ps::ZERO,
            Ps::from_us(10),
            1e9,
            &[req(1_000, 1_000.0)],
            &mut h,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(q.completed(), 1);
        assert_eq!(q.arrived(), 1);
        assert_eq!(h.count(), 1);
        let (lo, hi) = Histogram::bucket_bounds(Ps::from_us(1).as_ps());
        let p = h.percentile(0.5);
        assert!(p >= lo && p <= hi, "sojourn {p} not ≈1µs");
    }

    #[test]
    fn fifo_queueing_delay_accumulates() {
        let mut q = RequestQueue::new(16);
        let mut h = Histogram::new();
        // Two simultaneous arrivals: the second waits for the first.
        let arrivals = [req(0, 1_000.0), req(0, 1_000.0)];
        q.advance(
            Ps::ZERO,
            Ps::from_us(10),
            1e9,
            &arrivals,
            &mut h,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(q.completed(), 2);
        // Sojourns are 1 µs and 2 µs; mean 1.5 µs (exact, sum is unbucketed).
        let mean_us = h.mean() / 1e6;
        assert!((mean_us - 1.5).abs() < 0.01, "mean {mean_us} µs");
    }

    #[test]
    fn partial_service_carries_across_windows() {
        let mut q = RequestQueue::new(16);
        let mut h = Histogram::new();
        // 10 µs of work arrives at 0; the first window is 4 µs long.
        q.advance(
            Ps::ZERO,
            Ps::from_us(4),
            1e9,
            &[req(0, 10_000.0)],
            &mut h,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(q.completed(), 0);
        assert_eq!(q.depth(), 1);
        // Second window at double speed: 6000 instrs left → 3 µs more.
        q.advance(
            Ps::from_us(4),
            Ps::from_us(20),
            2e9,
            &[],
            &mut h,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(q.completed(), 1);
        let (lo, hi) = Histogram::bucket_bounds(Ps::from_us(7).as_ps());
        let p = h.percentile(0.5);
        assert!(p >= lo && p <= hi, "sojourn {p} not ≈7µs");
    }

    #[test]
    fn admission_control_sheds_beyond_capacity() {
        let mut q = RequestQueue::new(2);
        let mut h = Histogram::new();
        // Stalled server: all four arrive while nothing drains.
        let arrivals: Vec<Request> = (0..4).map(|i| req(i, 100.0)).collect();
        q.advance(
            Ps::ZERO,
            Ps::from_us(1),
            0.0,
            &arrivals,
            &mut h,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(q.depth(), 2);
        assert_eq!(q.shed(), 2);
        assert_eq!(q.completed(), 0);
        assert_eq!(q.abandon_all().len(), 2);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.abandoned(), 2);
        assert_eq!(q.arrived(), 4);
    }

    #[test]
    fn boundary_arrival_is_rejected_in_release_builds_too() {
        // Regression: an arrival exactly at the window end used to be
        // admitted inside `[from, to)` — the next window (whose generator
        // contract hands it the same request) would then admit it again.
        // Formerly a debug_assert; now an always-on invariant error.
        let mut q = RequestQueue::new(4);
        let mut h = Histogram::new();
        let err = q
            .advance(
                Ps::ZERO,
                Ps::from_us(1),
                1e9,
                &[req(1_000, 100.0)],
                &mut h,
                &mut Vec::new(),
            )
            .unwrap_err();
        assert!(err.contains("next window"), "{err}");
        // The rejected call touched nothing.
        assert_eq!(q.arrived(), 0);
        assert_eq!(q.depth(), 0);

        let unordered = [req(500, 100.0), req(100, 100.0)];
        let err = q
            .advance(
                Ps::ZERO,
                Ps::from_us(1),
                1e9,
                &unordered,
                &mut h,
                &mut Vec::new(),
            )
            .unwrap_err();
        assert!(err.contains("time-ordered"), "{err}");
    }

    #[test]
    fn client_tagged_requests_report_terminal_events() {
        let mut q = RequestQueue::new(2);
        let mut h = Histogram::new();
        let tagged = |at_ns: u64, instrs: f64, client: u32| Request {
            caller: Some(Caller::Client(client)),
            ..req(at_ns, instrs)
        };
        // Clients 0 and 1 fill the queue; client 2 is shed at arrival.
        let arrivals = [
            tagged(0, 1_000.0, 0),
            tagged(0, 1_000.0, 1),
            tagged(100, 1_000.0, 2),
        ];
        let mut events = Vec::new();
        q.advance(
            Ps::ZERO,
            Ps::from_us(10),
            1e9,
            &arrivals,
            &mut h,
            &mut events,
        )
        .unwrap();
        assert_eq!(events.len(), 3);
        let shed = events
            .iter()
            .find(|e| e.resolution == Resolution::Shed)
            .unwrap();
        assert_eq!(shed.caller, Caller::Client(2));
        assert_eq!(shed.at, Ps::from_ns(100));
        let done: Vec<Caller> = events
            .iter()
            .filter(|e| e.resolution == Resolution::Completed)
            .map(|e| e.caller)
            .collect();
        assert_eq!(
            done,
            vec![Caller::Client(0), Caller::Client(1)],
            "FIFO completion order"
        );
    }

    #[test]
    fn traced_requests_report_terminal_events_without_a_client() {
        let mut q = RequestQueue::new(1);
        let mut h = Histogram::new();
        let span = |root: u32| SpanCtx {
            root,
            span: 1,
            parent: 0,
            tier: 1,
        };
        let traced = |at_ns: u64, root: u32| Request {
            caller: Some(Caller::Span(span(root))),
            ..req(at_ns, 1_000.0)
        };
        // Root 0's span is admitted; root 1's is shed at arrival.
        let mut events = Vec::new();
        q.advance(
            Ps::ZERO,
            Ps::from_us(10),
            1e9,
            &[traced(0, 0), traced(100, 1)],
            &mut h,
            &mut events,
        )
        .unwrap();
        assert_eq!(events.len(), 2);
        let shed = events
            .iter()
            .find(|e| e.resolution == Resolution::Shed)
            .unwrap();
        assert_eq!(shed.caller, Caller::Span(span(1)));
        let done = events
            .iter()
            .find(|e| e.resolution == Resolution::Completed)
            .unwrap();
        assert_eq!(done.caller, Caller::Span(span(0)));
    }

    #[test]
    fn idle_gaps_do_not_inflate_sojourns() {
        let mut q = RequestQueue::new(16);
        let mut h = Histogram::new();
        // Two requests far apart; the server idles between them.
        let arrivals = [req(0, 1_000.0), req(50_000, 1_000.0)];
        q.advance(
            Ps::ZERO,
            Ps::from_us(100),
            1e9,
            &arrivals,
            &mut h,
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(q.completed(), 2);
        // Both sojourns are exactly the 1 µs service time; the exact mean
        // exposes any accidental inclusion of the idle gap.
        assert!((h.mean() / 1e6 - 1.0).abs() < 0.01, "mean {} ps", h.mean());
    }

    #[test]
    fn requests_and_events_stay_small() {
        // A round that issues a whole fluid population at once holds a
        // request per client in the queues' pending arrivals and an event
        // per shed request, so each byte here is a megabyte at 10⁶.
        assert_eq!(std::mem::size_of::<Request>(), 40);
        assert_eq!(std::mem::size_of::<ClientEvent>(), 32);
    }
}
