//! One serving server: a request stream and queue on top of one
//! [`cluster::Server`], the epoch engine under a coordinator-written power
//! cap.
//!
//! Each round the server (1) advances the engine `epochs_per_round` epochs
//! under its current cap, (2) measures the aggregate instruction throughput
//! the engine actually achieved over that window, (3) pulls the arrivals
//! that fell inside the window and drains the queue fluidly at the measured
//! rate. Slower DVFS plans (tighter caps) thus directly stretch request
//! sojourn times — the link between power capping and tail latency the
//! SLA-aware discipline exploits.

use crate::arrivals::ArrivalGen;
use crate::config::ServiceServerSpec;
use crate::queue::{Caller, ClientEvent, Request, RequestQueue};
use crate::sim::ServiceOutcome;
use cluster::{Server, ServerSpec, SlaSignal};
use simkernel::{stats::Histogram, Ps, SimRng};
use std::collections::VecDeque;

/// How many recent rounds of latency feed a server's SLA signal.
const SLA_WINDOW_ROUNDS: usize = 4;

/// Queue bound for admission control (requests, including the one in
/// service).
const QUEUE_CAPACITY: usize = 512;

/// One serving server: the fleet loop writes caps to and reads power
/// telemetry from `server` directly; everything else here is serving state.
pub(crate) struct ServiceServer {
    pub(crate) server: Server,
    /// The spec's arrival process; `None` under a closed loop, whose
    /// requests the fleet loop pushes.
    arrivals: Option<ArrivalGen>,
    size_rng: SimRng,
    mean_request_instrs: f64,
    queue: RequestQueue,
    p99_target_s: f64,
    /// All sojourns since the server joined.
    cum_hist: Histogram,
    /// Most recent per-round histograms (the SLA feedback window).
    window: VecDeque<Histogram>,
    violation_rounds: u64,
    // Under a closed loop the fleet runs on a global clock; this server's
    // engine started `clock_offset` after it (zero for the initial fleet,
    // the join time for churn joiners), so requests arrive with
    // `global - offset` stamps and events leave with `local + offset`
    // stamps.
    pub(crate) clock_offset: Ps,
    /// Requests pushed for the coming round. The round takes the buffer,
    /// so none of it outlives the round that drains it.
    pending: Vec<Request>,
    /// Terminal events of the last round's requests with a caller, on
    /// this server's clock. The fleet loop takes them at the barrier and
    /// drops them once delivered.
    pub(crate) events: Vec<ClientEvent>,
}

impl ServiceServer {
    /// Builds the server from its spec, initially granted `initial_cap_w`.
    /// With `closed_loop`, requests come from
    /// [`ServiceServer::push_request`] instead of the spec's arrival
    /// process, stamped on the fleet-global clock that reads the given
    /// offset at this server's engine time zero.
    pub(crate) fn new(
        spec: &ServiceServerSpec,
        initial_cap_w: f64,
        closed_loop: Option<Ps>,
    ) -> ServiceServer {
        // A serving engine must never finish (the round count ends the
        // run), so the spec's completion target is replaced by one no
        // workload reaches.
        let mut engine = ServerSpec {
            name: spec.name.clone(),
            config: spec.config.clone(),
        };
        engine.config.target_instrs = u64::MAX;
        let stream_seed = spec.config.seed ^ 0x5e21_1ce0;
        ServiceServer {
            server: Server::new(&engine, initial_cap_w),
            arrivals: closed_loop
                .is_none()
                .then(|| ArrivalGen::new(spec.arrivals, stream_seed)),
            size_rng: SimRng::new(stream_seed ^ 0x517e_d00d),
            mean_request_instrs: spec.mean_request_instrs,
            queue: RequestQueue::new(QUEUE_CAPACITY),
            p99_target_s: spec.p99_target_s,
            cum_hist: Histogram::new(),
            window: VecDeque::new(),
            violation_rounds: 0,
            clock_offset: closed_loop.unwrap_or(Ps::ZERO),
            pending: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Queues one request for the coming round. Its arrival is stamped on
    /// the fleet-global clock and must not precede the last one pushed
    /// this round.
    pub(crate) fn push_request(&mut self, r: Request) {
        self.pending.push(Request {
            arrival: r.arrival - self.clock_offset,
            ..r
        });
    }

    /// Advances the engine `epochs` epochs and serves the request stream
    /// over the simulated window at the throughput the engine delivered.
    pub(crate) fn step_round(&mut self, epochs: usize) {
        let t0 = self.server.now();
        let i0 = self.server.instrs();
        self.server.step_round(epochs);
        let t1 = self.server.now();
        let dt = (t1 - t0).as_secs_f64();
        let rate_ips = if dt > 0.0 {
            (self.server.instrs() - i0) as f64 / dt
        } else {
            0.0
        };
        // Requests that arrived during the window, with their sizes: the
        // ones the barrier pushed under a closed loop, the spec's arrival
        // process otherwise.
        let mut requests = std::mem::take(&mut self.pending);
        if let Some(arrivals) = &mut self.arrivals {
            debug_assert!(requests.is_empty(), "open-loop servers get no pushes");
            for arrival in arrivals.arrivals_until(t1) {
                requests.push(Request {
                    arrival,
                    remaining_instrs: self.mean_request_instrs * (0.5 + self.size_rng.f64()),
                    caller: None,
                });
            }
        }
        let mut round_hist = Histogram::new();
        self.queue
            .advance(
                t0,
                t1,
                rate_ips,
                &requests,
                &mut round_hist,
                &mut self.events,
            )
            .unwrap_or_else(|e| panic!("server {}: {e}", self.server.name));
        self.cum_hist.merge(&round_hist);
        self.window.push_back(round_hist);
        while self.window.len() > SLA_WINDOW_ROUNDS {
            self.window.pop_front();
        }
        let sla = self.sla_signal();
        if sla.p99_s > 0.0 && sla.violating() {
            self.violation_rounds += 1;
        }
    }

    /// The latency signal for SLA-aware splitting: windowed p99 (zero
    /// before any completion) against the server's target.
    pub(crate) fn sla_signal(&self) -> SlaSignal {
        let mut merged = Histogram::new();
        for h in &self.window {
            merged.merge(h);
        }
        let p99_s = if merged.count() == 0 {
            0.0
        } else {
            merged.percentile(0.99) as f64 / 1e12
        };
        SlaSignal {
            p99_s,
            target_s: self.p99_target_s,
        }
    }

    /// Current queue depth.
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Abandons everything still queued (the server is leaving the fleet,
    /// or the horizon ended), returning who waits on each abandoned
    /// request so the fleet loop can release them.
    pub(crate) fn abandon_queue(&mut self) -> Vec<Caller> {
        let abandoned = self.queue.abandon_all();
        abandoned.into_iter().filter_map(|r| r.caller).collect()
    }

    /// Abandons the queue and produces the server's final accounting.
    pub(crate) fn into_outcome(mut self, departed: bool) -> ServiceOutcome {
        self.abandon_queue();
        ServiceOutcome {
            name: self.server.name.clone(),
            departed,
            energy_j: self.server.energy_j(),
            arrived: self.queue.arrived(),
            completed: self.queue.completed(),
            shed: self.queue.shed(),
            abandoned: self.queue.abandoned(),
            violation_rounds: self.violation_rounds,
            rounds_run: self.server.rounds_run(),
            mean_cap_w: self.server.mean_cap_w(),
            p99_target_s: self.p99_target_s,
            hist: self.cum_hist,
            now: self.server.now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flash crowd pushed for one round leaves no capacity behind once
    /// the round has drained it.
    #[test]
    fn a_round_frees_the_requests_it_drains() {
        let spec = ServiceServerSpec::small("s0", "MID1", 1, 0.0);
        let mut s = ServiceServer::new(&spec, 60.0, Some(Ps::ZERO));
        let crowd = 4096;
        for client in 0..crowd {
            s.push_request(Request {
                arrival: Ps::from_ns(u64::from(client)),
                remaining_instrs: 40_000.0,
                caller: Some(Caller::Client(client)),
            });
        }
        s.step_round(2);
        assert_eq!(s.queue.arrived(), u64::from(crowd));
        assert!(s.queue.shed() >= u64::from(crowd) - QUEUE_CAPACITY as u64);
        assert_eq!(s.pending.capacity(), 0);
    }
}
