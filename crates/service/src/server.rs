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
use crate::queue::{ClientEvent, Request, RequestQueue};
use crate::sim::ServiceOutcome;
use cluster::{Server, ServerSpec, SlaSignal};
use simkernel::{stats::Histogram, Ps, SimRng};
use std::collections::VecDeque;

/// How many recent rounds of latency feed a server's SLA signal.
const SLA_WINDOW_ROUNDS: usize = 4;

/// One serving server: the fleet loop writes caps to and reads power
/// telemetry from `server` directly; everything else here is serving state.
pub(crate) struct ServiceServer {
    pub(crate) server: Server,
    arrivals: ArrivalGen,
    size_rng: SimRng,
    mean_request_instrs: f64,
    queue: RequestQueue,
    p99_target_s: f64,
    /// All sojourns since the server joined.
    cum_hist: Histogram,
    /// Most recent per-round histograms (the SLA feedback window).
    window: VecDeque<Histogram>,
    violation_rounds: u64,
    // Closed-loop state (absent in open-loop mode). The fleet runs on a
    // global clock; this server's engine started `clock_offset` after it
    // (zero for the initial fleet, the join time for churn joiners), so
    // requests arrive with `global - offset` stamps and events leave with
    // `local + offset` stamps.
    closed_loop: bool,
    clock_offset: Ps,
    pending: Vec<Request>,
    events: Vec<ClientEvent>,
}

impl ServiceServer {
    /// Builds the server from its spec, initially granted `initial_cap_w`.
    pub(crate) fn new(spec: &ServiceServerSpec, initial_cap_w: f64) -> ServiceServer {
        // A serving engine must never finish (the round count ends the
        // run), so the spec's completion target is replaced by one no
        // workload reaches.
        let mut engine = ServerSpec {
            name: spec.name.clone(),
            config: spec.config.clone(),
        };
        engine.config.target_instrs = u64::MAX;
        ServiceServer {
            server: Server::new(&engine, initial_cap_w),
            arrivals: ArrivalGen::new(spec.arrivals, spec.arrival_seed),
            size_rng: SimRng::new(spec.arrival_seed ^ 0x517e_d00d),
            mean_request_instrs: spec.mean_request_instrs,
            queue: RequestQueue::new(spec.queue_capacity),
            p99_target_s: spec.p99_target_s,
            cum_hist: Histogram::new(),
            window: VecDeque::new(),
            violation_rounds: 0,
            closed_loop: false,
            clock_offset: Ps::ZERO,
            pending: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Switches the server to closed-loop serving: arrivals come from
    /// [`ServiceServer::assign_requests`] instead of the spec's arrival
    /// process, stamped on the fleet-global clock that reads `offset` at
    /// this server's engine time zero.
    pub(crate) fn set_closed_loop(&mut self, offset: Ps) {
        self.closed_loop = true;
        self.clock_offset = offset;
    }

    /// Hands the server its balanced share of a round's request batch
    /// (fleet-global arrival stamps, already time-ordered).
    pub(crate) fn assign_requests(&mut self, reqs: impl IntoIterator<Item = Request>) {
        self.pending.extend(reqs.into_iter().map(|r| Request {
            arrival: r.arrival - self.clock_offset,
            ..r
        }));
    }

    /// Drains the terminal events of the last round's client-tagged
    /// requests, stamped back onto the fleet-global clock.
    pub(crate) fn take_events(&mut self) -> Vec<ClientEvent> {
        let offset = self.clock_offset;
        self.events
            .drain(..)
            .map(|e| ClientEvent {
                at: e.at + offset,
                ..e
            })
            .collect()
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
        // balanced batch in closed-loop mode, the spec's arrival process
        // otherwise. `pending` doubles as the arrivals arena in both
        // modes (and terminal events append straight into the retained
        // `events` buffer), so a round allocates no per-server vectors.
        if !self.closed_loop {
            debug_assert!(self.pending.is_empty(), "open-loop servers get no batches");
            for arrival in self.arrivals.arrivals_until(t1) {
                self.pending.push(Request {
                    arrival,
                    remaining_instrs: self.mean_request_instrs * (0.5 + self.size_rng.f64()),
                    client: None,
                    trace: None,
                });
            }
        }
        let mut round_hist = Histogram::new();
        self.queue
            .advance_into(
                t0,
                t1,
                rate_ips,
                &self.pending,
                &mut round_hist,
                &mut self.events,
            )
            .unwrap_or_else(|e| panic!("server {}: {e}", self.server.name));
        self.pending.clear();
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
    /// or the horizon ended), returning the abandoned requests with their
    /// arrival stamps converted back to the fleet-global clock so
    /// closed-loop callers can release the issuing clients.
    pub(crate) fn abandon_queue(&mut self) -> Vec<Request> {
        let offset = self.clock_offset;
        self.queue
            .abandon_all()
            .into_iter()
            .map(|r| Request {
                arrival: r.arrival + offset,
                ..r
            })
            .collect()
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
