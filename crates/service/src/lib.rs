//! # service — a request-serving layer with tail-latency SLOs on the
//! simulated fleet
//!
//! The batch `cluster` layer answers "how fast do N capped servers finish
//! their work?". A serving fleet asks a different question: "do requests
//! keep meeting their **tail-latency SLO** while the fleet stays under its
//! power budget?" — the framing of PowerTracer (Yuan et al.) and of any
//! latency-critical datacenter service. This crate puts that question on
//! top of the existing epoch simulation:
//!
//! * **Arrivals** ([`ArrivalKind`], [`ArrivalGen`]) — open-loop Poisson or
//!   MMPP request streams with diurnal-style rate modulation, generated by
//!   thinning, deterministic from the seed and independent of how the
//!   timeline is windowed.
//! * **Closed-loop clients** ([`ClientPool`], [`ClosedLoopConfig`]) — the
//!   interactive alternative: a seeded population of clients each cycling
//!   request → response → exponential think, so offered load
//!   *self-throttles* when the fleet slows down and in-flight requests are
//!   bounded by the population. [`ClientModel::Fluid`] swaps the exact
//!   per-client pool for the aggregated [`FluidPool`] — population
//!   counters with cohort-sampled transitions, `O(issued)` per round —
//!   so the same machinery runs at 10⁶+ clients (with optional diurnal
//!   think-rate modulation for day/night load swings). A front-end
//!   [`LoadBalancer`] routes each issued request to a server by
//!   [`BalancePolicy`] (round-robin, least-queue, or
//!   power-headroom-weighted — steering toward servers with slack under
//!   their current cap) as it streams out of the population, all at round
//!   barriers.
//! * **Queues** ([`RequestQueue`]) — bounded FIFO with admission control
//!   (overflow arrivals are shed and counted) and a *fluid* service model:
//!   each round the queue drains at the instruction throughput the engine
//!   actually delivered under its power cap, so tighter caps stretch
//!   request sojourn times.
//! * **Latency accounting** — sojourns land in the shared
//!   [`simkernel::stats::Histogram`] (the same log-bucketed mergeable
//!   histogram `memsim` uses for read latencies), reported as
//!   p50/p95/p99/p99.9 per server and fleet-wide.
//! * **SLA-aware capping** — with [`CapSplit::SlaAware`] the coordinator
//!   feeds each server's windowed p99 into
//!   [`split_caps_sla`](cluster::split_caps_sla): SLO violators bid for
//!   budget first, comfortable servers are trimmed below their demand, and
//!   satisfied budget is left unspent (energy savings).
//! * **Churn** ([`cluster::ChurnSchedule`]) — servers join and leave at
//!   round boundaries; departures abandon their queues (counted), joiners
//!   enter with a zero cap and are included in that same round's split.
//! * **Hierarchical budgets** ([`BudgetTree`]) — optionally split the
//!   budget down a fleet → pod → rack → server tree, each interior node
//!   applying its own discipline over its subtree's aggregated power and
//!   latency telemetry (see [`ServiceConfig::with_topology`]).
//!
//! Servers exchange state only at round barriers, so each round steps the
//! fleet on a persistent [`WorkerPool`] with bit-identical results for any
//! thread count — see [`ServiceResult::digest`]. The thread running the
//! loop steps servers too, and the servers whose last round took longest
//! go first; those host times order dispatch and never reach a result.
//!
//! # Example
//!
//! ```no_run
//! use service::{run_service, CapSplit, ServiceConfig, ServiceServerSpec};
//!
//! let fleet: Vec<ServiceServerSpec> = (0..4)
//!     .map(|i| ServiceServerSpec::small(&format!("srv{i}"), "MID1", i as u64, 30_000.0))
//!     .collect();
//! let cfg = ServiceConfig::new(fleet, 220.0, CapSplit::SlaAware).with_threads(4);
//! let result = run_service(cfg);
//! println!(
//!     "fleet p99 {:.3} ms, energy {:.1} J, shed {}",
//!     result.fleet_percentile_s(0.99) * 1e3,
//!     result.total_energy_j(),
//!     result.total_shed()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod clients;
mod config;
mod fluid;
mod queue;
mod server;
mod sim;

pub use arrivals::{ArrivalGen, ArrivalKind};
pub use clients::{ClientPool, ClientPopulation};
pub use cluster::{
    BalancePolicy, BudgetNode, BudgetTree, CapSplit, ChurnAction, ChurnEvent, ChurnSchedule,
    LoadBalancer, ServerLoad, SlaSignal, WorkerPool,
};
pub use config::{ClientModel, ClosedLoopConfig, ServiceConfig, ServiceServerSpec, TierConfig};
pub use fluid::FluidPool;
pub use queue::{Caller, ClientEvent, Request, RequestQueue, Resolution};
pub use sim::{run_service, ClientSummary, ServiceOutcome, ServiceResult, ServiceSim, TierSummary};
pub use topology::{
    ClosedRoot, DagTracker, SpanCtx, TierGraph, TierSpec, TraceCollector, TraceStats,
};
