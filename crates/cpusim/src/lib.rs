//! Trace-driven CPU model for the CoScale reproduction.
//!
//! The paper's first simulation step runs SPEC applications through M5 to
//! collect L1-miss/writeback traces; its second step replays those traces
//! through a detailed LLC/memory model. This crate is the Rust rebuild of
//! the CPU side of that second step:
//!
//! * [`L2Cache`] — the shared 16 MiB, 16-way LLC with LRU replacement,
//!   writeback tracking, and prefetch-accuracy bookkeeping. Each way is a
//!   4-byte tag word (`line >> log2(sets)` in 30 bits, and flags) and a
//!   1-byte recency rank that orders its set exactly, and a set's valid
//!   ways form a prefix, so lookups scan only the filled ways.
//!   [`CacheConfig::validate`] rejects geometries it cannot build, and
//!   [`CacheConfig::can_tag`] says which lines a geometry can hold.
//! * [`CoreSim`] — a single-issue core replaying a synthetic trace
//!   ([`workloads::TraceGen`]), stalling on L2 hits (fixed uncore latency)
//!   and on L2 misses; per-core DVFS with transition halts. A step reports
//!   one [`Wake`] and fills caller-owned [`CoreOutput`] buffers, so the
//!   engine can keep one wake per core and allocate nothing per step. An
//!   L2 hit taken with the MLP window free draws the next operation at
//!   once and reports [`Wake::AfterStall`], so the stall's end is not a
//!   step of its own.
//! * [`PipelineMode::MlpWindow`] — the §4.2.4 out-of-order emulation: all
//!   memory operations within a 128-instruction window are independent.
//! * [`CoreConfig::prefetch`] — the §4.2.4 tagged next-line prefetcher.
//! * [`CoreCounters`] — CoScale's per-core counters (TIC/TMS/TLA/TLM/TLS and
//!   the four Core Activity Counters) that feed the performance and power
//!   models in the `coscale` crate.
//!
//! # Example
//!
//! ```
//! use cpusim::{CacheConfig, CoreConfig, CoreOutput, CoreSim, L2Cache, Wake};
//! use simkernel::{Freq, Ps};
//! use workloads::app;
//!
//! let mut l2 = L2Cache::new(CacheConfig::default());
//! let mut core = CoreSim::new(0, app("milc"), 1, Freq::from_ghz(4.0), CoreConfig::default());
//! let mut out = CoreOutput::default();
//! match core.advance(Ps::ZERO, &mut l2, &mut out) {
//!     Wake::At(t) | Wake::AfterStall { at: t, .. } => assert!(t > Ps::ZERO),
//!     Wake::Blocked => unreachable!("first step is always compute"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod core;
mod counters;

pub use crate::core::{CoreConfig, CoreOutput, CoreSim, PipelineMode, Wake};
pub use cache::{Access, CacheConfig, CacheStats, L2Cache};
pub use counters::CoreCounters;
