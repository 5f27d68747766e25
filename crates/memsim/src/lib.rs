//! Event-driven DDR3 memory-subsystem simulator for the CoScale
//! reproduction.
//!
//! The paper evaluates CoScale on a detailed in-house LLC/memory simulator;
//! no equivalent exists as reusable Rust open source, so this crate rebuilds
//! the pieces its results depend on:
//!
//! * **Geometry** — 4 channels × 2 dual-rank DIMMs × 8 banks (Table 2),
//!   cache-line channel interleaving then bank interleaving ([`map_line`]).
//! * **Timing** — closed-page accesses obeying tRCD/tCL/tRP/tRAS/tRRD/tRTP/
//!   tFAW/tWR, shared-data-bus serialization, periodic refresh.
//! * **Scheduling** — FCFS per channel with reads prioritized over
//!   writebacks until the writeback queue is half full (§4.1).
//! * **DVFS** — bus/DIMM frequency scaling over the paper's 200–800 MHz
//!   grid with the 512-cycle + 28 ns recalibration stall
//!   ([`MemorySystem::set_frequency`]).
//! * **Counters** — the MemScale queueing/service/page-event counters the
//!   CoScale models consume ([`MemCounters`]).
//!
//! # The paper's constants
//!
//! The geometry and the device timings are fixed, as in Table 2; only the
//! policies and the frequency grid in [`MemConfig`] vary between runs.
//!
//! | Constant | Value | Source |
//! |---|---|---|
//! | [`CHANNELS`] | 4 | Table 2: 4 DDR3 channels |
//! | `DIMMS_PER_CHANNEL`, `RANKS_PER_DIMM` | 2, 2 | Table 2: two dual-rank DIMMs per channel |
//! | `BANKS_PER_RANK` | 8 | Table 2 |
//! | [`RANKS_PER_CHANNEL`], [`RANKS`], [`DIMMS`] | 4, 16, 8 | derived from the above |
//! | [`LINE_BYTES`] | 64 | Table 2: 64-byte blocks, shared with the L2 |
//! | `LINES_PER_ROW` | 128 | an 8 KiB row of 64-byte lines |
//! | `T_RCD`, [`T_RP`], [`T_CL`] | 15 ns | Table 2 |
//! | [`T_RAS`] | 35 ns | Table 2: 28 cycles at 800 MHz |
//! | `T_RRD` | 5 ns | Table 2: 4 cycles at 800 MHz |
//! | `T_RTP` | 6.25 ns | Table 2: 5 cycles at 800 MHz |
//! | `T_FAW` | 25 ns | Table 2: 20 cycles at 800 MHz |
//! | `T_WR` | 15 ns | DDR3 typical |
//! | `BURST_CYCLES` | 4 bus cycles | BL8 on a DDR bus ([`burst_time`]) |
//! | `T_REFI` | 7.8 µs | 64 ms / 8192 refreshes |
//! | [`T_RFC`] | 110 ns | 1 Gb devices |
//! | [`MC_OVERHEAD`] | 5 ns | controller pipeline per read |
//!
//! Inside the crate, a channel favours writebacks once 32 are queued (§4.1:
//! "until the writeback queue is half-full", of 64), and a bus frequency
//! change stalls for 512 bus cycles at the old frequency plus 28 ns (§3).
//!
//! The simulator is deterministic and `Clone`; the `Offline` oracle policy
//! in the `coscale` crate relies on checkpoint/rewind of the whole system.
//!
//! # Example
//!
//! ```
//! use memsim::{MemConfig, MemorySystem, Outcome, LineAddr};
//! use simkernel::Ps;
//!
//! let mut mem = MemorySystem::new(MemConfig::default());
//! let mut out = Outcome::default();
//! mem.enqueue_read(Ps::ZERO, LineAddr(0), 1, &mut out);
//! assert_eq!(mem.outstanding_reads(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod channel;
mod config;
mod counters;
mod system;

pub use addr::{
    map_line, LineAddr, Location, CHANNELS, DIMMS, LINE_BYTES, RANKS, RANKS_PER_CHANNEL,
};
pub use config::{
    burst_time, fixed_read_service, AddrMap, IdleMemPolicy, IdleMode, MemConfig, PagePolicy,
    SchedPolicy, MC_OVERHEAD, T_CL, T_RAS, T_RFC, T_RP,
};
pub use counters::MemCounters;
pub use system::{Completion, MemEvent, MemorySystem, Outcome};

// The read-latency histogram type began life in this crate; it now lives in
// `simkernel::stats` so the service layer can share one implementation.
// Re-exported to keep this crate's API stable.
pub use simkernel::stats::Histogram;
