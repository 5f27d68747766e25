//! Deterministic discrete-event simulation kernel used by the CoScale
//! reproduction.
//!
//! This crate provides the foundation every other crate in the workspace is
//! built on:
//!
//! * [`Ps`] — an exact, integer picosecond time type. Core frequencies in the
//!   simulated system range from 2.2 GHz to 4.0 GHz and memory bus
//!   frequencies from 200 MHz to 800 MHz; representing time in integer
//!   picoseconds keeps event ordering exact across all of them with no
//!   floating-point drift.
//! * [`Freq`] — a frequency newtype with exact-as-possible period/cycle
//!   conversions.
//! * [`EventQueue`] — a stable (FIFO-on-tie) binary-heap event queue.
//! * [`SimRng`] — a small, fully deterministic, cloneable PRNG
//!   (xoshiro256**). Cloneability of the entire simulation state is what
//!   makes the paper's "Offline" oracle policy implementable: an epoch can be
//!   checkpointed, measured, rewound and re-run. [`Geometric`] is its
//!   geometric law with `ln(1 - p)` computed once, for repeated draws.
//! * [`stats`] — a mergeable log₂-bucketed [`stats::Histogram`], shared by
//!   memsim's read latencies and the service layer's request sojourns.
//!
//! # Example
//!
//! ```
//! use simkernel::{EventQueue, Ps, Freq};
//!
//! let mut q = EventQueue::new();
//! q.push(Ps::from_ns(5), "second");
//! q.push(Ps::from_ns(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Ps::from_ns(1), "first"));
//!
//! let core = Freq::from_ghz(4.0);
//! assert_eq!(core.period(), Ps::new(250));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod freq;
mod rng;
pub mod stats;
mod time;

pub use event::EventQueue;
pub use freq::Freq;
pub use rng::{Geometric, SimRng};
pub use time::Ps;
