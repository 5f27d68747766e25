//! Synthetic workloads for the CoScale reproduction.
//!
//! The paper drives its evaluation with SPEC CPU2000/2006 traces collected
//! via M5 + SimPoints. Those traces are not redistributable and no Rust
//! trace ecosystem exists, so this crate synthesizes equivalent pressure:
//!
//! * [`AppProfile`] describes an application's compute intensity, L2 access
//!   rate, LLC miss behavior, streaming-vs-random cold footprint, store
//!   fraction, instruction mix and phase structure.
//! * [`app`] is the registry of 31 SPEC-named profiles calibrated so that
//!   the 16 mixes of Table 1 ([`all_mixes`]) land in their published
//!   MPKI/WPKI classes.
//! * [`TraceGen`] turns a profile into an infinite deterministic stream of
//!   [`TraceOp`]s (instruction gaps plus L2 line references) that the
//!   `cpusim` crate replays through a real shared L2 model.
//!
//! The substitution preserves what matters to the CoScale controller: it
//! only ever observes workloads through performance counters, and these
//! streams produce the same counter-level signatures (CPI split, queueing,
//! phase changes) as the originals' classes.
//!
//! # Example
//!
//! ```
//! use workloads::{mix, TraceGen};
//!
//! let m = mix("MEM1").unwrap();
//! let mut gen = TraceGen::new(m.app_for_core(0), 0, 1234);
//! let op = gen.next_op();
//! assert!(op.gap < 100_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apps;
mod gen;
mod mixes;
mod profile;

pub use apps::{app, ALL_APPS};
pub use gen::{max_line, TraceGen, TraceOp};
pub use mixes::{all_mixes, mix, mixes_in_class, Mix, MixClass};
pub use profile::{AppProfile, InstrMix, PhaseProfile};
