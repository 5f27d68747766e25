//! The host-speed reference every timing is normalized by.
//!
//! A shared host's speed drifts: neighbours on the same physical cores slow
//! every workload, by up to 2×, in phases of 30–100 s, far longer than one
//! repetition, so no statistic over a run's own repetitions can remove it. The benchmark therefore times a fixed reference kernel where
//! the measured work runs and while it runs, and reports host times scaled
//! to the speed at which the kernel takes [`REFERENCE_S`].
//!
//! The kernel is a small set-associative cache model: random set lookups in
//! a 512 KiB tag store with a branchy way search, the same mix of cache
//! traffic and hard-to-predict branches the simulators themselves are made
//! of, which tracks their slowdowns more closely than pure arithmetic does.
//! The tag store is rewritten before every timed burst, so each burst
//! starts from the same warm cache whatever the measured code left there. The kernel belongs
//! to the benchmark and never changes, so a change to the program under
//! test cannot move it.

use crate::stats::median;
use std::hint::black_box;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reference burst duration the normalized times are scaled to, seconds:
/// about the fastest run median of the burst on a shared 2-vCPU Intel Xeon
/// (Sapphire Rapids) KVM guest, so that normalized times read close to the
/// wall times of that guest when its host is quiet.
pub const REFERENCE_S: f64 = 0.7e-3;

/// Sets and ways of the kernel's tag store (512 KiB of `u64` tags).
const SETS: usize = 8192;
const WAYS: usize = 8;
/// Lookups per timed burst.
const LOOKUPS: u32 = 100_000;

/// Pause between two bursts of a [`Sampler`].
const PERIOD: Duration = Duration::from_millis(40);

/// The reference kernel with its own tag store.
pub struct Reference {
    tags: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            tags: vec![0; SETS * WAYS],
        }
    }
}

impl Reference {
    /// Resets the tag store, then times one burst of lookups, seconds.
    pub fn burst(&mut self) -> f64 {
        self.tags.fill(0);
        let start = Instant::now();
        black_box(lookups(black_box(&mut self.tags), black_box(LOOKUPS)));
        start.elapsed().as_secs_f64()
    }
}

/// `n` lookups of pseudo-random addresses into `tags`, replacing a
/// pseudo-random way on a miss; returns the hit count.
fn lookups(tags: &mut [u64], n: u32) -> u64 {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut hits = 0;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let set = (x >> 20) as usize % SETS * WAYS;
        // Sixteen distinct tags per set against eight ways: about half the
        // lookups hit, so the way search branches unpredictably.
        let tag = ((x >> 8) & 15) + 1;
        let ways = &mut tags[set..set + WAYS];
        match ways.iter().position(|&w| w == tag) {
            Some(_) => hits += 1,
            None => ways[(x >> 4) as usize % WAYS] = tag,
        }
    }
    hits
}

/// Scale factor from measured to normalized host time, given the bursts
/// timed alongside the measured work.
pub fn factor(bursts: &[f64]) -> f64 {
    REFERENCE_S / median(bursts)
}

/// Times reference bursts on a thread of its own while multi-threaded work
/// runs, every [`PERIOD`]: a burst shares the cores with the workers and
/// sees the speed they see.
pub struct Sampler {
    stop: Sender<()>,
    thread: JoinHandle<Vec<f64>>,
}

impl Sampler {
    /// Starts sampling.
    pub fn start() -> Sampler {
        let (stop, stopped) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let mut reference = Reference::default();
            let mut bursts = Vec::new();
            loop {
                bursts.push(reference.burst());
                if stopped.recv_timeout(PERIOD) != Err(RecvTimeoutError::Timeout) {
                    return bursts;
                }
            }
        });
        Sampler { stop, thread }
    }

    /// Stops sampling and returns every burst timed, at least one.
    pub fn finish(self) -> Vec<f64> {
        // Closing the channel ends the sampling loop.
        drop(self.stop);
        self.thread.join().expect("reference sampler panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_half_hits() {
        let mut a = vec![0; SETS * WAYS];
        let mut b = vec![0; SETS * WAYS];
        let hits = lookups(&mut a, LOOKUPS);
        assert_eq!(hits, lookups(&mut b, LOOKUPS));
        assert_eq!(a, b);
        let rate = hits as f64 / f64::from(LOOKUPS);
        assert!((0.2..0.8).contains(&rate), "hit rate {rate}");
    }

    #[test]
    fn sampler_times_at_least_one_burst() {
        let bursts = Sampler::start().finish();
        assert!(!bursts.is_empty());
        assert!(bursts.iter().all(|&b| b > 0.0));
        assert!(factor(&bursts).is_finite());
    }
}
