//! Frequency newtype and frequency/time conversions.

use crate::Ps;
use std::fmt;

/// A clock frequency in integer hertz.
///
/// The simulated system contains clocks from 200 MHz (slowest memory bus
/// setting) to 4.0 GHz (fastest core setting). Integer hertz represents all
/// of the paper's frequency grids exactly.
///
/// # Example
///
/// ```
/// use simkernel::{Freq, Ps};
/// let bus = Freq::from_mhz(800);
/// assert_eq!(bus.period(), Ps::new(1250));
/// assert_eq!(bus.cycles(Ps::from_ns(5)), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq(u64);

impl Freq {
    /// Creates a frequency from raw hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero — a zero frequency has no period and would
    /// poison every downstream conversion.
    pub const fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be positive");
        Freq(hz)
    }

    /// Creates a frequency from megahertz.
    pub const fn from_mhz(mhz: u64) -> Self {
        Self::from_hz(mhz * 1_000_000)
    }

    /// Creates a frequency from (possibly fractional) gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive and finite.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "bad frequency {ghz} GHz");
        Self::from_hz((ghz * 1e9).round() as u64)
    }

    /// Raw hertz.
    #[inline]
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// This frequency in fractional gigahertz.
    #[inline]
    pub fn as_ghz(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This frequency in fractional megahertz.
    #[inline]
    pub fn as_mhz(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The clock period, rounded to the nearest picosecond.
    ///
    /// The worst-case rounding error on the paper's grids is ~0.05%
    /// (e.g. 2.2 GHz → 455 ps vs 454.55 exact), which is far below the
    /// fidelity of the models built on top.
    #[inline]
    pub fn period(self) -> Ps {
        Ps::new((1_000_000_000_000u128 * 2 / self.0 as u128 + 1) as u64 / 2)
    }

    /// The duration of `n` cycles at this frequency (computed from the
    /// rounded period so that repeated single-cycle waits agree with one
    /// multi-cycle wait).
    #[inline]
    pub fn cycles_to_ps(self, n: u64) -> Ps {
        self.period() * n
    }

    /// How many *whole* cycles fit in `span`.
    #[inline]
    pub fn cycles(self, span: Ps) -> u64 {
        span.as_ps() / self.period().as_ps()
    }
}

impl fmt::Debug for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Freq({self})")
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}GHz", self.as_ghz())
        } else {
            write!(f, "{:.0}MHz", self.as_mhz())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periods_are_exact_for_round_frequencies() {
        assert_eq!(Freq::from_ghz(4.0).period(), Ps::new(250));
        assert_eq!(Freq::from_ghz(2.0).period(), Ps::new(500));
        assert_eq!(Freq::from_mhz(800).period(), Ps::new(1250));
        assert_eq!(Freq::from_mhz(200).period(), Ps::new(5000));
    }

    #[test]
    fn period_rounds_to_nearest() {
        // 2.2 GHz -> 454.545... ps, nearest integer 455.
        assert_eq!(Freq::from_ghz(2.2).period(), Ps::new(455));
        // 666 MHz -> 1501.5 ps -> 1502.
        assert_eq!(Freq::from_mhz(666).period(), Ps::new(1502));
    }

    #[test]
    fn cycle_conversions() {
        let f = Freq::from_mhz(400); // 2500 ps
        assert_eq!(f.cycles_to_ps(4), Ps::new(10_000));
        assert_eq!(f.cycles(Ps::new(9_999)), 3);
        assert_eq!(f.cycles(Ps::new(10_000)), 4);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Freq::from_ghz(2.2).to_string(), "2.20GHz");
        assert_eq!(Freq::from_mhz(666).to_string(), "666MHz");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_frequency_rejected() {
        let _ = Freq::from_hz(0);
    }
}
