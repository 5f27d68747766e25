//! Integer picosecond time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in integer picoseconds.
///
/// One picosecond resolves every clock in the simulated system exactly
/// enough: a 4.0 GHz core cycle is 250 ps, an 800 MHz memory bus cycle is
/// 1250 ps. `u64` picoseconds cover ~213 days of simulated time, far beyond
/// any run in this workspace.
///
/// # Example
///
/// ```
/// use simkernel::Ps;
/// let epoch = Ps::from_ms(5);
/// assert_eq!(epoch.as_ns(), 5_000_000);
/// assert_eq!(epoch + Ps::from_us(300), Ps::new(5_300_000_000_000 / 1_000));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ps(u64);

impl Ps {
    /// Zero time; the start of every simulation.
    pub const ZERO: Ps = Ps(0);
    /// The largest representable time, used as an "infinitely far" sentinel.
    pub const MAX: Ps = Ps(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn new(ps: u64) -> Self {
        Ps(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Ps(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Ps(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Ps(ms * 1_000_000_000)
    }

    /// Creates a time from (possibly fractional) seconds, rounding to the
    /// nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or too large for `u64` picoseconds.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs <= u64::MAX as f64 / 1e12,
            "seconds out of range: {secs}"
        );
        Ps((secs * 1e12).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: `self - other`, or zero if `other > self`.
    #[inline]
    pub fn saturating_sub(self, other: Ps) -> Ps {
        Ps(self.0.saturating_sub(other.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: Ps) -> Ps {
        Ps(self.0.max(other.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: Ps) -> Ps {
        Ps(self.0.min(other.0))
    }

    /// Multiplies this span by a floating-point factor, rounding to the
    /// nearest picosecond. Used for analytic model arithmetic where a span is
    /// scaled by a ratio of frequencies.
    pub fn scale_f64(self, factor: f64) -> Ps {
        debug_assert!(factor >= 0.0, "negative time scale {factor}");
        Ps((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Debug for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl fmt::Display for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

impl Add for Ps {
    type Output = Ps;
    #[inline]
    fn add(self, rhs: Ps) -> Ps {
        Ps(self.0 + rhs.0)
    }
}

impl AddAssign for Ps {
    #[inline]
    fn add_assign(&mut self, rhs: Ps) {
        self.0 += rhs.0;
    }
}

impl Sub for Ps {
    type Output = Ps;
    /// # Panics
    /// Panics in debug builds if the result would be negative.
    #[inline]
    fn sub(self, rhs: Ps) -> Ps {
        debug_assert!(self.0 >= rhs.0, "time underflow: {self:?} - {rhs:?}");
        Ps(self.0 - rhs.0)
    }
}

impl SubAssign for Ps {
    #[inline]
    fn sub_assign(&mut self, rhs: Ps) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Ps {
    type Output = Ps;
    #[inline]
    fn mul(self, rhs: u64) -> Ps {
        Ps(self.0 * rhs)
    }
}

impl Div<u64> for Ps {
    type Output = Ps;
    #[inline]
    fn div(self, rhs: u64) -> Ps {
        Ps(self.0 / rhs)
    }
}

impl Sum for Ps {
    fn sum<I: Iterator<Item = Ps>>(iter: I) -> Ps {
        iter.fold(Ps::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Ps::from_ns(1), Ps::new(1_000));
        assert_eq!(Ps::from_us(1), Ps::from_ns(1_000));
        assert_eq!(Ps::from_ms(1), Ps::from_us(1_000));
        assert_eq!(Ps::from_secs_f64(1e-12), Ps::new(1));
        assert_eq!(Ps::from_secs_f64(0.005), Ps::from_ms(5));
    }

    #[test]
    fn arithmetic() {
        let a = Ps::new(100);
        let b = Ps::new(30);
        assert_eq!(a + b, Ps::new(130));
        assert_eq!(a - b, Ps::new(70));
        assert_eq!(a * 3, Ps::new(300));
        assert_eq!(a / 3, Ps::new(33));
        assert_eq!(b.saturating_sub(a), Ps::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_and_scale() {
        let total: Ps = [Ps::new(1), Ps::new(2), Ps::new(3)].into_iter().sum();
        assert_eq!(total, Ps::new(6));
        assert_eq!(Ps::new(1000).scale_f64(0.5), Ps::new(500));
        assert_eq!(Ps::new(3).scale_f64(1.0 / 3.0), Ps::new(1));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Ps::new(999).to_string(), "999ps");
        assert_eq!(Ps::from_ns(2).to_string(), "2.000ns");
        assert_eq!(Ps::from_us(2).to_string(), "2.000us");
        assert_eq!(Ps::from_ms(2).to_string(), "2.000ms");
    }

    #[test]
    fn seconds_roundtrip() {
        let t = Ps::from_ms(5);
        assert!((t.as_secs_f64() - 0.005).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_secs_rejects_negative() {
        let _ = Ps::from_secs_f64(-1.0);
    }
}
