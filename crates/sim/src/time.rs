//! Simulated time.
//!
//! All durations reported by the cost models are [`SimTime`] values —
//! non-negative seconds on a simulated clock, *not* wall-clock measurements.
//! Keeping them in a newtype prevents accidental mixing with
//! `std::time::Duration` wall times.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A duration on the simulated clock, in seconds.
///
/// `SimTime` is a thin wrapper over `f64` seconds with saturating-at-zero
/// subtraction and convenience constructors. Values are always finite and
/// non-negative; constructors debug-assert this.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// Zero duration.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a duration from seconds.
    #[inline]
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "invalid SimTime: {secs}");
        SimTime(secs.max(0.0))
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self::from_secs(us * 1e-6)
    }

    /// The duration in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The duration in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The duration in microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the larger of two durations (used for bulk-synchronous
    /// supersteps, where the step takes as long as its slowest rank).
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// True if this is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Saturating subtraction: never goes below zero.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime::from_secs(self.0 / rhs)
    }
}

impl Div<SimTime> for SimTime {
    type Output = f64;
    /// Ratio of two durations (e.g. a speedup).
    #[inline]
    fn div(self, rhs: SimTime) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    /// Human-readable with an automatic unit: `1.234 s`, `56.7 ms`, `890 µs`,
    /// `12 ns`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.3} s")
        } else if s >= 1e-3 {
            write!(f, "{:.3} ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3} µs", s * 1e6)
        } else {
            write!(f, "{:.1} ns", s * 1e9)
        }
    }
}

/// A monotonically advancing simulated clock, one per simulated rank or
/// device.
///
/// Clocks accumulate [`SimTime`] from cost models. Synchronising collectives
/// align all participating clocks to the maximum (see
/// [`SimClock::sync_to`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by `dt` and returns the new time.
    #[inline]
    pub fn advance(&mut self, dt: SimTime) -> SimTime {
        self.now += dt;
        self.now
    }

    /// Moves the clock forward to `t` if `t` is later; otherwise leaves it.
    /// Models a barrier arrival: you cannot leave a barrier before the
    /// slowest participant arrives.
    #[inline]
    pub fn sync_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_units() {
        assert_eq!(SimTime::from_millis(1500.0).as_secs(), 1.5);
        assert_eq!(SimTime::from_micros(2.0).as_secs(), 2e-6);
        assert_eq!(SimTime::from_secs(2.0).as_millis(), 2000.0);
        assert_eq!(SimTime::from_secs(2.0).as_micros(), 2_000_000.0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(2.0);
        let b = SimTime::from_secs(0.5);
        assert_eq!((a + b).as_secs(), 2.5);
        assert_eq!((a - b).as_secs(), 1.5);
        // Subtraction saturates at zero rather than going negative.
        assert_eq!((b - a).as_secs(), 0.0);
        assert_eq!((a * 3.0).as_secs(), 6.0);
        assert_eq!((a / 4.0).as_secs(), 0.5);
        assert_eq!(a / b, 4.0);
    }

    #[test]
    fn min_max_and_sum() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(3.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let total: SimTime = [a, b, a].into_iter().sum();
        assert_eq!(total.as_secs(), 5.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500 s");
        assert_eq!(format!("{}", SimTime::from_secs(0.0025)), "2.500 ms");
        assert_eq!(format!("{}", SimTime::from_micros(12.0)), "12.000 µs");
        assert_eq!(format!("{}", SimTime::from_secs(7e-9)), "7.0 ns");
    }

    #[test]
    fn clock_advances_and_syncs() {
        let mut c = SimClock::new();
        assert!(c.now().is_zero());
        c.advance(SimTime::from_secs(1.0));
        c.sync_to(SimTime::from_secs(0.5)); // earlier: no effect
        assert_eq!(c.now().as_secs(), 1.0);
        c.sync_to(SimTime::from_secs(2.0)); // later: jump forward
        assert_eq!(c.now().as_secs(), 2.0);
    }
}
