//! Throughputs: bytes/s and items/s.
//!
//! Cost models are parameterised by rates (HBM bandwidth, injection
//! bandwidth, per-core k-mer insertion rate …) and convert work into
//! [`SimTime`] by dividing through a [`Rate`].

use crate::{DataVolume, SimTime};
use std::fmt;

/// A throughput in *units per second*. The unit is contextual: bytes for
/// bandwidths, items (bases, k-mers) for processing rates.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct Rate(f64);

impl Rate {
    /// From units per second.
    #[inline]
    pub fn per_sec(units: f64) -> Self {
        debug_assert!(units.is_finite() && units > 0.0, "invalid Rate: {units}");
        Rate(units)
    }

    /// Bandwidth constructor: gigabytes (1e9 bytes) per second.
    #[inline]
    pub fn gb_per_sec(gb: f64) -> Self {
        Rate::per_sec(gb * 1e9)
    }

    /// Item-rate constructor: billions of items per second.
    #[inline]
    pub fn gitems_per_sec(g: f64) -> Self {
        Rate::per_sec(g * 1e9)
    }

    /// Units per second as `f64`.
    #[inline]
    pub fn units_per_sec(self) -> f64 {
        self.0
    }

    /// Time to process `units` of work at this rate.
    #[inline]
    pub fn time_for(self, units: f64) -> SimTime {
        SimTime::from_secs(units / self.0)
    }

    /// Time to move `volume` bytes at this rate (rate must be a bandwidth).
    #[inline]
    pub fn time_for_volume(self, volume: DataVolume) -> SimTime {
        self.time_for(volume.bytes_f64())
    }

    /// Scales the rate, e.g. by a parallel efficiency factor in (0, 1].
    #[inline]
    pub fn scaled(self, factor: f64) -> Rate {
        Rate::per_sec(self.0 * factor)
    }

    /// Observed rate from work over time. Returns `None` if the elapsed time
    /// is zero.
    pub fn observed(units: f64, elapsed: SimTime) -> Option<Rate> {
        if elapsed.is_zero() || units <= 0.0 {
            None
        } else {
            Some(Rate::per_sec(units / elapsed.as_secs()))
        }
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rate({self})")
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let u = self.0;
        if u >= 1e9 {
            write!(f, "{:.3} G/s", u / 1e9)
        } else if u >= 1e6 {
            write!(f, "{:.3} M/s", u / 1e6)
        } else if u >= 1e3 {
            write!(f, "{:.3} K/s", u / 1e3)
        } else {
            write!(f, "{u:.3} /s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_for_work() {
        let r = Rate::per_sec(10e6); // 10M items/s
        assert!((r.time_for(5e6).as_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_moves_volume() {
        // Summit per-node injection: 23 GB/s. 23 GB should take 1 s.
        let bw = Rate::gb_per_sec(23.0);
        let t = bw.time_for_volume(DataVolume::from_bytes(23_000_000_000));
        assert!((t.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_efficiency() {
        let r = Rate::gb_per_sec(10.0).scaled(0.5);
        assert!((r.units_per_sec() - 5e9).abs() < 1.0);
    }

    #[test]
    fn observed_rate_roundtrip() {
        let r = Rate::observed(1e6, SimTime::from_secs(2.0)).unwrap();
        assert!((r.units_per_sec() - 5e5).abs() < 1e-6);
        assert!(Rate::observed(1e6, SimTime::ZERO).is_none());
        assert!(Rate::observed(0.0, SimTime::from_secs(1.0)).is_none());
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Rate::gitems_per_sec(2.5)), "2.500 G/s");
        assert_eq!(format!("{}", Rate::per_sec(2.5e6)), "2.500 M/s");
        assert_eq!(format!("{}", Rate::per_sec(1500.0)), "1.500 K/s");
        assert_eq!(format!("{}", Rate::per_sec(12.0)), "12.000 /s");
    }
}
