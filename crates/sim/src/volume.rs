//! Data volumes (byte counts).
//!
//! Communication-volume accounting is one of the paper's headline results
//! (Table II, §IV-D): the supermer optimization reduces the number of bytes
//! crossing the network by up to 4×. [`DataVolume`] is the exact byte count
//! the simulators track.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An exact number of bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DataVolume(u64);

impl DataVolume {
    /// Zero bytes.
    pub const ZERO: DataVolume = DataVolume(0);

    /// From a raw byte count.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Self {
        DataVolume(bytes)
    }

    /// From gibibytes.
    #[inline]
    pub const fn from_gib(gib: u64) -> Self {
        DataVolume(gib * 1024 * 1024 * 1024)
    }

    /// The raw byte count.
    #[inline]
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Bytes as `f64` (for bandwidth arithmetic).
    #[inline]
    pub fn bytes_f64(self) -> f64 {
        self.0 as f64
    }

    /// Elementwise maximum.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        DataVolume(self.0.max(other.0))
    }

    /// True if zero bytes.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Ratio of two volumes, e.g. the communication-reduction factor of
    /// Table II. Returns `f64::INFINITY` when dividing by zero volume.
    #[inline]
    pub fn ratio(self, other: Self) -> f64 {
        self.0 as f64 / other.0 as f64
    }
}

impl Add for DataVolume {
    type Output = DataVolume;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        DataVolume(self.0 + rhs.0)
    }
}

impl AddAssign for DataVolume {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for DataVolume {
    type Output = DataVolume;
    /// Saturating subtraction.
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        DataVolume(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for DataVolume {
    type Output = DataVolume;
    #[inline]
    fn mul(self, rhs: u64) -> Self {
        DataVolume(self.0 * rhs)
    }
}

impl Sum for DataVolume {
    fn sum<I: Iterator<Item = DataVolume>>(iter: I) -> DataVolume {
        iter.fold(DataVolume::ZERO, Add::add)
    }
}

impl fmt::Debug for DataVolume {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DataVolume({self})")
    }
}

impl fmt::Display for DataVolume {
    /// Human readable with binary units: `317.00 GiB`, `1.50 MiB`, `42 B`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: f64 = 1024.0;
        const MIB: f64 = 1024.0 * 1024.0;
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        const TIB: f64 = 1024.0 * GIB;
        let b = self.0 as f64;
        if b >= TIB {
            write!(f, "{:.2} TiB", b / TIB)
        } else if b >= GIB {
            write!(f, "{:.2} GiB", b / GIB)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b / MIB)
        } else if b >= KIB {
            write!(f, "{:.2} KiB", b / KIB)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors() {
        assert_eq!(DataVolume::from_gib(1).bytes(), 1 << 30);
    }

    #[test]
    fn arithmetic_saturates() {
        let a = DataVolume::from_bytes(100);
        let b = DataVolume::from_bytes(30);
        assert_eq!((a + b).bytes(), 130);
        assert_eq!((a - b).bytes(), 70);
        assert_eq!((b - a).bytes(), 0); // saturating
        assert_eq!((b * 3).bytes(), 90);
    }

    #[test]
    fn ratio_matches_table2_style_reduction() {
        // 412M k-mers * 8B vs 108M supermers * 9B is a ~3.4x reduction.
        let kmers = DataVolume::from_bytes(412_000_000 * 8);
        let supermers = DataVolume::from_bytes(108_000_000 * 9);
        let r = kmers.ratio(supermers);
        assert!(r > 3.3 && r < 3.5, "ratio {r}");
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", DataVolume::from_bytes(42)), "42 B");
        assert_eq!(format!("{}", DataVolume::from_bytes(3 << 10)), "3.00 KiB");
        assert_eq!(format!("{}", DataVolume::from_bytes(5 << 20)), "5.00 MiB");
        assert_eq!(format!("{}", DataVolume::from_gib(2)), "2.00 GiB");
    }

    #[test]
    fn sum_of_volumes() {
        let total: DataVolume = (1..=4u64).map(DataVolume::from_bytes).sum();
        assert_eq!(total.bytes(), 10);
    }
}
