//! Distribution statistics over per-rank loads.
//!
//! The paper quantifies partition quality as *load imbalance* — the ratio of
//! the maximum per-rank load to the average (Table III: 1.16 for the k-mer
//! partitioning vs 2.37 for supermers on H. sapiens). [`DistStats`]
//! summarises any per-rank load vector that way.

use std::fmt;

/// Summary statistics of a load distribution (one value per rank).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistStats {
    /// Number of samples (ranks).
    pub count: usize,
    /// Smallest load.
    pub min: u64,
    /// Largest load.
    pub max: u64,
    /// Total load.
    pub sum: u64,
    /// Mean load.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl DistStats {
    /// Computes statistics over per-rank loads. Returns `None` for an empty
    /// slice.
    pub fn from_loads(loads: &[u64]) -> Option<DistStats> {
        if loads.is_empty() {
            return None;
        }
        let count = loads.len();
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut sum = 0u64;
        for &v in loads {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        let mean = sum as f64 / count as f64;
        let var = loads
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / count as f64;
        Some(DistStats {
            count,
            min,
            max,
            sum,
            mean,
            stddev: var.sqrt(),
        })
    }

    /// Load imbalance, the paper's Table III metric: `max / mean`.
    /// 1.0 is perfect balance. Returns infinity when the mean is zero but the
    /// max is not (cannot happen for non-negative loads unless all zero, in
    /// which case this returns 1.0 by convention).
    pub fn imbalance(&self) -> f64 {
        if self.sum == 0 {
            1.0
        } else {
            self.max as f64 / self.mean
        }
    }
}

impl fmt::Display for DistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} max={} mean={:.1} imbalance={:.2}",
            self.count,
            self.min,
            self.max,
            self.mean,
            self.imbalance()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(DistStats::from_loads(&[]).is_none());
    }

    #[test]
    fn basic_moments() {
        let s = DistStats::from_loads(&[2, 4, 6, 8]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 8);
        assert_eq!(s.sum, 20);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 5.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn perfect_balance_has_imbalance_one() {
        let s = DistStats::from_loads(&[10, 10, 10]).unwrap();
        assert!((s.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_style_imbalance() {
        // Mimic Table III H. sapiens supermer row: avg 255M, max 606M → 2.37.
        let loads = [41u64, 255, 255, 469]; // mean 255, max 469
        let s = DistStats::from_loads(&loads).unwrap();
        assert!((s.imbalance() - 469.0 / 255.0).abs() < 1e-9);
    }

    #[test]
    fn all_zero_loads() {
        let s = DistStats::from_loads(&[0, 0]).unwrap();
        assert_eq!(s.imbalance(), 1.0);
    }

    #[test]
    fn display_formats() {
        let s = DistStats::from_loads(&[1, 3]).unwrap();
        let txt = format!("{s}");
        assert!(txt.contains("n=2"));
        assert!(txt.contains("imbalance=1.50"));
    }
}
