//! The paper's analytic communication model (§IV-D).
//!
//! Notation (paper's table): `D` total input bases, `L` average read
//! length, `k` k-mer length, `s` average supermer length, `P` processors.
//!
//! * Total k-mers:      `K ≈ D/L × (L − k + 1)`
//! * Total supermers:   `S ≈ K / (s − k + 1)` (each supermer of length `s`
//!   holds `s − k + 1` k-mers)
//! * Per-processor k-mer exchange volume: `(P−1)/P × K/P × bytes(k)`
//! * Communication reduction of supermers over k-mers, in bases:
//!   `k (s − k + 1) / s` — the exact form of the paper's worked example
//!   (k = 8, s = 11 → 2.9×). The paper's §IV-D prose abbreviates this as
//!   "≈ (s − k)×", which reads as a typo; the worked example and Fig. 4
//!   arithmetic match the exact form.

/// Inputs to the §IV-D model.
#[derive(Clone, Copy, Debug)]
pub struct CommModel {
    /// Total input size in bases (the paper's `D`).
    pub total_bases: f64,
    /// Average read length (`L`).
    pub avg_read_len: f64,
    /// k-mer length (`k`).
    pub k: f64,
}

impl CommModel {
    /// Total k-mer multiset size `K ≈ D/L (L − k + 1)`.
    pub fn total_kmers(&self) -> f64 {
        (self.total_bases / self.avg_read_len) * (self.avg_read_len - self.k + 1.0)
    }

    /// Total supermer count for average supermer length `s`:
    /// `K / (s − k + 1)`.
    pub fn total_supermers(&self, s: f64) -> f64 {
        assert!(s >= self.k);
        self.total_kmers() / (s - self.k + 1.0)
    }
}

/// Observed average supermer length from totals: `s` such that
/// `S = K / (s − k + 1)`.
pub fn avg_supermer_len(total_kmers: f64, total_supermers: f64, k: f64) -> f64 {
    assert!(total_supermers > 0.0);
    total_kmers / total_supermers + k - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example() -> CommModel {
        // §IV-A worked example: one 19-base read, k = 8.
        CommModel {
            total_bases: 19.0,
            avg_read_len: 19.0,
            k: 8.0,
        }
    }

    #[test]
    fn worked_example_kmer_count() {
        // 19 − 8 + 1 = 12 k-mers.
        assert!((paper_example().total_kmers() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn worked_example_supermer_count() {
        // 12 k-mers at s = 11 → 12/4 = 3 supermers, matching Fig. 4.
        let s = paper_example().total_supermers(11.0);
        assert!((s - 3.0).abs() < 1e-9);
    }

    #[test]
    fn table2_scale_supermer_ratios() {
        // Table II: E. coli has 412M k-mers and 108M supermers at m = 7 →
        // average supermer length ≈ 412/108 + 16 ≈ 19.8 bases.
        let s = avg_supermer_len(412e6, 108e6, 17.0);
        assert!((19.0..21.0).contains(&s), "avg supermer len {s}");
        // And H. sapiens: 167B k-mers, 50B supermers → s ≈ 19.3.
        let s = avg_supermer_len(167e9, 50e9, 17.0);
        assert!((19.0..20.0).contains(&s), "avg supermer len {s}");
    }
}
