//! k-mer spectra (frequency-of-frequency histograms).
//!
//! The paper motivates k-mer counting by the downstream value of "k-mer
//! histograms" (§II-A). A spectrum maps multiplicity → number of distinct
//! k-mers with that multiplicity; it is also the natural cross-check
//! artifact between two counters (identical multisets ⇒ identical spectra).

use std::collections::BTreeMap;

/// A k-mer spectrum: for each multiplicity `c`, the number of distinct
/// k-mers that occur exactly `c` times.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Spectrum {
    counts: BTreeMap<u32, u64>,
}

impl Spectrum {
    /// Empty spectrum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a spectrum from `(kmer, count)` pairs; the k-mer itself is
    /// irrelevant, only counts matter.
    pub fn from_counts<I: IntoIterator<Item = u32>>(counts: I) -> Spectrum {
        let mut s = Spectrum::new();
        for c in counts {
            s.record(c);
        }
        s
    }

    /// Records one distinct k-mer with multiplicity `count`.
    pub fn record(&mut self, count: u32) {
        if count > 0 {
            *self.counts.entry(count).or_insert(0) += 1;
        }
    }

    /// Number of distinct k-mers.
    pub fn distinct(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Total k-mer instances (`Σ multiplicity × distinct-at-multiplicity`).
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|(&c, &n)| c as u64 * n).sum()
    }

    /// Number of singletons (multiplicity 1) — mostly sequencing errors in
    /// real data, the usual target of Bloom-filter suppression.
    pub fn singletons(&self) -> u64 {
        self.counts.get(&1).copied().unwrap_or(0)
    }

    /// Iterates `(multiplicity, distinct k-mers)` in increasing
    /// multiplicity.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.counts.iter().map(|(&c, &n)| (c, n))
    }

    /// Merges another spectrum into this one. Only meaningful when the two
    /// spectra were built over disjoint k-mer key spaces (e.g. per-rank
    /// partitions of a distributed table, which never share a k-mer).
    pub fn merge(&mut self, other: &Spectrum) {
        for (&c, &n) in &other.counts {
            *self.counts.entry(c).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accounting() {
        // counts: three kmers seen once, one seen 5 times.
        let s = Spectrum::from_counts([1, 1, 5, 1]);
        assert_eq!(s.distinct(), 4);
        assert_eq!(s.total(), 8);
        assert_eq!(s.singletons(), 3);
    }

    #[test]
    fn zero_counts_ignored() {
        let s = Spectrum::from_counts([0, 0, 2]);
        assert_eq!(s.distinct(), 1);
        assert_eq!(s.total(), 2);
    }

    #[test]
    fn empty_spectrum() {
        let s = Spectrum::new();
        assert_eq!(s.distinct(), 0);
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn merge_disjoint_partitions() {
        let mut a = Spectrum::from_counts([1, 2]);
        let b = Spectrum::from_counts([2, 2, 7]);
        a.merge(&b);
        assert_eq!(a.distinct(), 5);
        assert_eq!(a.total(), 1 + 2 + 2 + 2 + 7);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(1, 1), (2, 3), (7, 1)]);
    }

    #[test]
    fn iteration_is_sorted_by_multiplicity() {
        let s = Spectrum::from_counts([9, 1, 4, 4]);
        let mults: Vec<u32> = s.iter().map(|(c, _)| c).collect();
        assert_eq!(mults, vec![1, 4, 9]);
    }
}
