//! Owner-rank assignment: which rank counts a given k-mer.
//!
//! Correctness requires exactly one property: *every instance of a k-mer
//! maps to the same rank, wherever it is parsed* (§III-A). The k-mer
//! pipelines hash the packed k-mer; the supermer pipelines hash the
//! minimizer, which additionally keeps all k-mers of a supermer together
//! (§IV-A). The balanced assignment is this reproduction's implementation
//! of the paper's future-work item ("devise a better partitioning
//! algorithm that maintains the locality and at the same time partitions
//! data evenly", §VII).

use crate::table::TableKey;
use dedukt_hash::{owner_rank_mult_shift, Murmur3x64};
use std::collections::HashMap;

/// Owner rank of a packed k-mer (Algorithm 1, line 5).
#[inline]
pub fn kmer_owner(hasher: &Murmur3x64, kmer_word: u64, nranks: usize) -> usize {
    owner_rank_mult_shift(hasher.hash_u64(kmer_word), nranks)
}

/// Owner rank of a packed k-mer key at either width — identical to
/// [`kmer_owner`] for `u64` keys, MurmurHash3-128-derived for `u128`.
#[inline]
pub fn key_owner<K: TableKey>(hasher: &Murmur3x64, key: K, nranks: usize) -> usize {
    owner_rank_mult_shift(key.hash_with(hasher), nranks)
}

/// Owner rank of a minimizer word (Algorithm 2, lines 7/15).
#[inline]
pub fn minimizer_owner(hasher: &Murmur3x64, mmer_word: u64, nranks: usize) -> usize {
    owner_rank_mult_shift(hasher.hash_u64(mmer_word), nranks)
}

/// Survivor rank that inherits a dead rank's key range (rendezvous
/// hashing).
///
/// Highest-random-weight over the alive set: every rank mixes
/// `(seed, range, candidate)` and the largest weight wins, so each engine
/// re-derives the same owner for a dead rank's range without any
/// coordination, and a later death only moves the ranges the newly dead
/// rank owned (minimal movement — surviving assignments are unaffected
/// because their argmax is unchanged).
///
/// Panics if no rank is alive; the driver converts that case into a
/// clean `RunError::RanksLost` before re-partitioning.
pub fn surviving_owner(seed: u64, range: usize, alive: &[bool]) -> usize {
    alive
        .iter()
        .enumerate()
        .filter(|(_, &a)| a)
        .max_by_key(|&(r, _)| dedukt_sim::rng::mix_coords(seed, &[range as u64, r as u64]))
        .map(|(r, _)| r)
        .expect("at least one alive rank")
}

/// Frequency-aware minimizer→rank assignment (extension).
///
/// Greedy longest-processing-time: sort minimizer buckets by observed
/// weight (k-mer instances) and assign each to the currently lightest
/// rank. Minimizers outside the sampled set fall back to hashing, so the
/// assignment never loses the determinism that correctness requires —
/// every rank must build the identical table, which is why construction
/// is a pure function of the (sorted) weight map.
#[derive(Clone, Debug)]
pub struct BalancedAssignment {
    map: HashMap<u64, u32>,
    nranks: usize,
    hasher: Murmur3x64,
}

impl BalancedAssignment {
    /// Builds from observed `minimizer → k-mer instance count` weights.
    pub fn build(weights: &HashMap<u64, u64>, nranks: usize, hash_seed: u64) -> BalancedAssignment {
        assert!(nranks > 0);
        // Deterministic order: by weight descending, minimizer ascending.
        let mut buckets: Vec<(u64, u64)> = weights.iter().map(|(&m, &w)| (m, w)).collect();
        buckets.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        let mut rank_load = vec![0u64; nranks];
        let mut map = HashMap::with_capacity(buckets.len());
        for (mmer, w) in buckets {
            // Lightest rank; ties broken by lowest rank id.
            let r = (0..nranks)
                .min_by_key(|&r| (rank_load[r], r))
                .expect("nranks > 0");
            rank_load[r] += w;
            map.insert(mmer, r as u32);
        }
        BalancedAssignment {
            map,
            nranks,
            hasher: Murmur3x64::new(hash_seed),
        }
    }

    /// Owner rank of `mmer` (falls back to hashing for unseen minimizers).
    #[inline]
    pub fn owner(&self, mmer: u64) -> usize {
        match self.map.get(&mmer) {
            Some(&r) => r as usize,
            None => minimizer_owner(&self.hasher, mmer, self.nranks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owners_in_range_and_deterministic() {
        let h = Murmur3x64::new(42);
        for n in [1usize, 6, 96, 384] {
            for w in [0u64, 1, 12345, u64::MAX / 2] {
                let a = kmer_owner(&h, w, n);
                assert!(a < n);
                assert_eq!(a, kmer_owner(&h, w, n));
                let b = minimizer_owner(&h, w, n);
                assert!(b < n);
            }
        }
    }

    #[test]
    fn balanced_assignment_beats_hashing_on_skew() {
        // One huge bucket plus many small ones; hashing may collide the
        // huge bucket with others, LPT never does.
        let mut weights = HashMap::new();
        weights.insert(0u64, 1_000u64);
        for m in 1..40u64 {
            weights.insert(m, 10);
        }
        let nranks = 4;
        let a = BalancedAssignment::build(&weights, nranks, 1);
        let mut loads = vec![0u64; nranks];
        for (&m, &w) in &weights {
            loads[a.owner(m)] += w;
        }
        let max = *loads.iter().max().unwrap();
        // LPT puts the 1000-bucket alone until others catch up: max load
        // stays 1000 (can't split a bucket), and nothing else joins it
        // until remaining ranks hold more.
        assert_eq!(max, 1_000);
        let second = {
            let mut l = loads.clone();
            l.sort_unstable();
            l[nranks - 2]
        };
        assert!(second <= 390 / 3 + 10, "rest spread evenly: {loads:?}");
    }

    #[test]
    fn balanced_is_deterministic() {
        let mut weights = HashMap::new();
        for m in 0..100u64 {
            weights.insert(m, m % 13 + 1);
        }
        let a = BalancedAssignment::build(&weights, 7, 9);
        let b = BalancedAssignment::build(&weights, 7, 9);
        for m in 0..100u64 {
            assert_eq!(a.owner(m), b.owner(m));
        }
        assert_eq!(a.map.len(), 100);
    }

    #[test]
    fn surviving_owner_is_deterministic_and_alive() {
        let mut alive = vec![true; 12];
        alive[3] = false;
        alive[7] = false;
        for range in 0..64 {
            let o = surviving_owner(42, range, &alive);
            assert!(alive[o], "owner must be alive");
            assert_eq!(o, surviving_owner(42, range, &alive));
        }
    }

    #[test]
    fn surviving_owner_moves_only_the_dead_ranks_ranges() {
        // Rendezvous hashing: killing one more rank must not move any
        // range whose owner is still alive.
        let mut alive = vec![true; 16];
        alive[2] = false;
        let before: Vec<usize> = (0..128).map(|d| surviving_owner(7, d, &alive)).collect();
        alive[9] = false;
        for (d, &was) in before.iter().enumerate() {
            let now = surviving_owner(7, d, &alive);
            if was != 9 {
                assert_eq!(now, was, "range {d} moved though its owner survived");
            } else {
                assert!(alive[now]);
            }
        }
    }

    #[test]
    fn surviving_owner_spreads_ranges() {
        // HRW should spread a dead rank's ranges roughly evenly; just pin
        // that more than one survivor inherits something.
        let mut alive = vec![true; 8];
        alive[0] = false;
        let owners: std::collections::HashSet<usize> =
            (0..256).map(|d| surviving_owner(1, d, &alive)).collect();
        assert!(owners.len() > 4, "HRW collapsed onto {owners:?}");
    }

    #[test]
    #[should_panic(expected = "at least one alive rank")]
    fn surviving_owner_panics_with_no_survivors() {
        surviving_owner(1, 0, &[false, false]);
    }

    #[test]
    fn unseen_minimizers_fall_back_to_hash() {
        let a = BalancedAssignment::build(&HashMap::new(), 5, 3);
        let h = Murmur3x64::new(3);
        for m in 0..50u64 {
            assert_eq!(a.owner(m), minimizer_owner(&h, m, 5));
        }
    }
}
