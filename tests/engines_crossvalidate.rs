//! Cross-validation: a hand-rolled k-mer counter written against the
//! threaded channel oracle (real OS threads, real channel exchange — the
//! shape of real MPI rank code) must agree with the BSP pipelines and
//! the oracle.

use dedukt::core::table::HostCountTable;
use dedukt::core::verify::reference_counts;
use dedukt::core::{pipeline, Mode, RunConfig};
use dedukt::dna::kmer::kmer_words;
use dedukt::dna::{Dataset, DatasetId, ScalePreset};
use dedukt::hash::{owner_rank_mult_shift, Murmur3x64};
use dedukt::net::ThreadedWorld;
use std::collections::HashMap;

/// Algorithm 1 written as rank code over the threaded oracle.
fn threaded_count(reads: &dedukt::dna::ReadSet, nranks: usize, k: usize) -> HashMap<u64, u64> {
    let cfg = RunConfig::new(Mode::CpuBaseline, 1).counting;
    let parts = reads.partition_by_bases(nranks);
    let hasher = Murmur3x64::new(cfg.hash_seed);
    let results = ThreadedWorld::run(nranks, |comm| {
        // PARSEKMER: bucket this rank's k-mers by owner.
        let mut send: Vec<Vec<u64>> = vec![Vec::new(); comm.size()];
        for read in &parts[comm.rank()].reads {
            for w in kmer_words(&read.codes, k, cfg.encoding) {
                send[owner_rank_mult_shift(hasher.hash_u64(w), comm.size())].push(w);
            }
        }
        // EXCHANGEKMER.
        let recv = comm.alltoallv_u64(send);
        // COUNTKMER.
        let mut table: HostCountTable = HostCountTable::with_expected(
            recv.iter().map(Vec::len).sum(),
            0.7,
            cfg.hash_seed ^ 0xC0C0,
        );
        for payload in recv {
            for kmer in payload {
                table.insert(kmer);
            }
        }
        // A sanity collective: total instances must be globally known.
        let global_total = comm.allreduce_sum(table.total());
        comm.barrier();
        (table.iter().collect::<Vec<(u64, u32)>>(), global_total)
    });

    // All ranks must agree on the global total.
    let totals: Vec<u64> = results.iter().map(|(_, t)| *t).collect();
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "allreduce disagreement"
    );

    let mut merged = HashMap::new();
    for (entries, _) in results {
        for (kmer, count) in entries {
            let prev = merged.insert(kmer, count as u64);
            assert!(prev.is_none(), "k-mer owned by two ranks");
        }
    }
    merged
}

#[test]
fn threaded_engine_matches_oracle() {
    let reads = Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate();
    let cfg = RunConfig::new(Mode::CpuBaseline, 1).counting;
    let oracle = reference_counts(&reads, &cfg);
    let threaded = threaded_count(&reads, 8, cfg.k);
    assert_eq!(threaded.len(), oracle.len());
    for (kmer, count) in &oracle {
        assert_eq!(threaded.get(kmer), Some(count), "k-mer {kmer:#x}");
    }
}

#[test]
fn threaded_engine_matches_bsp_pipeline() {
    let reads = Dataset::new(DatasetId::ABaumannii30x, ScalePreset::Tiny).generate();
    let mut rc = RunConfig::new(Mode::GpuKmer, 1);
    rc.collect_tables = true;
    let bsp = pipeline::run(&reads, &rc).expect("valid config");
    let threaded = threaded_count(&reads, 5, rc.counting.k);

    assert_eq!(bsp.distinct_kmers as usize, threaded.len());
    let bsp_total: u64 = threaded.values().sum();
    assert_eq!(bsp.total_kmers, bsp_total);
    // Per-k-mer equality.
    for table in bsp.tables.as_ref().unwrap() {
        for &(kmer, count) in table {
            assert_eq!(
                threaded.get(&kmer),
                Some(&(count as u64)),
                "k-mer {kmer:#x}"
            );
        }
    }
}

#[test]
fn threaded_engine_is_deterministic_across_rank_counts() {
    let reads = Dataset::new(DatasetId::VVulnificus30x, ScalePreset::Tiny).generate();
    let a = threaded_count(&reads, 3, 17);
    let b = threaded_count(&reads, 11, 17);
    assert_eq!(a, b);
}

/// Wide k (k = 41, u128 keys) through the same unified driver: all
/// three engines must agree with the independent wide oracle key-for-key.
/// (The threaded harness stays narrow — its collective is u64-typed.)
#[test]
fn all_engines_match_wide_oracle_at_k41() {
    let reads = Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate();
    let mut rc = RunConfig::new(Mode::CpuBaseline, 2);
    rc.counting.k = 41;
    rc.counting.m = 11;
    rc.counting.window = 24;
    rc.collect_tables = true;
    let oracle = dedukt::core::wide::wide_reference_counts(&reads, &rc.counting);
    assert!(!oracle.is_empty());
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        rc.mode = mode;
        let report = pipeline::run_typed::<u128>(&reads, &rc).expect("valid wide config");
        assert_eq!(
            report.total_kmers,
            oracle.values().sum::<u64>(),
            "{mode:?}: total"
        );
        assert_eq!(
            report.distinct_kmers as usize,
            oracle.len(),
            "{mode:?}: distinct"
        );
        let mut merged: HashMap<u128, u64> = HashMap::new();
        for table in report.tables.as_ref().expect("tables collected") {
            for &(kmer, count) in table {
                assert!(
                    merged.insert(kmer, count as u64).is_none(),
                    "{mode:?}: k-mer owned by two ranks"
                );
            }
        }
        for (kmer, count) in &oracle {
            assert_eq!(merged.get(kmer), Some(count), "{mode:?}: k-mer {kmer:#x}");
        }
    }
}
