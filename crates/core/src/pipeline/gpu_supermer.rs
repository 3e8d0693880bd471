//! The GPU supermer counter (§IV): communicate supermers, not k-mers.
//!
//! Differences from the k-mer pipeline:
//!
//! * **Parse** — one thread per *window* of `window` k-mer positions
//!   (§IV-B, Fig. 5): the thread scans its window's k-mers, tracks the
//!   minimizer, extends the supermer in a register while the minimizer is
//!   unchanged, and writes each finished supermer (packed word + length
//!   byte) to the outgoing buffer of `HASH(minimizer) % P`. All k-mers of
//!   a supermer share its minimizer, so they all land on the same rank.
//! * **Exchange** — two `MPI_Alltoallv`s (Algorithm 2): the supermer
//!   words and their lengths. 9 bytes per supermer instead of 8 bytes per
//!   k-mer — the up-to-4× volume reduction of Table II.
//! * **Count** — received supermers are first re-parsed into k-mers
//!   (charged as the paper's measured +23-27% counting overhead), then
//!   counted by the same device table kernel.
//!
//! The phase skeleton (bucket → exchange rounds → count) lives in the
//! shared [`driver`](crate::pipeline::driver); this module supplies the
//! supermer-specific stages, including the two-collective exchange and
//! the §VII balanced-minimizer pre-pass.

use crate::config::RunConfig;
use crate::partition::{minimizer_owner, BalancedAssignment};
use crate::pipeline::driver::{
    run_staged, BucketOut, CounterOom, CounterStages, DriverCtx, PressureStats, RoundRecv,
};
use crate::pipeline::gpu_common::{block_range, chunked_launch, staging, DeviceRoundCounter};
use crate::pipeline::{RankCountResult, RunError, RunReport};
use crate::supermer::build_supermers_reference_w;
use crate::supermer::{num_windows, supermers_of_window_w, SupermerW};
use crate::width::PackedKmer;
use dedukt_dna::ReadSet;
use dedukt_net::cost::Network;
use dedukt_net::BspWorld;
use dedukt_sim::{DataVolume, Histogram, SimTime};
use std::collections::HashMap;
use std::marker::PhantomData;

struct SupermerStages<K: PackedKmer> {
    assignment: Option<BalancedAssignment>,
    /// Ship buckets through the [`crate::wire`] codec (`--wire-compress`)
    /// instead of the flat word + length-byte records.
    compress: bool,
    _key: PhantomData<K>,
}

impl<K: PackedKmer> SupermerStages<K> {
    fn owner(&self, ctx: &DriverCtx, mz: u64) -> usize {
        match &self.assignment {
            Some(a) => a.owner(mz),
            None => minimizer_owner(&ctx.hasher, mz, ctx.nranks),
        }
    }

    /// `--wire-compress` variant of the exchange: each minimizer bucket
    /// rides the [`crate::wire`] codec as a single byte stream (lengths
    /// varint/delta-coded, bases packed 2 bits each), so words and
    /// lengths collapse into *one* collective. The journal/metrics keep
    /// reporting the *logical* flat volume (`units × (WORD_BYTES + 1)`)
    /// while the simulated wire is charged for the encoded physical
    /// bytes; buckets are decoded on receipt, so counts are
    /// bit-identical to the uncompressed path. Fault fates key on the
    /// (src, dst) pair exactly as before, and a retried bucket
    /// re-encodes to the identical byte string (the codec is
    /// deterministic), so checksums and retry accounting compose
    /// unchanged.
    fn exchange_round_compressed(
        &self,
        world: &mut BspWorld,
        round: Vec<Vec<Vec<(K, u8)>>>,
        hidden: Option<&[SimTime]>,
    ) -> RoundRecv<(K, u8)> {
        let mut logical: Vec<Vec<u64>> = Vec::with_capacity(round.len());
        let mut byte_round: Vec<Vec<Vec<u8>>> = Vec::with_capacity(round.len());
        for row in round {
            let mut lrow = Vec::with_capacity(row.len());
            let mut brow = Vec::with_capacity(row.len());
            for payload in row {
                lrow.push(payload.len() as u64 * crate::wire::flat_wire_bytes::<K>());
                brow.push(crate::wire::encode_bucket(&payload));
            }
            logical.push(lrow);
            byte_round.push(brow);
        }
        let out = world.alltoallv_compressed(byte_round, hidden, &logical);
        let items = out
            .recv
            .into_iter()
            .map(|srcs| {
                let mut flat = Vec::new();
                for buf in srcs {
                    flat.extend(crate::wire::decode_bucket::<K>(&buf));
                }
                flat
            })
            .collect();
        // Undelivered buckets decode back to plain items so the driver
        // can re-offer them on the retry attempt (they re-encode to the
        // same bytes there).
        let undelivered = out
            .undelivered
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|buf| crate::wire::decode_bucket::<K>(&buf))
                    .collect()
            })
            .collect();
        RoundRecv {
            items,
            undelivered,
            failed_sends: out.failed_sends,
            corrupt_buckets: out.corrupt_buckets,
            wire_mean: out.wire.mean,
            charged_mean: out.times.mean,
        }
    }
}

impl<K: PackedKmer> CounterStages for SupermerStages<K> {
    type Key = K;
    type Item = (K, u8);
    type Counter = DeviceRoundCounter<K>;

    const ITEM_WIRE_BYTES: u64 = K::SUPERMER_WIRE_BYTES;
    const BUCKET_PHASE: &'static str = "build-supermers";

    fn network(&self, rc: &RunConfig) -> Network {
        Network::summit_gpu(rc.nodes)
    }

    // ── Optional pre-pass: frequency-aware balanced assignment (§VII) ─
    // Each rank samples a deterministic stride of its reads, weights are
    // merged (an Allgather in real MPI), and every rank derives the same
    // minimizer→rank map. Sampling time joins the parse phase.
    fn prepass(&mut self, ctx: &DriverCtx, world: &mut BspWorld) -> SimTime {
        let rc = ctx.rc;
        if !rc.balanced_minimizers {
            return SimTime::ZERO;
        }
        let cfg = &ctx.cfg;
        let nranks = ctx.nranks;
        let scheme = cfg.minimizer_scheme();
        let tuning = rc.gpu_tuning;
        let stride = (1.0 / rc.balance_sample_fraction.clamp(0.001, 1.0)).round() as usize;
        let (rank_weights, sample_times) = world.compute_step_named("sample-minimizers", |rank| {
            let mut weights: HashMap<u64, u64> = HashMap::new();
            let mut sampled_kmers = 0u64;
            for read in ctx.parts[rank].reads.iter().step_by(stride.max(1)) {
                for sm in build_supermers_reference_w::<K>(&read.codes, cfg.k, &scheme) {
                    let nk = sm.num_kmers(cfg.k) as u64;
                    *weights.entry(sm.minimizer).or_insert(0) += nk;
                    sampled_kmers += nk;
                }
            }
            let device = dedukt_gpu::Device::new(rc.gpu_device.clone());
            let dt = SimTime::from_secs(
                sampled_kmers as f64 * tuning.supermer_parse_cycles_per_kmer
                    / device.config().peak_instr_rate().units_per_sec(),
            );
            (weights, dt)
        });
        let mut merged: HashMap<u64, u64> = HashMap::new();
        let mut weight_bytes = 0u64;
        for w in rank_weights {
            weight_bytes += w.len() as u64 * 16;
            for (mz, n) in w {
                *merged.entry(mz).or_insert(0) += n;
            }
        }
        self.assignment = Some(BalancedAssignment::build(&merged, nranks, cfg.hash_seed));
        sample_times.mean
            + world
                .network()
                .allreduce_time(weight_bytes / nranks.max(1) as u64)
    }

    // ── Phase 1: build supermers on the device (§IV-B) ────────────────
    fn bucket(&self, ctx: &DriverCtx, rank: usize) -> BucketOut<(K, u8)> {
        let rc = ctx.rc;
        let cfg = &ctx.cfg;
        let nranks = ctx.nranks;
        let tuning = rc.gpu_tuning;
        let scheme = cfg.minimizer_scheme();
        let device = dedukt_gpu::Device::new(rc.gpu_device.clone());
        let part = &ctx.parts[rank];

        // Window index: prefix sums of per-read window counts. The real
        // kernel computes this on the host while batching reads.
        let mut win_offsets = Vec::with_capacity(part.reads.len() + 1);
        win_offsets.push(0usize);
        for r in &part.reads {
            win_offsets.push(win_offsets.last().unwrap() + num_windows(r.len(), cfg.k, cfg.window));
        }
        let total_windows = *win_offsets.last().unwrap();
        let h2d = staging(
            &device,
            rc,
            DataVolume::from_bytes((part.total_bases() / 4 + part.reads.len() * 8) as u64),
        );

        let launch = chunked_launch(total_windows.max(1));
        let (report, block_buckets) = device.launch_map("build_supermers", launch, |b| {
            let (lo, hi) = block_range(total_windows, b.cfg.grid_blocks, b.block);
            let mut local: Vec<(Vec<K>, Vec<u8>)> = vec![(Vec::new(), Vec::new()); nranks];
            let mut smers: Vec<SupermerW<K>> = Vec::new();
            let mut kmers_scanned = 0u64;
            let mut smers_built = 0u64;
            for wi in lo..hi {
                // Which read owns window `wi`?
                let ri = win_offsets.partition_point(|&o| o <= wi) - 1;
                let wstart = (wi - win_offsets[ri]) * cfg.window;
                let codes = &part.reads[ri].codes;
                smers.clear();
                supermers_of_window_w(codes, wstart, cfg.k, cfg.window, &scheme, &mut smers);
                for sm in &smers {
                    let dst = self.owner(ctx, sm.minimizer);
                    local[dst].0.push(sm.word);
                    local[dst].1.push(sm.len);
                    kmers_scanned += sm.num_kmers(cfg.k) as u64;
                }
                smers_built += smers.len() as u64;
            }
            // Calibrated compute per k-mer scanned (includes the rolling
            // minimizer search — the paper's +27-33% parse overhead), plus
            // real traffic: packed reads in, word + length byte per
            // supermer out (9 B narrow, 17 B wide), one warp-aggregated
            // append per supermer.
            b.instr((kmers_scanned as f64 * tuning.supermer_parse_cycles_per_kmer) as u64);
            b.gmem_coalesced(kmers_scanned / 4 + cfg.k as u64);
            b.gmem_random(smers_built * K::SUPERMER_WIRE_BYTES);
            let atomics = smers_built / 32 + 1;
            b.atomic(atomics, atomics / (nranks as u64).max(32));
            local
        });

        let mut words: Vec<Vec<K>> = vec![Vec::new(); nranks];
        let mut lens: Vec<Vec<u8>> = vec![Vec::new(); nranks];
        for blocks in block_buckets {
            for (dst, (w, l)) in blocks.into_iter().enumerate() {
                words[dst].extend(w);
                lens[dst].extend(l);
            }
        }
        let out_bytes: u64 = words
            .iter()
            .map(|v| v.len() as u64 * K::SUPERMER_WIRE_BYTES)
            .sum();
        let d2h = staging(&device, rc, DataVolume::from_bytes(out_bytes));
        if let Some(m) = &ctx.metrics {
            // Supermer-length distribution and the wire-compression ratio
            // this rank achieved: one k-mer word each (8/16 B) had they
            // been sent raw vs one word + length byte (9/17 B) per
            // supermer actually sent (Table II's saving).
            let mut length_hist = Histogram::new();
            let mut kmer_count = 0u64;
            for l in lens.iter().flatten() {
                length_hist.observe(*l as u64);
                kmer_count += (*l as u64).saturating_sub(cfg.k as u64 - 1);
            }
            let supermer_count = length_hist.count();
            m.merge_histogram("supermer_length_bases", Some(rank), &length_hist);
            m.counter_add("supermers_built_total", Some(rank), supermer_count);
            if supermer_count > 0 {
                m.gauge_set(
                    "supermer_compression_ratio",
                    Some(rank),
                    (kmer_count * K::KMER_WIRE_BYTES) as f64
                        / (supermer_count * K::SUPERMER_WIRE_BYTES) as f64,
                );
            }
            m.gauge_set(
                "kernel_occupancy:build_supermers",
                Some(rank),
                report.occupancy,
            );
            m.gauge_max("device_peak_bytes", Some(rank), device.peak_bytes() as f64);
        }
        let buckets = words
            .into_iter()
            .zip(lens)
            .map(|(w, l)| w.into_iter().zip(l).collect())
            .collect();
        BucketOut {
            buckets,
            compute: h2d + report.time,
            stage_out: d2h,
        }
    }

    fn item_instances(&self, ctx: &DriverCtx, item: &(K, u8)) -> u64 {
        // Exactly the extraction formula below: a supermer of `len` bases
        // yields `len - k + 1` k-mers (zero if shorter than k).
        (item.1 as u64).saturating_sub(ctx.cfg.k as u64 - 1)
    }

    // ── Phase 2: exchange supermers + lengths (Algorithm 2) ───────────
    // Two collectives per round: the packed words, then the length bytes
    // (word + 1 B = the 9 or 17 wire bytes per supermer). Hidden compute,
    // when present, overlaps the words collective — the bulk of the
    // volume.
    fn exchange_round(
        &self,
        world: &mut BspWorld,
        round: Vec<Vec<Vec<(K, u8)>>>,
        hidden: Option<&[SimTime]>,
    ) -> RoundRecv<(K, u8)> {
        if self.compress {
            return self.exchange_round_compressed(world, round, hidden);
        }
        let mut word_round: Vec<Vec<Vec<K>>> = Vec::with_capacity(round.len());
        let mut len_round: Vec<Vec<Vec<u8>>> = Vec::with_capacity(round.len());
        for row in round {
            let mut wrow = Vec::with_capacity(row.len());
            let mut lrow = Vec::with_capacity(row.len());
            for payload in row {
                let (w, l): (Vec<K>, Vec<u8>) = payload.into_iter().unzip();
                wrow.push(w);
                lrow.push(l);
            }
            word_round.push(wrow);
            len_round.push(lrow);
        }
        // Both collectives run in the driver's current fault context, so
        // an injected fault hits a bucket's words and lengths *together*
        // (the BSP world caches the first collective's fate matrix) —
        // the zip alignment below survives any fault schedule.
        let words_out = match hidden {
            Some(h) => world.alltoallv_overlapped(word_round, h),
            None => world.alltoallv(word_round),
        };
        let lens_out = world.alltoallv(len_round);
        // Re-assemble per-rank received supermers.
        let items = words_out
            .recv
            .into_iter()
            .zip(lens_out.recv)
            .map(|(ws, ls)| {
                let mut flat = Vec::new();
                for (w_src, l_src) in ws.into_iter().zip(ls) {
                    assert_eq!(w_src.len(), l_src.len(), "word/length streams must align");
                    flat.extend(w_src.into_iter().zip(l_src));
                }
                flat
            })
            .collect();
        // Undelivered buckets re-zip the same way (shared fates keep the
        // two streams bucket-aligned) so the driver can re-offer them as
        // ordinary items on the retry attempt.
        let undelivered = words_out
            .undelivered
            .into_iter()
            .zip(lens_out.undelivered)
            .map(|(wrow, lrow)| {
                wrow.into_iter()
                    .zip(lrow)
                    .map(|(w_dst, l_dst)| {
                        assert_eq!(
                            w_dst.len(),
                            l_dst.len(),
                            "undelivered word/length streams must align"
                        );
                        w_dst.into_iter().zip(l_dst).collect()
                    })
                    .collect()
            })
            .collect();
        RoundRecv {
            items,
            undelivered,
            // One logical supermer bucket rides two wire buckets; report
            // it once so retry counts match the k-mer pipelines'.
            failed_sends: words_out.failed_sends,
            corrupt_buckets: words_out.corrupt_buckets,
            wire_mean: words_out.wire.mean + lens_out.wire.mean,
            charged_mean: words_out.times.mean + lens_out.times.mean,
        }
    }

    fn stage_in(&self, ctx: &DriverCtx, received_items: u64) -> SimTime {
        let device = dedukt_gpu::Device::new(ctx.rc.gpu_device.clone());
        staging(
            &device,
            ctx.rc,
            DataVolume::from_bytes(received_items * K::SUPERMER_WIRE_BYTES),
        )
    }

    // ── Phase 3: extract k-mers from supermers and count (§IV-C) ──────
    fn make_counter(
        &self,
        ctx: &DriverCtx,
        rank: usize,
        expected_instances: u64,
    ) -> Result<DeviceRoundCounter<K>, CounterOom> {
        DeviceRoundCounter::new(ctx.rc, &ctx.cfg, rank, expected_instances)
    }

    fn count_round(
        &self,
        ctx: &DriverCtx,
        counter: &mut DeviceRoundCounter<K>,
        items: Vec<(K, u8)>,
    ) -> Result<SimTime, CounterOom> {
        let cfg = &ctx.cfg;
        // Device-side extraction, represented functionally by this flatten;
        // its cost is the extract surcharge added to the count kernel.
        let mut kmers = Vec::new();
        for &(word, len) in &items {
            let n = (len as usize).saturating_sub(cfg.k - 1);
            for i in 0..n {
                kmers.push(word.subword(len as usize, i, cfg.k));
            }
        }
        let tuning = ctx.rc.gpu_tuning;
        counter.count(
            &kmers,
            tuning.count_cycles_per_kmer + tuning.extract_cycles_per_kmer,
        )
    }

    fn pressure(&self, counter: &DeviceRoundCounter<K>) -> PressureStats {
        counter.pressure()
    }

    fn snapshot_counts(&self, counter: &DeviceRoundCounter<K>) -> (Vec<(K, u32)>, u64) {
        counter.snapshot()
    }

    fn finish(
        &self,
        ctx: &DriverCtx,
        rank: usize,
        counter: DeviceRoundCounter<K>,
    ) -> RankCountResult<K> {
        counter.finish(&ctx.metrics, rank)
    }
}

/// Runs the GPU supermer counter at an explicit key width.
pub fn run_gpu_supermer_typed<K: PackedKmer>(
    reads: &ReadSet,
    rc: &RunConfig,
) -> Result<RunReport<K>, RunError> {
    assert!(
        !rc.counting.canonical,
        "canonical counting is incompatible with minimizer routing of raw supermers; \
         use the k-mer pipelines for canonical mode"
    );
    run_staged(
        &mut SupermerStages::<K> {
            assignment: None,
            compress: rc.wire_compress,
            _key: PhantomData,
        },
        reads,
        rc,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use crate::verify::{check_against_reference, reference_total};
    use dedukt_dna::{Dataset, DatasetId, ScalePreset};

    fn tiny(nodes: usize) -> (ReadSet, RunConfig) {
        let reads = Dataset::new(DatasetId::ABaumannii30x, ScalePreset::Tiny).generate();
        let mut rc = RunConfig::new(Mode::GpuSupermer, nodes);
        rc.collect_tables = true;
        (reads, rc)
    }

    #[test]
    fn counts_match_oracle() {
        let (reads, rc) = tiny(1);
        let report = run_gpu_supermer_typed::<u64>(&reads, &rc).unwrap();
        assert_eq!(report.total_kmers, reference_total(&reads, rc.counting.k));
        check_against_reference(&reads, &rc.counting, report.tables.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn counts_match_oracle_multi_node() {
        let (reads, rc) = tiny(2);
        let report = run_gpu_supermer_typed::<u64>(&reads, &rc).unwrap();
        check_against_reference(&reads, &rc.counting, report.tables.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn agrees_with_kmer_pipeline() {
        let (reads, rc) = tiny(1);
        let sm = run_gpu_supermer_typed::<u64>(&reads, &rc).unwrap();
        let mut rck = rc.clone();
        rck.mode = Mode::GpuKmer;
        let km = crate::pipeline::gpu_kmer::run_gpu_kmer(&reads, &rck);
        assert_eq!(sm.total_kmers, km.total_kmers);
        assert_eq!(sm.distinct_kmers, km.distinct_kmers);
    }

    #[test]
    fn fewer_units_and_bytes_than_kmer_pipeline() {
        // Table II's claim: supermers cut exchanged units ~3-4× and bytes
        // accordingly (9 B per supermer vs 8 B per k-mer).
        let (reads, rc) = tiny(1);
        let sm = run_gpu_supermer_typed::<u64>(&reads, &rc).unwrap();
        let mut rck = rc.clone();
        rck.mode = Mode::GpuKmer;
        let km = crate::pipeline::gpu_kmer::run_gpu_kmer(&reads, &rck);
        assert!(
            sm.exchange.units * 2 < km.exchange.units,
            "supermers {} vs k-mers {}",
            sm.exchange.units,
            km.exchange.units
        );
        assert!(sm.exchange.bytes * 2 < km.exchange.bytes);
        assert_eq!(sm.exchange.bytes, sm.exchange.units * 9);
    }

    #[test]
    fn supermer_compute_is_slower_but_exchange_faster() {
        // §V-C's trade-off, at matched node count.
        let (reads, rc) = tiny(1);
        let sm = run_gpu_supermer_typed::<u64>(&reads, &rc).unwrap();
        let mut rck = rc.clone();
        rck.mode = Mode::GpuKmer;
        let km = crate::pipeline::gpu_kmer::run_gpu_kmer(&reads, &rck);
        assert!(
            sm.phases.parse > km.phases.parse,
            "supermer parse must cost more"
        );
        assert!(
            sm.phases.count > km.phases.count,
            "supermer count must cost more"
        );
        assert!(
            sm.exchange.alltoallv_time < km.exchange.alltoallv_time,
            "supermer Alltoallv must be faster: {} vs {}",
            sm.exchange.alltoallv_time,
            km.exchange.alltoallv_time
        );
    }

    #[test]
    fn supermer_load_is_more_imbalanced_than_kmer_load() {
        // Table III: minimizer-based routing skews per-rank loads.
        let (reads, rc) = tiny(2); // 12 ranks
        let sm = run_gpu_supermer_typed::<u64>(&reads, &rc).unwrap();
        let mut rck = rc.clone();
        rck.mode = Mode::GpuKmer;
        let km = crate::pipeline::gpu_kmer::run_gpu_kmer(&reads, &rck);
        assert!(
            sm.load.imbalance() > km.load.imbalance(),
            "supermer imbalance {} must exceed k-mer imbalance {}",
            sm.load.imbalance(),
            km.load.imbalance()
        );
    }

    #[test]
    fn wire_compression_preserves_counts_and_shrinks_the_wire() {
        let (reads, rc) = tiny(2);
        let flat = run_gpu_supermer_typed::<u64>(&reads, &rc).unwrap();
        let mut rcc = rc.clone();
        rcc.wire_compress = true;
        let packed = run_gpu_supermer_typed::<u64>(&reads, &rcc).unwrap();
        // Bit-identical functional results: the codec only changes what
        // the wire carries, never what arrives.
        assert_eq!(packed.total_kmers, flat.total_kmers);
        assert_eq!(packed.distinct_kmers, flat.distinct_kmers);
        assert_eq!(packed.tables, flat.tables);
        // Logical volume (units × 9 B) is unchanged; the *physical*
        // exchange gets cheaper, so the simulated collective is faster.
        assert_eq!(packed.exchange.units, flat.exchange.units);
        assert!(
            packed.exchange.bytes < flat.exchange.bytes,
            "encoded wire {} B must undercut flat {} B",
            packed.exchange.bytes,
            flat.exchange.bytes
        );
        assert!(
            packed.exchange.alltoallv_time < flat.exchange.alltoallv_time,
            "compressed wire {} must beat flat {}",
            packed.exchange.alltoallv_time,
            flat.exchange.alltoallv_time
        );
    }

    #[test]
    #[should_panic(expected = "canonical")]
    fn canonical_mode_is_rejected() {
        let (reads, mut rc) = tiny(1);
        rc.counting.canonical = true;
        let _ = run_gpu_supermer_typed::<u64>(&reads, &rc);
    }

    #[test]
    fn balanced_assignment_preserves_counts_and_reduces_imbalance() {
        // §VII future-work extension: frequency-aware routing must change
        // *where* k-mers are counted, never *what* is counted.
        let reads = Dataset::new(DatasetId::CElegans40x, ScalePreset::Tiny).generate();
        let mut rc = RunConfig::new(Mode::GpuSupermer, 4);
        rc.collect_tables = true;
        let hashed = run_gpu_supermer_typed::<u64>(&reads, &rc).unwrap();
        rc.balanced_minimizers = true;
        rc.balance_sample_fraction = 0.25;
        let balanced = run_gpu_supermer_typed::<u64>(&reads, &rc).unwrap();
        assert_eq!(balanced.total_kmers, hashed.total_kmers);
        assert_eq!(balanced.distinct_kmers, hashed.distinct_kmers);
        crate::verify::check_against_reference(
            &reads,
            &rc.counting,
            balanced.tables.as_ref().unwrap(),
        )
        .unwrap();
        assert!(
            balanced.load.imbalance() < hashed.load.imbalance(),
            "balanced {} should beat hashed {}",
            balanced.load.imbalance(),
            hashed.load.imbalance()
        );
        // The pre-pass costs parse time.
        assert!(balanced.phases.parse > hashed.phases.parse);
    }
}
