//! Per-layer probes. Each one times calls into one crate's public
//! functions on the workload's own input and routing, after a traced run
//! and outside its timed interval; nothing inside the program is
//! instrumented.

use dedukt::core::partition::{key_owner, minimizer_owner};
use dedukt::core::pipeline::gpu_common::chunked_launch;
use dedukt::core::pipeline::two_pass::plan_bins;
use dedukt::core::supermer::build_supermers_windowed_w;
use dedukt::core::{HostCountTable, Mode, RunConfig};
use dedukt::dna::kmer::kmer_words_w;
use dedukt::dna::packed::ConcatReads;
use dedukt::dna::ReadSet;
use dedukt::gpu::Device;
use dedukt::hash::Murmur3x64;
use dedukt::net::cost::Network;
use dedukt::net::BspWorld;
use dedukt::store::BinStore;
use rayon::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// k-mer words per timed hash and minimizer batch.
const BATCH: usize = 1 << 20;

/// Shortest time the launch probe repeats its rank loop for.
const LAUNCH_PROBE_SECS: f64 = 0.2;

/// Bytes of one out-of-core count-table slot at the `u64` key width: the
/// key plus a `u32` count, as the two-pass pipeline sizes its bins.
const SLOT_BYTES: u64 = 8 + 4;

/// One per-layer metric value, by name.
pub type Metric = (&'static str, f64);

/// Runs every probe on `reads` under `rc`; `scratch` holds the probe's
/// bin store while it runs.
pub fn probe(rc: &RunConfig, reads: &ReadSet, scratch: &Path) -> Result<Vec<Metric>, String> {
    let cfg = &rc.counting;
    let nranks = rc.mode.ranks_per_node() * rc.nodes;
    let instances = reads.total_kmers(cfg.k) as u64;
    let nbins = plan_bins(
        instances,
        nranks,
        rc.table_safety,
        cfg.table_load_factor,
        rc.gpu_device.memory_bytes,
        SLOT_BYTES,
    );
    // The table probe fills one count table with the heaviest share of
    // the unit the run counts per table: a bin out-of-core, else a rank.
    let units = if rc.two_pass_dir.is_some() {
        nbins
    } else {
        nranks
    };
    let mut out = vec![("dna.pack_mbases_per_s", pack(rc, reads))];
    out.extend(kmer_layers(rc, reads, units)?);
    out.extend(supermer_build(rc, reads));
    out.push(("gpu.launch_us", launch_us(nranks, instances)));
    let routed = route(rc, reads, nranks, nbins);
    out.extend(alltoallv(rc, routed.send, routed.items)?);
    out.extend(store(&routed.bins, scratch)?);
    Ok(out)
}

fn mega_per_s(items: f64, secs: f64) -> f64 {
    items / secs / 1e6
}

/// `dna`: 2-bit packing of every read into the device layout.
fn pack(rc: &RunConfig, reads: &ReadSet) -> f64 {
    let t = Instant::now();
    let concat = ConcatReads::from_reads(
        reads.reads.iter().map(|r| &r.codes[..]),
        rc.counting.encoding,
    );
    let secs = t.elapsed().as_secs_f64();
    mega_per_s(black_box(concat).num_bases() as f64, secs)
}

/// `hash` and `core`: MurmurHash3 and the minimizer scan over every
/// k-mer word, then a host count table filled with the heaviest unit's
/// share of the k-mers.
fn kmer_layers(rc: &RunConfig, reads: &ReadSet, units: usize) -> Result<Vec<Metric>, String> {
    let cfg = &rc.counting;
    let hasher = Murmur3x64::new(cfg.hash_seed);
    let scheme = cfg.minimizer_scheme();
    let mut words: Vec<u64> = Vec::with_capacity(BATCH);
    let mut minimizers: Vec<u64> = Vec::with_capacity(BATCH);
    let mut owners: Vec<u32> = Vec::with_capacity(reads.total_kmers(cfg.k));
    let (mut hash_secs, mut minimizer_secs, mut sink) = (0.0, 0.0, 0u64);
    let mut batch = |words: &mut Vec<u64>| {
        let t = Instant::now();
        for &w in words.iter() {
            sink ^= hasher.hash_u64(w);
        }
        hash_secs += t.elapsed().as_secs_f64();
        let t = Instant::now();
        minimizers.clear();
        minimizers.extend(words.iter().map(|&w| scheme.minimizer_of_w(w, cfg.k).word));
        minimizer_secs += t.elapsed().as_secs_f64();
        owners.extend(words.iter().zip(&minimizers).map(|(&w, &mz)| {
            let owner = match rc.mode {
                Mode::GpuSupermer => minimizer_owner(&hasher, mz, units),
                Mode::CpuBaseline | Mode::GpuKmer => key_owner(&hasher, w, units),
            };
            owner as u32
        }));
        words.clear();
    };
    for read in &reads.reads {
        words.extend(kmer_words_w::<u64>(&read.codes, cfg.k, cfg.encoding));
        if words.len() >= BATCH {
            batch(&mut words);
        }
    }
    batch(&mut words);
    black_box(sink);
    let kmers = owners.len() as f64;

    let mut loads = vec![0u64; units];
    for &o in &owners {
        loads[o as usize] += 1;
    }
    let heaviest = (0..units).max_by_key(|&u| loads[u]).unwrap_or(0) as u32;
    let all_words = reads
        .reads
        .iter()
        .flat_map(|r| kmer_words_w::<u64>(&r.codes, cfg.k, cfg.encoding));
    let share: Vec<u64> = all_words
        .zip(&owners)
        .filter(|&(_, &o)| o == heaviest)
        .map(|(w, _)| w)
        .collect();
    drop(owners);
    let t = Instant::now();
    let mut table =
        HostCountTable::<u64>::with_expected(share.len(), cfg.table_load_factor, cfg.hash_seed);
    for &w in &share {
        table.insert(w);
    }
    let table_secs = t.elapsed().as_secs_f64();
    if table.total() != share.len() as u64 {
        return Err(format!(
            "table probe: {} inserts left a total of {}",
            share.len(),
            table.total()
        ));
    }
    let inserts = share.len().max(1) as f64;
    Ok(vec![
        ("hash.murmur3_mkeys_per_s", mega_per_s(kmers, hash_secs)),
        (
            "core.minimizer_mkmers_per_s",
            mega_per_s(kmers, minimizer_secs),
        ),
        (
            "core.table_insert_mkmers_per_s",
            mega_per_s(inserts, table_secs),
        ),
        (
            "core.table_probes_per_insert",
            (inserts + table.probe_steps() as f64) / inserts,
        ),
    ])
}

/// `core`: windowed supermer construction (Algorithm 2) over every read.
fn supermer_build(rc: &RunConfig, reads: &ReadSet) -> Vec<Metric> {
    let cfg = &rc.counting;
    let scheme = cfg.minimizer_scheme();
    let t = Instant::now();
    let mut supermers = 0usize;
    for read in &reads.reads {
        let built = build_supermers_windowed_w::<u64>(&read.codes, cfg.k, cfg.window, &scheme);
        supermers += black_box(built).len();
    }
    let secs = t.elapsed().as_secs_f64();
    vec![
        (
            "core.supermer_build_mkmers_per_s",
            mega_per_s(reads.total_kmers(cfg.k) as f64, secs),
        ),
        ("core.supermers", supermers as f64),
    ]
}

/// `gpu`: microseconds per no-op kernel launch covering one rank's even
/// share of the instances, issued per rank inside a parallel rank loop
/// as the staged pipeline nests them.
fn launch_us(nranks: usize, instances: u64) -> f64 {
    let device = Device::v100();
    let cfg = chunked_launch(instances.div_ceil(nranks as u64) as usize);
    let t = Instant::now();
    let mut launches = 0usize;
    while launches == 0 || t.elapsed().as_secs_f64() < LAUNCH_PROBE_SECS {
        let times: Vec<f64> = (0..nranks)
            .into_par_iter()
            .map(|_| device.launch("noop", cfg, |_| {}).time.as_secs())
            .collect();
        black_box(times);
        launches += nranks;
    }
    t.elapsed().as_secs_f64() / launches as f64 * 1e6
}

/// The workload's items routed as the run routes them: `send[src][dst]`
/// for the exchange and one record payload per out-of-core bin.
struct Routed {
    send: Vec<Vec<Vec<u64>>>,
    items: u64,
    bins: Vec<Vec<u8>>,
}

/// Splits the reads over the ranks as `run_typed` does and buckets each
/// rank's items by owner: k-mers by k-mer hash, supermers by minimizer
/// hash. Bin records use the two-pass pipeline's layout (the packed word,
/// plus a length byte for a supermer).
fn route(rc: &RunConfig, reads: &ReadSet, nranks: usize, nbins: usize) -> Routed {
    let cfg = &rc.counting;
    let hasher = Murmur3x64::new(cfg.hash_seed);
    let scheme = cfg.minimizer_scheme();
    let mut send: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); nranks]; nranks];
    let mut bins: Vec<Vec<u8>> = vec![Vec::new(); nbins];
    let mut items = 0u64;
    for (src, part) in reads.partition_by_bases(nranks).iter().enumerate() {
        for read in &part.reads {
            match rc.mode {
                Mode::GpuSupermer => {
                    for s in
                        build_supermers_windowed_w::<u64>(&read.codes, cfg.k, cfg.window, &scheme)
                    {
                        send[src][minimizer_owner(&hasher, s.minimizer, nranks)].push(s.word);
                        let bin = &mut bins[minimizer_owner(&hasher, s.minimizer, nbins)];
                        bin.extend_from_slice(&s.word.to_le_bytes());
                        bin.push(s.len);
                        items += 1;
                    }
                }
                Mode::CpuBaseline | Mode::GpuKmer => {
                    for w in kmer_words_w::<u64>(&read.codes, cfg.k, cfg.encoding) {
                        send[src][key_owner(&hasher, w, nranks)].push(w);
                        bins[key_owner(&hasher, w, nbins)].extend_from_slice(&w.to_le_bytes());
                        items += 1;
                    }
                }
            }
        }
    }
    Routed { send, items, bins }
}

/// `net`: one Alltoallv of the routed words at the workload's rank
/// count.
fn alltoallv(rc: &RunConfig, send: Vec<Vec<Vec<u64>>>, items: u64) -> Result<Vec<Metric>, String> {
    let net = match rc.mode {
        Mode::CpuBaseline => Network::summit_cpu(rc.nodes),
        Mode::GpuKmer | Mode::GpuSupermer => Network::summit_gpu(rc.nodes),
    };
    let mut world = BspWorld::new(net);
    let t = Instant::now();
    let outcome = world.alltoallv(send);
    let secs = t.elapsed().as_secs_f64();
    let received: u64 = outcome.recv.iter().flatten().map(|b| b.len() as u64).sum();
    if received != items {
        return Err(format!(
            "alltoallv probe: sent {items} words, received {received}"
        ));
    }
    let bytes = (items * std::mem::size_of::<u64>() as u64) as f64;
    Ok(vec![
        ("net.alltoallv_s", secs),
        ("net.alltoallv_mb_per_s", mega_per_s(bytes, secs)),
    ])
}

/// `store`: writes every bin to a fresh bin store, then reads each back
/// and checks its bytes. Files stay in the page cache, so this times
/// framing, checksums and copies, not the drive.
fn store(bins: &[Vec<u8>], scratch: &Path) -> Result<Vec<Metric>, String> {
    let dir = scratch.join("probe-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = BinStore::create(&dir)?;
    let t = Instant::now();
    let mut written = 0u64;
    for (bin, payload) in bins.iter().enumerate() {
        written += store
            .write_bin(bin as u32, 0, std::slice::from_ref(payload), None)?
            .physical_bytes;
    }
    let write_secs = t.elapsed().as_secs_f64();
    let mut read_secs = 0.0;
    for (bin, payload) in bins.iter().enumerate() {
        let t = Instant::now();
        let back = store
            .read_bin(bin as u32, 0, 1)
            .map_err(|e| e.to_string())?;
        read_secs += t.elapsed().as_secs_f64();
        if back[0] != *payload {
            return Err(format!("store probe: bin {bin} read back different bytes"));
        }
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(vec![
        (
            "store.write_mb_per_s",
            mega_per_s(written as f64, write_secs),
        ),
        ("store.read_mb_per_s", mega_per_s(written as f64, read_secs)),
        ("store.bins", bins.len() as f64),
        ("store.bytes_written", written as f64),
    ])
}
