//! Ablation: k-mer length, narrow (u64) vs wide (u128) packing.
//!
//! The paper fixes k = 17; this extension sweeps k across the packing
//! boundary (k ≤ 63) through the one width-generic driver: every k runs
//! all three engines — CPU baseline, GPU k-mer, GPU supermer — and the
//! engines must agree exactly. Wire bytes are exact per width (8-byte
//! keys narrow, 16 wide; +1 length byte per supermer), and the supermer
//! advantage grows with k because each extra supermer base amortizes a
//! whole extra k-mer payload. `--k` runs only that k, and `--m` sets
//! every row's minimizer length.
//!
//! Usage: `cargo run --release -p dedukt-bench --bin ablation_wide_k
//!         [--scale ...] [--nodes N]`

use dedukt_bench::runner::run_typed;
use dedukt_bench::{generate, print_header, ExperimentArgs, Table};
use dedukt_core::{Mode, PackedKmer, RunConfig};
use dedukt_dna::{DatasetId, ReadSet};

struct SweepRow {
    kmers: u64,
    kmer_bytes: u64,
    supermers: u64,
    supermer_bytes: u64,
}

/// Runs all three engines at key width `K` on the config `rc` (whose
/// mode is replaced) and returns the exchange volumes (k-mer engines vs
/// supermer engine). Panics if the engines disagree on any count.
fn sweep<K: PackedKmer>(reads: &ReadSet, mut rc: RunConfig) -> SweepRow {
    let k = rc.counting.k;
    rc.mode = Mode::CpuBaseline;
    let cpu = run_typed::<K>(reads, &rc);
    rc.mode = Mode::GpuKmer;
    let km = run_typed::<K>(reads, &rc);
    rc.mode = Mode::GpuSupermer;
    let sm = run_typed::<K>(reads, &rc);
    assert_eq!(
        cpu.total_kmers, km.total_kmers,
        "engines must agree at k={k}"
    );
    assert_eq!(
        km.total_kmers, sm.total_kmers,
        "engines must agree at k={k}"
    );
    assert_eq!(
        cpu.distinct_kmers, sm.distinct_kmers,
        "engines must agree at k={k}"
    );
    // Wire accounting must be width-honest to the byte.
    assert_eq!(km.exchange.bytes, km.exchange.units * K::KMER_WIRE_BYTES);
    assert_eq!(
        sm.exchange.bytes,
        sm.exchange.units * K::SUPERMER_WIRE_BYTES
    );
    SweepRow {
        kmers: km.exchange.units,
        kmer_bytes: km.exchange.bytes,
        supermers: sm.exchange.units,
        supermer_bytes: sm.exchange.bytes,
    }
}

fn main() {
    let args = ExperimentArgs::parse();
    let nodes = args.nodes.unwrap_or(1);
    let reads = generate(DatasetId::EColi30x, &args);
    print_header(
        "Ablation — k-mer length across the narrow/wide packing boundary",
        &format!("E. coli 30X, {nodes} node(s), all three engines per k; wire bytes are exact"),
    );

    let mut t = Table::new([
        "k",
        "packing",
        "key B",
        "smer B",
        "kmers",
        "kmer bytes",
        "supermers",
        "supermer bytes",
        "reduction",
    ]);

    // `--k` runs only that k; `--m` replaces each row's minimizer length.
    let rows = args.given(|rc| rc.counting.k).map_or_else(
        || vec![(17, 7), (31, 7), (33, 9), (41, 11), (55, 13), (63, 15)],
        |k| vec![(k, args.template.counting.m)],
    );
    for (k, m) in rows {
        let wide = k > u64::MAX_COUNTING_K;
        let mut rc = args.config(Mode::CpuBaseline, nodes);
        rc.counting.set_k(k);
        rc.counting.m = args.given(|rc| rc.counting.m).unwrap_or(m);
        let row = if wide {
            sweep::<u128>(&reads, rc)
        } else {
            sweep::<u64>(&reads, rc)
        };
        let (key_b, smer_b) = if wide {
            (u128::KMER_WIRE_BYTES, u128::SUPERMER_WIRE_BYTES)
        } else {
            (u64::KMER_WIRE_BYTES, u64::SUPERMER_WIRE_BYTES)
        };
        t.row([
            format!("{k}"),
            if wide { "u128" } else { "u64" }.to_string(),
            format!("{key_b}"),
            format!("{smer_b}"),
            format!("{}", row.kmers),
            format!("{}", row.kmer_bytes),
            format!("{}", row.supermers),
            format!("{}", row.supermer_bytes),
            format!("{:.2}x", row.kmer_bytes as f64 / row.supermer_bytes as f64),
        ]);
    }
    t.print();
    println!();
    println!(
        "note: the window (15 by default) shrinks as k approaches the packing bound\n\
         (33 − k narrow, 65 − k wide), capping supermer length at one packed word;\n\
         the reduction factor still grows with k because each supermer base\n\
         amortizes a full key-width k-mer payload."
    );
}
