//! Ablation: memory-bounded multi-round exchange (§III-A).
//!
//! "Depending on the total size of the input, relative to software limits
//! (approximating available memory), the computation and communication may
//! proceed in multiple rounds." This sweep caps the per-rank, per-round
//! payload and shows the cost of the extra collective latency — and how
//! double-buffered overlap (`--overlap-rounds`) wins most of it back by
//! hiding each round's count kernel behind the next round's wire time.
//! Result identity across caps and overlap modes is asserted in
//! `tests/rounds_invariants.rs`. `--round-limit` runs only that cap,
//! and `--overlap-rounds` only the overlapped column.
//!
//! Usage: `cargo run --release -p dedukt-bench --bin ablation_rounds
//!         [--scale ...] [--nodes N]`

use dedukt_bench::runner::run;
use dedukt_bench::{generate, print_header, ExperimentArgs, Table};
use dedukt_core::{Mode, RunConfig, RunReport};
use dedukt_dna::{DatasetId, ReadSet};
use dedukt_sim::SimTime;

fn run_capped(reads: &ReadSet, template: &RunConfig, cap: Option<u64>, overlap: bool) -> RunReport {
    let mut rc = template.clone();
    rc.round_limit_bytes = cap;
    rc.overlap_rounds = overlap;
    run(reads, &rc)
}

fn main() {
    let args = ExperimentArgs::parse();
    let nodes = args.nodes.unwrap_or(4);
    let reads = generate(DatasetId::EColi30x, &args);
    print_header(
        "Ablation — exchange rounds under per-round memory caps",
        &format!("E. coli 30X, {nodes} nodes, GPU k-mer counter"),
    );

    let rc = args.config(Mode::GpuKmer, nodes);
    let overlaps = args
        .given(|rc| rc.overlap_rounds)
        .map_or_else(|| vec![false, true], |o| vec![o]);

    let mut t = Table::new([
        "per-round cap",
        "rounds",
        "alltoallv (wire)",
        "blocking total",
        "overlap total",
        "overlap saves",
    ]);
    let caps = match args.given(|rc| rc.round_limit_bytes).flatten() {
        Some(cap) => vec![cap],
        None => {
            let unlimited = run_capped(&reads, &rc, None, rc.overlap_rounds);
            t.row([
                "unlimited".to_string(),
                format!("{}", unlimited.exchange.rounds),
                format!("{}", unlimited.exchange.alltoallv_time),
                format!("{}", unlimited.total_time()),
                "-".to_string(),
                "-".to_string(),
            ]);
            let out_bytes_per_rank = unlimited.exchange.bytes / rc.nranks() as u64;
            [2u64, 4, 16, 64]
                .map(|divisor| (out_bytes_per_rank / divisor).max(1024))
                .to_vec()
        }
    };
    let mut best_saving = SimTime::ZERO;
    for cap in caps {
        // [blocking, overlapped]; a lane a flag ruled out stays empty.
        let runs = [false, true].map(|overlap| {
            overlaps
                .contains(&overlap)
                .then(|| run_capped(&reads, &rc, Some(cap), overlap))
        });
        let shown = runs.iter().flatten().next().expect("one lane runs");
        let total = |r: &Option<RunReport>| {
            r.as_ref()
                .map_or_else(|| "-".to_string(), |r| format!("{}", r.total_time()))
        };
        let saved = match &runs {
            [Some(b), Some(o)] => {
                let saved = b.total_time() - o.total_time();
                best_saving = best_saving.max(saved);
                format!("{saved}")
            }
            _ => "-".to_string(),
        };
        t.row([
            format!("{cap} B"),
            format!("{}", shown.exchange.rounds),
            format!("{}", shown.exchange.alltoallv_time),
            total(&runs[0]),
            total(&runs[1]),
            saved,
        ]);
    }
    t.print();
    println!();
    let recovered = match overlaps.len() {
        2 => format!("recovering up to {best_saving} here"),
        _ => "not compared here".to_string(),
    };
    println!(
        "the cost of memory-bounded operation is the extra per-round collective\n\
         latency; overlapping rounds charges max(wire, count) per round instead\n\
         of wire + count, {recovered}. counts are\n\
         bit-identical in every cell (asserted by tests/rounds_invariants.rs)."
    );
}
