//! Regenerates Fig. 8: speedup of the MPI_Alltoallv routine using
//! supermers (m=7 and m=9) relative to k-mers.
//!
//! Fig. 8a: 16 nodes (96 GPUs), small datasets; Fig. 8b: 64 nodes
//! (384 GPUs), all datasets — up to 3× for H. sapiens.
//!
//! Usage: `cargo run --release -p dedukt-bench --bin fig8_alltoallv
//!         [--nodes 16|64] [--scale ...]`

use dedukt_bench::runner::{minimizer_lens, run_mode_with_m};
use dedukt_bench::{generate, print_header, run_mode, ExperimentArgs, Table};
use dedukt_core::Mode;
use dedukt_dna::DatasetId;

fn main() {
    let args = ExperimentArgs::parse();
    let nodes = args.nodes.unwrap_or(16);
    let datasets: &[DatasetId] = if nodes >= 64 {
        &DatasetId::ALL
    } else {
        &DatasetId::SMALL
    };
    print_header(
        &format!(
            "Fig. 8{} — Alltoallv speedup of supermers over k-mers",
            if nodes >= 64 { 'b' } else { 'a' }
        ),
        &format!(
            "{nodes} nodes, {} GPU ranks; wire times are simulated",
            nodes * 6
        ),
    );

    let ms = minimizer_lens(&args, &[7, 9]);
    let mut headers = vec!["dataset".to_string(), "kmer alltoallv".to_string()];
    headers.extend(ms.iter().map(|m| format!("m={m} alltoallv")));
    headers.extend(ms.iter().map(|m| format!("speedup m={m}")));
    let mut t = Table::new(headers);
    for &id in datasets {
        let reads = generate(id, &args);
        let kmer = run_mode(&reads, Mode::GpuKmer, nodes, &args);
        let wire: Vec<_> = ms
            .iter()
            .map(|&m| {
                run_mode_with_m(&reads, Mode::GpuSupermer, nodes, m, &args)
                    .exchange
                    .alltoallv_time
            })
            .collect();
        let mut row = vec![
            id.short_name().to_string(),
            format!("{}", kmer.exchange.alltoallv_time),
        ];
        row.extend(wire.iter().map(|w| format!("{w}")));
        row.extend(
            wire.iter()
                .map(|&w| format!("{:.2}x", kmer.exchange.alltoallv_time / w)),
        );
        t.row(row);
    }
    t.print();
    println!();
    println!("paper: up to 3x (H. sapiens, 64 nodes, m=7); m=7 ≥ m=9 everywhere.");
}
