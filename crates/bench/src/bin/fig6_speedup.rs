//! Regenerates Fig. 6: overall speedup (excl. I/O) of the GPU counters
//! over the CPU baseline.
//!
//! Fig. 6a: 16 nodes (96 GPUs vs 672 cores), four bacterial datasets.
//! Fig. 6b: 64 nodes (384 GPUs vs 2,688 cores), C. elegans + H. sapiens.
//! Pass `--nodes 16` or `--nodes 64` to pick the sub-figure (default 16).
//!
//! Usage: `cargo run --release -p dedukt-bench --bin fig6_speedup
//!         [--nodes 16|64] [--scale ...]`

use dedukt_bench::runner::{minimizer_lens, run_mode_with_m};
use dedukt_bench::{generate, print_header, run_mode, ExperimentArgs, Table};
use dedukt_core::Mode;
use dedukt_dna::DatasetId;

fn main() {
    let args = ExperimentArgs::parse();
    let nodes = args.nodes.unwrap_or(16);
    let datasets: &[DatasetId] = if nodes >= 64 {
        &DatasetId::LARGE
    } else {
        &DatasetId::SMALL
    };
    print_header(
        &format!(
            "Fig. 6{} — overall speedup over the CPU baseline",
            if nodes >= 64 { 'b' } else { 'a' }
        ),
        &format!(
            "{nodes} nodes: {} GPU ranks vs {} CPU ranks; times are simulated",
            nodes * 6,
            nodes * 42
        ),
    );

    let ms = minimizer_lens(&args, &[7, 9]);
    let mut headers = ["dataset", "CPU total", "GPU kmer total", "speedup kmer"]
        .map(String::from)
        .to_vec();
    headers.extend(ms.iter().map(|m| format!("speedup supermer m={m}")));
    let mut t = Table::new(headers);
    for &id in datasets {
        let reads = generate(id, &args);
        let cpu = run_mode(&reads, Mode::CpuBaseline, nodes, &args);
        let kmer = run_mode(&reads, Mode::GpuKmer, nodes, &args);
        let mut row = vec![
            id.short_name().to_string(),
            format!("{}", cpu.total_time()),
            format!("{}", kmer.total_time()),
            format!("{:.1}x", kmer.speedup_over(&cpu)),
        ];
        for &m in &ms {
            let sm = run_mode_with_m(&reads, Mode::GpuSupermer, nodes, m, &args);
            row.push(format!("{:.1}x", sm.speedup_over(&cpu)));
        }
        t.row(row);
    }
    t.print();
    println!();
    println!(
        "paper: ~11x (kmer) / ~13x (supermer) average on 16 nodes; up to 150x on H. sapiens at 64 nodes."
    );
    println!(
        "note: our simulated GPU kernels omit the paper's unmodelled constant overheads, so\n\
         small-dataset speedups come out higher; ordering and supermer>kmer shape are preserved\n\
         (see EXPERIMENTS.md)."
    );
}
