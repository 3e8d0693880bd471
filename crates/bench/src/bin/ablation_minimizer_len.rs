//! Ablation: minimizer length m (§V-D).
//!
//! "Using a smaller minimizer length creates an opportunity to have
//! longer but fewer supermers. Though this directly reduces the
//! communication volume, it often increases work load imbalance." This
//! sweep quantifies that trade-off across m (or runs only `--m`).
//!
//! Usage: `cargo run --release -p dedukt-bench --bin ablation_minimizer_len
//!         [--scale ...] [--nodes N]`

use dedukt_bench::runner::{minimizer_lens, run_mode_with_m};
use dedukt_bench::{generate, print_header, ExperimentArgs, Table};
use dedukt_core::model::avg_supermer_len;
use dedukt_core::Mode;
use dedukt_dna::DatasetId;

fn main() {
    let args = ExperimentArgs::parse();
    let nodes = args.nodes.unwrap_or(16);
    let id = DatasetId::CElegans40x;
    let reads = generate(id, &args);
    let k = args.template.counting.k;
    print_header(
        "Ablation — minimizer length vs volume and imbalance (§V-D)",
        &format!(
            "{}, {nodes} nodes, GPU supermer counter, k={k}",
            id.short_name()
        ),
    );

    let total_kmers = reads.total_kmers(k) as u64;
    let mut t = Table::new([
        "m",
        "supermers",
        "avg len",
        "wire bytes",
        "reduction vs kmers",
        "alltoallv",
        "load imbalance",
    ]);
    for m in minimizer_lens(&args, &[5, 7, 9, 11, 13]) {
        let r = run_mode_with_m(&reads, Mode::GpuSupermer, nodes, m, &args);
        let s = avg_supermer_len(total_kmers as f64, r.exchange.units as f64, k as f64);
        t.row([
            format!("{m}"),
            format!("{}", r.exchange.units),
            format!("{s:.1}"),
            format!("{}", r.exchange.bytes),
            format!("{:.2}x", (total_kmers * 8) as f64 / r.exchange.bytes as f64),
            format!("{}", r.exchange.alltoallv_time),
            format!("{:.2}", r.load.imbalance()),
        ]);
    }
    t.print();
    println!();
    println!(
        "paper's trade-off (§V-D): smaller m → longer, fewer supermers (more volume\n\
         reduction) but coarser minimizer buckets (worse imbalance)."
    );
}
