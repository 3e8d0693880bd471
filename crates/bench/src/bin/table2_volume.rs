//! Regenerates Table II: total number of k-mers and supermers exchanged
//! per dataset, for minimizer lengths 9 and 7 (or only `--m`), plus the
//! §IV-D model's view of the same reduction.
//!
//! Usage: `cargo run --release -p dedukt-bench --bin table2_volume
//!         [--scale ...] [--nodes N]`

use dedukt_bench::paper::table2_counts;
use dedukt_bench::printer::fmt_count;
use dedukt_bench::runner::{minimizer_lens, run_mode_with_m};
use dedukt_bench::{generate, print_header, run_mode, ExperimentArgs, Table};
use dedukt_core::model::avg_supermer_len;
use dedukt_core::Mode;
use dedukt_dna::DatasetId;

fn main() {
    let args = ExperimentArgs::parse();
    let nodes = args.nodes.unwrap_or(1);
    print_header(
        "Table II — k-mers and supermers exchanged",
        &format!(
            "synthetic datasets at scale {:?}, {nodes} node(s); paper counts for reference",
            args.scale
        ),
    );

    // The reduction columns compare against the last minimizer length.
    let ms = minimizer_lens(&args, &[9, 7]);
    let last = ms[ms.len() - 1];
    let mut headers = vec!["dataset".to_string(), "kmers".to_string()];
    headers.extend(ms.iter().map(|m| format!("supermers m={m}")));
    headers.extend([
        format!("reduction m={last}"),
        "paper reduction m=7".to_string(),
        format!("avg supermer len m={last}"),
    ]);
    let mut t = Table::new(headers);
    for id in DatasetId::ALL {
        let reads = generate(id, &args);
        let kmer = run_mode(&reads, Mode::GpuKmer, nodes, &args);
        let sms: Vec<_> = ms
            .iter()
            .map(|&m| run_mode_with_m(&reads, Mode::GpuSupermer, nodes, m, &args))
            .collect();
        let sm = &sms[sms.len() - 1];
        let (pk, _ps9, ps7) = table2_counts(id);
        // Byte-level reduction: 8 B per k-mer vs 9 B per supermer.
        let reduction = kmer.exchange.bytes as f64 / sm.exchange.bytes as f64;
        let paper_reduction = (pk * 8) as f64 / (ps7 * 9) as f64;
        let s_avg = avg_supermer_len(
            kmer.exchange.units as f64,
            sm.exchange.units as f64,
            args.template.counting.k as f64,
        );
        let mut row = vec![id.short_name().to_string(), fmt_count(kmer.exchange.units)];
        row.extend(sms.iter().map(|r| fmt_count(r.exchange.units)));
        row.extend([
            format!("{reduction:.2}x"),
            format!("{paper_reduction:.2}x"),
            format!("{s_avg:.1}"),
        ]);
        t.row(row);
    }
    t.print();
    println!();
    println!(
        "paper counts (k-mers / m=9 / m=7): E. coli 412M/126M/108M … H. sapiens 167B/59B/50B.\n\
         shape checks: m=7 yields fewer, longer supermers than m=9; byte reduction ≈ 3-4x."
    );
}
