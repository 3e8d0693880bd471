//! Regenerates Fig. 7: runtime breakdown of the GPU k-mer counter vs the
//! supermer counters (m=7, m=9, or only `--m`) on 64 nodes (384 GPUs).
//!
//! Fig. 7a: C. elegans 40X; Fig. 7b: H. sapiens 54X. The paper's shape:
//! supermers cost ~27-33% more parse time and ~23-27% more count time but
//! cut the exchange by ~33%, for a net win because the exchange dominates.
//!
//! Usage: `cargo run --release -p dedukt-bench --bin fig7_breakdown
//!         [--scale ...] [--nodes N]`

use dedukt_bench::runner::{minimizer_lens, run_mode_with_m};
use dedukt_bench::{generate, print_header, run_mode, ExperimentArgs, Table};
use dedukt_core::{Mode, RunReport};
use dedukt_dna::DatasetId;
use dedukt_sim::SimTime;

/// One breakdown bar of a run.
type Bar = fn(&RunReport) -> SimTime;

fn main() {
    let args = ExperimentArgs::parse();
    let nodes = args.nodes.unwrap_or(64);
    for (sub, id) in [('a', DatasetId::CElegans40x), ('b', DatasetId::HSapiens54x)] {
        print_header(
            &format!(
                "Fig. 7{sub} — GPU k-mer vs supermer breakdown: {}",
                id.short_name()
            ),
            &format!(
                "{nodes} nodes, {} GPU ranks; times are simulated",
                nodes * 6
            ),
        );
        let reads = generate(id, &args);
        let kmer = run_mode(&reads, Mode::GpuKmer, nodes, &args);
        let ms = minimizer_lens(&args, &[7, 9]);
        let sms: Vec<_> = ms
            .iter()
            .map(|&m| run_mode_with_m(&reads, Mode::GpuSupermer, nodes, m, &args))
            .collect();

        let mut headers = vec!["module".to_string(), "kmer".to_string()];
        headers.extend(ms.iter().map(|m| format!("supermer (m={m})")));
        let mut t = Table::new(headers);
        let phases: [(&str, Bar); 4] = [
            ("parse & process kmers", |r| r.phases.parse),
            ("exchange (incl. MPI_alltoallv)", |r| r.phases.exchange),
            ("kmer counter", |r| r.phases.count),
            ("TOTAL", |r| r.total_time()),
        ];
        for (module, time) in phases {
            let mut row = vec![module.to_string(), format!("{}", time(&kmer))];
            row.extend(sms.iter().map(|r| format!("{}", time(r))));
            t.row(row);
        }
        t.print();
        println!();
        let (m, sm) = (ms[0], &sms[0]);
        println!(
            "parse overhead m={m}: {:+.0}%   (paper m=7: +27-33%)",
            (sm.phases.parse / kmer.phases.parse - 1.0) * 100.0
        );
        println!(
            "count overhead m={m}: {:+.0}%   (paper m=7: +23-27%)",
            (sm.phases.count / kmer.phases.count - 1.0) * 100.0
        );
        println!(
            "exchange speedup m={m}: {:.2}x   (paper m=7: ~1.5x incl. staging)",
            kmer.phases.exchange / sm.phases.exchange
        );
        println!(
            "overall speedup m={m} over kmer: {:.2}x",
            kmer.total_time() / sm.total_time()
        );
    }
}
