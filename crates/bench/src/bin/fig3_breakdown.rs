//! Regenerates Fig. 3: runtime breakdown of the CPU- and GPU-based k-mer
//! counters on 64 nodes for the H. sapiens 54X dataset.
//!
//! The paper's observation: with GPU acceleration the compute modules
//! shrink by ~two orders of magnitude while the k-mer exchange stays
//! roughly the same, turning the problem communication-bound.
//!
//! Usage: `cargo run --release -p dedukt-bench --bin fig3_breakdown
//!         [--scale tiny|bench|xF] [--nodes N]`

use dedukt_bench::runner::run;
use dedukt_bench::{generate, print_header, run_mode, ExperimentArgs, Table};
use dedukt_core::Mode;
use dedukt_dna::DatasetId;

fn main() {
    let args = ExperimentArgs::parse();
    let nodes = args.nodes.unwrap_or(64);
    print_header(
        "Fig. 3 — runtime breakdown, CPU vs GPU k-mer counter",
        &format!("dataset: H. sapiens 54X (synthetic), {nodes} nodes; times are simulated"),
    );

    let reads = generate(DatasetId::HSapiens54x, &args);
    let cpu = run_mode(&reads, Mode::CpuBaseline, nodes, &args);
    let gpu = run_mode(&reads, Mode::GpuKmer, nodes, &args);

    let mut t = Table::new([
        "module",
        &format!("CPU ({} ranks)", cpu.nranks),
        &format!("GPU ({} ranks)", gpu.nranks),
    ]);
    t.row([
        "parse & process kmers".to_string(),
        format!("{}", cpu.phases.parse),
        format!("{}", gpu.phases.parse),
    ]);
    t.row([
        "exchange (incl. MPI call)".to_string(),
        format!("{}", cpu.phases.exchange),
        format!("{}", gpu.phases.exchange),
    ]);
    t.row([
        "kmer counter".to_string(),
        format!("{}", cpu.phases.count),
        format!("{}", gpu.phases.count),
    ]);
    t.row([
        "TOTAL (excl. I/O)".to_string(),
        format!("{}", cpu.total_time()),
        format!("{}", gpu.total_time()),
    ]);
    t.print();

    let compute_speedup =
        (cpu.phases.parse + cpu.phases.count) / (gpu.phases.parse + gpu.phases.count);
    let exchange_ratio = cpu.phases.exchange / gpu.phases.exchange;
    println!();
    println!(
        "overall speedup (excl. I/O):   {:.0}x   (paper: ~100x, '50 minutes to 30 seconds')",
        cpu.total_time() / gpu.total_time()
    );
    println!("compute speedup (parse+count): {compute_speedup:.0}x   (paper: ~400-600x implied by Fig. 3)");
    println!("exchange CPU/GPU ratio:        {exchange_ratio:.2}   (paper: 'roughly the same')");
    println!(
        "GPU exchange fraction:         {:.0}%   (paper: exchange becomes the bottleneck, up to 80%)",
        gpu.phases.exchange_fraction() * 100.0
    );

    // With exchange dominant, memory-bounded rounds + double buffering hide
    // the count kernel behind the next round's wire time (max instead of sum).
    // `--round-limit` sets the cap; `--overlap-rounds` skips the blocking run.
    let cap = args
        .given(|rc| rc.round_limit_bytes)
        .flatten()
        .unwrap_or_else(|| (gpu.exchange.bytes / gpu.nranks as u64 / 4).max(1024));
    let run_rounds = |overlap: bool| {
        let mut rc = args.config(Mode::GpuKmer, nodes);
        rc.round_limit_bytes = Some(cap);
        rc.overlap_rounds = overlap;
        run(&reads, &rc)
    };
    let overlapped = run_rounds(true);
    println!();
    println!(
        "with a {cap} B per-round cap ({} rounds):",
        overlapped.exchange.rounds
    );
    if args.given(|rc| rc.overlap_rounds).is_some() {
        println!(
            "  GPU total, overlapped (--overlap-rounds): {}",
            overlapped.total_time()
        );
        return;
    }
    let blocking = run_rounds(false);
    println!(
        "  GPU total, blocking rounds:  {}   overlapped (--overlap-rounds): {}",
        blocking.total_time(),
        overlapped.total_time()
    );
    println!(
        "  overlap hides count behind wire, saving {} ({:.0}% of the count bar)",
        blocking.total_time() - overlapped.total_time(),
        if blocking.phases.count.is_zero() {
            0.0
        } else {
            (blocking.total_time() - overlapped.total_time()) / blocking.phases.count * 100.0
        }
    );
}
