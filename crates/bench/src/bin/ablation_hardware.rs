//! Ablation: would newer GPUs help? (V100 vs A100.)
//!
//! The paper's conclusion is that GPU acceleration turns k-mer counting
//! communication-bound (§VII). This ablation makes that concrete: swap
//! the simulated V100s for A100s (1.25× instruction rate, 1.7× HBM,
//! 2× NVLink) and observe that the compute bars shrink while the
//! exchange — set by the *network* — does not, so end-to-end gains are
//! marginal. Faster GPUs cannot fix a communication-bound pipeline.
//! `--device-hbm` sets both devices' memory budget.
//!
//! Usage: `cargo run --release -p dedukt-bench --bin ablation_hardware
//!         [--scale ...] [--nodes N]`

use dedukt_bench::runner::run;
use dedukt_bench::{generate, print_header, ExperimentArgs, Table};
use dedukt_core::Mode;
use dedukt_dna::DatasetId;
use dedukt_gpu::DeviceConfig;

fn main() {
    let args = ExperimentArgs::parse();
    let nodes = args.nodes.unwrap_or(16);
    let reads = generate(DatasetId::CElegans40x, &args);
    print_header(
        "Ablation — simulated GPU generation (V100 vs A100)",
        &format!("C. elegans 40X, {nodes} nodes, GPU supermer counter"),
    );

    let mut t = Table::new(["device", "parse", "exchange", "count", "total", "vs V100"]);
    let mut baseline_total = None;
    let hbm = args.given(|rc| rc.gpu_device.memory_bytes);
    for mut device in [DeviceConfig::v100(), DeviceConfig::a100()] {
        device.memory_bytes = hbm.unwrap_or(device.memory_bytes);
        let mut rc = args.config(Mode::GpuSupermer, nodes);
        rc.gpu_device = device.clone();
        let r = run(&reads, &rc);
        let total = r.total_time();
        let speedup = baseline_total
            .map(|b: dedukt_sim::SimTime| format!("{:.2}x", b / total))
            .unwrap_or_else(|| "1.00x".into());
        if baseline_total.is_none() {
            baseline_total = Some(total);
        }
        t.row([
            device.name.clone(),
            format!("{}", r.phases.parse),
            format!("{}", r.phases.exchange),
            format!("{}", r.phases.count),
            format!("{total}"),
            speedup,
        ]);
    }
    t.print();
    println!();
    println!(
        "expected shape: compute bars shrink with the newer device; the exchange bar is\n\
         network-bound and barely moves, so the end-to-end win is small — the paper's\n\
         'communication is the bottleneck' conclusion, quantified."
    );
}
