//! Dataset materialisation and pipeline invocation for the regenerators.

use dedukt_core::{CountingConfig, Mode, PackedKmer, RunConfig, RunReport};
use dedukt_dna::{Dataset, DatasetId, ReadSet};

use crate::args::ExperimentArgs;

/// Generates (or regenerates) a dataset under the experiment's flags.
pub fn generate(id: DatasetId, args: &ExperimentArgs) -> ReadSet {
    let mut ds = Dataset::new(id, args.scale);
    if let Some(seed) = args.seed {
        ds.seed = seed;
    }
    let reads = ds.generate();
    eprintln!(
        "  [data] {}: {} reads, {} bases, {} k-mers (k=17)",
        id.short_name(),
        reads.len(),
        reads.total_bases(),
        reads.total_kmers(17)
    );
    reads
}

/// Runs one configured row at key width `K`. A config that does not
/// validate, or a run that fails (an exhausted retry or spill budget),
/// prints the error and exits 2, as `dedukt count` does. Recovered
/// exchange retries are reported on stderr, so an armed fault plan is
/// visible in every figure.
pub fn run_typed<K: PackedKmer>(reads: &ReadSet, rc: &RunConfig) -> RunReport<K> {
    let report = dedukt_core::pipeline::run_typed::<K>(reads, rc).unwrap_or_else(|e| {
        eprintln!("error: {} run on {} nodes: {e}", rc.mode.label(), rc.nodes);
        std::process::exit(2)
    });
    if report.exchange.retries > 0 {
        eprintln!(
            "  [run] {} on {} nodes: {} exchange retries recovered",
            rc.mode.label(),
            rc.nodes,
            report.exchange.retries
        );
    }
    report
}

/// [`run_typed`] at the key width `rc`'s k needs: `u64` up to k = 31,
/// `u128` past it. Figures read only width-free fields, so a wide run's
/// report comes back without its per-rank tables.
pub fn run(reads: &ReadSet, rc: &RunConfig) -> RunReport {
    if rc.counting.k <= u64::MAX_COUNTING_K {
        return run_typed::<u64>(reads, rc);
    }
    let r = run_typed::<u128>(reads, rc);
    RunReport {
        mode: r.mode,
        nodes: r.nodes,
        nranks: r.nranks,
        phases: r.phases,
        makespan: r.makespan,
        exchange: r.exchange,
        load: r.load,
        total_kmers: r.total_kmers,
        distinct_kmers: r.distinct_kmers,
        spectrum: r.spectrum,
        tables: None,
        trace: r.trace,
        trace_counters: r.trace_counters,
        metrics: r.metrics,
        wall: r.wall,
        journal: r.journal,
    }
}

/// The minimizer lengths a figure compares: `paper`'s by default, or
/// only the one `--m` set.
pub fn minimizer_lens(args: &ExperimentArgs, paper: &[usize]) -> Vec<usize> {
    args.given(|rc| rc.counting.m)
        .map_or_else(|| paper.to_vec(), |m| vec![m])
}

/// Runs `mode` on `nodes` nodes from the experiment's template.
pub fn run_mode(reads: &ReadSet, mode: Mode, nodes: usize, args: &ExperimentArgs) -> RunReport {
    run(reads, &args.config(mode, nodes))
}

/// Like [`run_mode`] with an explicit minimizer length (for sweeps).
pub fn run_mode_with_m(
    reads: &ReadSet,
    mode: Mode,
    nodes: usize,
    m: usize,
    args: &ExperimentArgs,
) -> RunReport {
    let mut rc = args.config(mode, nodes);
    rc.counting.m = m;
    run(reads, &rc)
}

/// The template's counting parameters, for a figure that drives the
/// narrow (`u64`) supermer builders directly instead of running a
/// pipeline. Parameters those builders cannot take exit 2, as a run's
/// would.
pub fn narrow_counting(args: &ExperimentArgs) -> CountingConfig {
    let cfg = args.template.counting;
    if let Err(e) = cfg.validate() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    cfg
}

/// Runs the supermer engine out-of-core through the two-pass bin store
/// (DESIGN.md §12) in a scratch directory. The store is a simulation
/// artifact, not a result, so it is removed after the run; all reported
/// fields are deterministic (the simulated NVMe tier has fixed
/// bandwidth/latency).
pub fn run_two_pass(reads: &ReadSet, nodes: usize, args: &ExperimentArgs) -> RunReport {
    let mut rc = args.config(Mode::GpuSupermer, nodes);
    let dir = std::env::temp_dir().join(format!("dedukt-bench-two-pass-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    rc.two_pass_dir = Some(dir.clone());
    let report = run(reads, &rc);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedukt_dna::ScalePreset;

    fn tiny() -> ExperimentArgs {
        ExperimentArgs {
            scale: ScalePreset::Tiny,
            ..Default::default()
        }
    }

    #[test]
    fn generate_and_run_tiny() {
        let args = tiny();
        let reads = generate(DatasetId::EColi30x, &args);
        let r = run_mode(&reads, Mode::GpuKmer, 1, &args);
        assert!(r.total_kmers > 0);
        assert_eq!(r.nranks, 6);
    }

    #[test]
    fn m_override_applies() {
        let mut args = tiny();
        args.template.counting.m = 9;
        let reads = generate(DatasetId::ABaumannii30x, &args);
        let r9 = run_mode(&reads, Mode::GpuSupermer, 1, &args);
        let r7 = run_mode_with_m(&reads, Mode::GpuSupermer, 1, 7, &args);
        // Longer minimizers → shorter supermers → more of them (Table II).
        assert!(r9.exchange.units > r7.exchange.units);
    }

    #[test]
    fn wide_k_runs_at_the_wide_width() {
        let mut args = tiny();
        args.template.counting.set_k(41);
        args.template.counting.m = 11;
        let reads = generate(DatasetId::EColi30x, &args);
        let r = run_mode(&reads, Mode::GpuKmer, 1, &args);
        assert_eq!(r.exchange.bytes, r.exchange.units * u128::KMER_WIRE_BYTES);
        assert_eq!(minimizer_lens(&args, &[7, 9]), [11]);
        assert_eq!(minimizer_lens(&tiny(), &[7, 9]), [7, 9]);
    }

    #[test]
    fn the_template_reaches_every_run() {
        let mut args = tiny();
        let spec = dedukt_net::FaultSpec::parse("fail=0.2,retries=8").unwrap();
        args.template.fault = Some(dedukt_net::FaultPlan::new(3, spec));
        let reads = generate(DatasetId::EColi30x, &args);
        let clean = run_mode(&reads, Mode::GpuKmer, 1, &tiny());
        let faulty = run_mode(&reads, Mode::GpuKmer, 1, &args);
        assert!(faulty.exchange.retries > 0, "the fault plan must be armed");
        assert_eq!(faulty.distinct_kmers, clean.distinct_kmers);
        let two_pass = run_two_pass(&reads, 1, &tiny());
        assert_eq!(two_pass.distinct_kmers, clean.distinct_kmers);
    }
}
