//! Host-speed benchmark of the dedukt k-mer counter.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1]
//! ```
//!
//! One run does what `dedukt count <reads.fastq> --out dump.tsv` does,
//! called through the library: `parse_fastq` → `run_typed` →
//! `merge_tables` → `write_dump` to a file. Runs are sequential, in this
//! process, and the program's own threads are capped by the host's
//! available parallelism.
//!
//! Set-up generates the workload's dataset from `--seed`, writes it as
//! FASTQ and digests the dump of the single-threaded reference counter;
//! it is repeated and `setup_s` is its median. One warm-up run is
//! discarded, then runs repeat while the next one is expected to end
//! within `--seconds` (at least three are timed). Every run, warm-up
//! included, is checked outside its timed interval: its dump must match
//! the reference digest and its deterministic counts must repeat exactly.
//! A run that fails, panics or differs counts in `attempted` and `failed`.
//!
//! A calibration that does not call the program (`calib.rs`) runs after
//! every set-up and run. `--trace 0`
//! reports the end-to-end metrics as medians over the timed runs, with
//! each phase's times scaled by its own calibrations to the reference
//! host speed, so that a shared host's drift between
//! invocations does not read as a change in the program. `--trace 1`
//! alternates untraced and traced runs and reports the raw
//! per-layer metrics as medians over the traced ones, with
//! `trace_overhead_s` as the gap between the two. A traced run records
//! spans around the four library calls and then runs the probes in
//! `layers.rs`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A repeated flag takes
//! its last value.

mod calib;
mod host;
mod layers;
mod workload;

use dedukt::core::dump::{merge_tables, write_dump};
use dedukt::core::pipeline::run_typed;
use dedukt::core::verify::reference_counts_w;
use dedukt::core::{CountingConfig, RunConfig, RunReport};
use dedukt::dna::fastq::{parse_fastq, write_fastq};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

/// Set-ups per untraced invocation; `setup_s` is their median. A single
/// set-up's time spreads too widely between invocations for its median
/// over ten invocations to repeat within `setup_s`'s bound.
const SETUPS: usize = 3;

/// Timed rounds (a run, its traced twin under `--trace 1`, and a
/// calibration) every invocation makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Directory, under the working directory, that holds each workload's
/// inputs, dumps and bin stores while it runs.
const WORK_DIR: &str = ".bench_work";

/// End-to-end metrics (`--trace 0`), in output order, with units.
const END_TO_END: [(&str, &str); 6] = [
    ("kmers_per_s", "1/s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("pass_ratio", "ratio"),
];

/// Per-layer metrics (`--trace 1`), in output order, with units.
const PER_LAYER: [(&str, &str); 30] = [
    ("dna.fastq_parse_s", "s"),
    ("dna.fastq_parse_mb_per_s", "MB/s"),
    ("dna.pack_mbases_per_s", "Mbase/s"),
    ("hash.murmur3_mkeys_per_s", "Mkey/s"),
    ("core.minimizer_mkmers_per_s", "Mkmer/s"),
    ("core.supermer_build_mkmers_per_s", "Mkmer/s"),
    ("core.supermers", "count"),
    ("core.table_insert_mkmers_per_s", "Mkmer/s"),
    ("core.table_probes_per_insert", "probe/insert"),
    ("core.run_s", "s"),
    ("core.driver_parse_s", "s"),
    ("core.driver_rounds_s", "s"),
    ("core.driver_finish_s", "s"),
    ("core.driver_unattributed_s", "s"),
    ("core.dump_merge_s", "s"),
    ("core.dump_write_s", "s"),
    ("core.reference_s", "s"),
    ("gpu.launch_us", "us"),
    ("net.alltoallv_s", "s"),
    ("net.alltoallv_mb_per_s", "MB/s"),
    ("net.exchange_bytes", "bytes"),
    ("net.collectives", "count"),
    ("store.write_mb_per_s", "MB/s"),
    ("store.read_mb_per_s", "MB/s"),
    ("store.bins", "count"),
    ("store.bytes_written", "bytes"),
    ("sim.makespan_s", "s"),
    ("sim.load_imbalance", "ratio"),
    ("trace_overhead_s", "s"),
    ("host.calib_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 20.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or(format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> [--seconds <s>] [--trace 0|1]",
                workload::ALL.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Workload> = if args.workload == "all" {
        workload::ALL.iter().collect()
    } else {
        match Workload::named(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("error: unknown workload {:?}", args.workload);
                return ExitCode::from(2);
            }
        }
    };
    let mut results = Vec::new();
    for w in selected {
        match bench(w, &args) {
            Ok(r) => results.push((w.name, r)),
            Err(e) => {
                eprintln!("error: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    // One workload reports its metrics by name; `all` prefixes each
    // with its workload.
    let single = results.len() == 1;
    let mut metrics = Vec::new();
    for (name, r) in &results {
        for &(metric, value, unit) in &r.metrics {
            let key = if single {
                metric.to_string()
            } else {
                format!("{name}/{metric}")
            };
            metrics.push((key, value, unit));
        }
    }
    let attempted: u64 = results.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = results.iter().map(|(_, r)| r.failed).sum();
    println!("{}", result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// One workload's result: its runs and its metrics, in output order.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Benchmarks one workload and prints its metrics, one per line.
fn bench(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let dir = WorkDir::create(w.name)?;
    let rc = w.run_config(&dir.0.join("store"));
    let setups = if args.trace { 1 } else { SETUPS };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Each phase's times are scaled by calibrations taken during that
    // phase on as many threads as it runs: set-up is single-threaded.
    let mut setup_cals = Vec::new();
    let mut run_cals = Vec::new();
    let mut setup_secs = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..setups {
        let s = set_up(w, args.seed, &dir.0, &rc.counting)?;
        if setup
            .as_ref()
            .is_some_and(|prev| prev.reference != s.reference)
        {
            return Err("the same seed generated two different datasets".into());
        }
        setup_secs.push(s.secs);
        setup = Some(s);
        setup_cals.push(calib::measure(1)?);
    }
    let setup = setup.expect("at least one set-up");

    let mut tally = Tally::default();
    tally.record(attempt(&rc, &setup, &dir.0, false));
    run_cals.push(calib::measure(threads)?);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for round in 1.. {
        let round_start = Instant::now();
        plain.extend(tally.record(attempt(&rc, &setup, &dir.0, false)));
        if args.trace {
            traced.extend(tally.record(attempt(&rc, &setup, &dir.0, true)));
        }
        run_cals.push(calib::measure(threads)?);
        // Stop before a round that would likely end past the deadline.
        let next_end = start.elapsed() + round_start.elapsed();
        if round >= MIN_ROUNDS && next_end.as_secs_f64() > args.seconds {
            break;
        }
    }

    let setup_speed = calib::Speed::of(&setup_cals, 1);
    let speed = calib::Speed::of(&run_cals, threads);
    let values = if args.trace {
        let mut v = per_layer(&plain, &traced, &setup);
        v.push(("host.calib_s", median(run_cals.iter().map(|c| c.wall))));
        v
    } else {
        vec![
            (
                "kmers_per_s",
                median(plain.iter().map(|r| r.exact.instances as f64 / r.wall)) / speed.wall,
            ),
            ("wall_s", median(plain.iter().map(|r| r.wall)) * speed.wall),
            ("cpu_s", median(plain.iter().map(|r| r.cpu)) * speed.cpu),
            (
                "peak_rss_mb",
                median(plain.iter().map(|r| r.peak_rss as f64 / 1e6)),
            ),
            ("setup_s", median(setup_secs.into_iter()) * setup_speed.wall),
            (
                "pass_ratio",
                (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
            ),
        ]
    };

    let specs: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<_> = specs
        .iter()
        .map(|&(name, unit)| {
            // Every run failing leaves no measurement to report.
            let value = values
                .iter()
                .find(|&&(n, _)| n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, if value.is_finite() { value } else { 0.0 }, unit)
        })
        .collect();
    println!(
        "{}: seed {}, {} set-up(s), 1 warm-up + {} untraced + {} traced runs, {} threads; \
         host speed ÷ reference: {:.3} in set-up, {:.3} (wall) / {:.3} (cpu) in the runs",
        w.name,
        args.seed,
        setups,
        plain.len(),
        traced.len(),
        threads,
        setup_speed.wall,
        speed.wall,
        speed.cpu,
    );
    for &(name, value, unit) in &metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!(
        "  {:<34} {:>16.6} ratio ({} of {} runs failed)",
        "fail_ratio",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Per-layer values: medians over the traced runs, the reference
/// counter's time from set-up, and the traced runs' extra wall time.
fn per_layer(plain: &[Run], traced: &[Run], setup: &Setup) -> Vec<layers::Metric> {
    // Every traced run reports the same metrics in the same order.
    let names = traced.first().map_or(&[][..], |r| &r.layers[..]);
    let mut values: Vec<layers::Metric> = names
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| (name, median(traced.iter().map(|r| r.layers[i].1))))
        .collect();
    values.push(("core.reference_s", setup.reference_secs));
    let wall = |runs: &[Run]| median(runs.iter().map(|r| r.wall));
    values.push(("trace_overhead_s", wall(traced) - wall(plain)));
    values
}

/// A workload's private directory under [`WORK_DIR`], removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(name: &str) -> Result<WorkDir, String> {
        let path = Path::new(WORK_DIR).join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// What the reference counter says the dump must be.
#[derive(PartialEq)]
struct Reference {
    digest: u64,
    dump_bytes: u64,
    instances: u64,
    distinct: u64,
}

/// A workload's input on disk and its reference.
struct Setup {
    fastq: PathBuf,
    fastq_bytes: u64,
    reference: Reference,
    /// Seconds to generate, write and digest.
    secs: f64,
    /// Seconds of those spent in the single-threaded reference counter.
    reference_secs: f64,
}

fn set_up(w: &Workload, seed: u64, dir: &Path, cfg: &CountingConfig) -> Result<Setup, String> {
    let t = Instant::now();
    let reads = w.dataset(seed).generate();
    let fastq = dir.join("reads.fastq");
    write_file(&fastq, |out| write_fastq(out, &reads))?;
    let tr = Instant::now();
    let counts = reference_counts_w::<u64>(&reads, cfg);
    let reference_secs = tr.elapsed().as_secs_f64();
    let mut entries: Vec<(u64, u32)> = counts
        .into_iter()
        .map(|(kmer, c)| {
            (
                kmer,
                u32::try_from(c).expect("a k-mer count fits the dump's u32"),
            )
        })
        .collect();
    entries.sort_unstable_by_key(|&(kmer, _)| kmer);
    let mut digest = Digest::default();
    write_dump(&mut digest, &entries, cfg.k, cfg.encoding).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    eprintln!(
        "set-up: {secs:.3} s, of which {:.3} s generating and writing, {reference_secs:.3} s reference counting",
        (tr - t).as_secs_f64()
    );
    let fastq_bytes = std::fs::metadata(&fastq)
        .map_err(|e| format!("{}: {e}", fastq.display()))?
        .len();
    Ok(Setup {
        fastq,
        fastq_bytes,
        reference: Reference {
            digest: digest.hash,
            dump_bytes: digest.bytes,
            instances: entries.iter().map(|&(_, c)| u64::from(c)).sum(),
            distinct: entries.len() as u64,
        },
        secs,
        reference_secs,
    })
}

fn write_file(
    path: &Path,
    body: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    body(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// FNV-1a over every byte written, and the byte count.
struct Digest {
    hash: u64,
    bytes: u64,
}

impl Default for Digest {
    fn default() -> Digest {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }
}

impl Write for Digest {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Counts a run reports that must repeat exactly between runs of one
/// workload. The device tables' probe histograms are left out: they vary
/// with thread interleaving.
#[derive(Clone, Debug, PartialEq)]
struct Exact {
    instances: u64,
    distinct: u64,
    exchange_bytes: u64,
    collectives: u64,
    store_bins: u64,
    makespan_s: f64,
    load_imbalance: f64,
}

impl Exact {
    fn of(report: &RunReport<u64>, rc: &RunConfig) -> Result<Exact, String> {
        let store_bins = match &rc.two_pass_dir {
            Some(dir) => std::fs::read_dir(dir)
                .map_err(|e| format!("{}: {e}", dir.display()))?
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".g0.blk"))
                .count() as u64,
            None => 0,
        };
        Ok(Exact {
            instances: report.total_kmers,
            distinct: report.distinct_kmers,
            exchange_bytes: report.exchange.bytes,
            collectives: report.exchange.rounds,
            store_bins,
            makespan_s: report.makespan.as_secs(),
            load_imbalance: report.load.imbalance(),
        })
    }
}

/// What one checked run measured.
struct Run {
    wall: f64,
    cpu: f64,
    peak_rss: u64,
    exact: Exact,
    /// Per-layer values (traced runs only).
    layers: Vec<layers::Metric>,
}

impl Run {
    /// Supermers the build probe made, which must also repeat exactly
    /// (traced runs only).
    fn supermers(&self) -> Option<f64> {
        self.layers
            .iter()
            .find(|&&(n, _)| n == "core.supermers")
            .map(|&(_, v)| v)
    }
}

/// Runs once and checks the result; a panic becomes an error.
fn attempt(rc: &RunConfig, setup: &Setup, dir: &Path, traced: bool) -> Result<Run, String> {
    catch_unwind(AssertUnwindSafe(|| run_once(rc, setup, dir, traced))).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string payload");
        Err(format!("panic: {msg}"))
    })
}

/// Span boundaries of a traced run; records nothing when tracing is off.
struct Spans(Option<Vec<Instant>>);

impl Spans {
    fn mark(&mut self) {
        if let Some(marks) = &mut self.0 {
            marks.push(Instant::now());
        }
    }

    /// Seconds between consecutive marks.
    fn secs(&self) -> Vec<f64> {
        let marks = self.0.as_deref().unwrap_or_default();
        marks
            .windows(2)
            .map(|p| (p[1] - p[0]).as_secs_f64())
            .collect()
    }
}

fn run_once(rc: &RunConfig, setup: &Setup, dir: &Path, traced: bool) -> Result<Run, String> {
    let cfg = &rc.counting;
    let dump = dir.join("dump.tsv");
    // A two-pass run starts from an empty bin store, as a fresh
    // `dedukt count --two-pass DIR` does.
    if let Some(store) = &rc.two_pass_dir {
        if store.exists() {
            std::fs::remove_dir_all(store).map_err(|e| format!("{}: {e}", store.display()))?;
        }
    }
    host::reset_peak_rss()?;
    let cpu0 = host::cpu_seconds()?;
    let t0 = Instant::now();
    let mut spans = Spans(traced.then(|| vec![t0]));
    let file = File::open(&setup.fastq).map_err(|e| format!("{}: {e}", setup.fastq.display()))?;
    let reads = parse_fastq(BufReader::new(file), cfg.k).map_err(|e| e.to_string())?;
    spans.mark();
    let mut report = run_typed::<u64>(&reads, rc).map_err(|e| format!("run failed: {e}"))?;
    spans.mark();
    let tables = report
        .tables
        .take()
        .ok_or("the run returned no rank tables")?;
    let merged = merge_tables(&tables);
    spans.mark();
    write_file(&dump, |out| write_dump(out, &merged, cfg.k, cfg.encoding))?;
    spans.mark();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds()? - cpu0;
    let peak_rss = host::peak_rss_bytes()?;
    drop((tables, merged));

    let exact = Exact::of(&report, rc)?;
    check_dump(&dump, &setup.reference, &exact)?;
    let mut layers = Vec::new();
    if traced {
        let s = spans.secs();
        let (parse, run, merge, write) = (s[0], s[1], s[2], s[3]);
        let w = &report.wall;
        layers = vec![
            ("dna.fastq_parse_s", parse),
            (
                "dna.fastq_parse_mb_per_s",
                setup.fastq_bytes as f64 / parse / 1e6,
            ),
            ("core.run_s", run),
            ("core.driver_parse_s", w.parse),
            ("core.driver_rounds_s", w.rounds),
            ("core.driver_finish_s", w.finish),
            (
                "core.driver_unattributed_s",
                run - w.parse - w.rounds - w.finish,
            ),
            ("core.dump_merge_s", merge),
            ("core.dump_write_s", write),
            ("net.exchange_bytes", exact.exchange_bytes as f64),
            ("net.collectives", exact.collectives as f64),
            ("sim.makespan_s", exact.makespan_s),
            ("sim.load_imbalance", exact.load_imbalance),
        ];
        layers.extend(layers::probe(rc, &reads, dir)?);
    }
    Ok(Run {
        wall,
        cpu,
        peak_rss,
        exact,
        layers,
    })
}

/// Compares the dump file with the reference and the run's own counts.
fn check_dump(dump: &Path, reference: &Reference, exact: &Exact) -> Result<(), String> {
    let bytes = std::fs::read(dump).map_err(|e| format!("{}: {e}", dump.display()))?;
    let mut digest = Digest::default();
    digest.write_all(&bytes).map_err(|e| e.to_string())?;
    if (exact.instances, exact.distinct) != (reference.instances, reference.distinct) {
        return Err(format!(
            "counted {} instances / {} distinct, reference {} / {}",
            exact.instances, exact.distinct, reference.instances, reference.distinct
        ));
    }
    if (digest.hash, digest.bytes) != (reference.digest, reference.dump_bytes) {
        return Err(format!(
            "dump ({} bytes) differs from the reference dump ({} bytes)",
            digest.bytes, reference.dump_bytes
        ));
    }
    Ok(())
}

/// Runs attempted and failed, and the first run's exact counts that
/// every later run must repeat.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    exact: Option<Exact>,
    supermers: Option<f64>,
}

impl Tally {
    fn record(&mut self, result: Result<Run, String>) -> Option<Run> {
        self.attempted += 1;
        let checked = result.and_then(|run| {
            let first = self.exact.get_or_insert_with(|| run.exact.clone());
            if run.exact != *first {
                return Err(format!("counts drifted: {:?} after {first:?}", run.exact));
            }
            if let Some(s) = run.supermers() {
                let first = *self.supermers.get_or_insert(s);
                if s != first {
                    return Err(format!("supermer count drifted: {s} after {first}"));
                }
            }
            Ok(run)
        });
        if let Ok(run) = &checked {
            eprintln!(
                "run {}: wall {:.3} s, cpu {:.2} s, peak rss {:.0} MB",
                self.attempted,
                run.wall,
                run.cpu,
                run.peak_rss as f64 / 1e6
            );
        }
        checked
            .map_err(|e| {
                self.failed += 1;
                eprintln!("run {} failed: {e}", self.attempted);
            })
            .ok()
    }
}

/// Median of `values`, or NaN when there are none.
pub(crate) fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result line: every number printed with all its digits.
fn result_json(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}
