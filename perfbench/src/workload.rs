//! The benchmark's workloads: one input dataset and one `dedukt count`
//! configuration each. `BENCHMARK.json` records why each one exists.

use dedukt::core::{Mode, RunConfig};
use dedukt::dna::{Dataset, DatasetId, ScalePreset};
use std::path::Path;

/// One workload: what `dedukt simulate <dataset> --scale x<scale>` makes
/// and how `dedukt count` is configured to count it.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Synthetic dataset the input is generated from.
    pub dataset: DatasetId,
    /// Genome-length multiplier on the dataset's bench scale.
    pub scale: f64,
    /// Counter (`--mode`).
    pub mode: Mode,
    /// Simulated Summit nodes (`--nodes`).
    pub nodes: usize,
    /// Count out-of-core through a bin store (`--two-pass`), with this
    /// device memory budget in bytes (`--device-hbm`).
    pub two_pass_hbm: Option<u64>,
}

/// Every workload, in the order `--workload all` runs them.
pub const ALL: [Workload; 3] = [
    Workload {
        name: "ecoli-supermer",
        dataset: DatasetId::EColi30x,
        scale: 8.0,
        mode: Mode::GpuSupermer,
        nodes: 2,
        two_pass_hbm: None,
    },
    Workload {
        name: "hsapiens-cpu-64n",
        dataset: DatasetId::HSapiens54x,
        scale: 0.25,
        mode: Mode::CpuBaseline,
        nodes: 64,
        two_pass_hbm: None,
    },
    Workload {
        name: "ecoli-two-pass",
        dataset: DatasetId::EColi30x,
        scale: 8.0,
        mode: Mode::GpuSupermer,
        nodes: 2,
        two_pass_hbm: Some(50_000_000),
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<&'static Workload> {
        ALL.iter().find(|w| w.name == name)
    }

    /// The dataset generated from `seed`, as `dedukt simulate --seed`
    /// would generate it.
    pub fn dataset(&self, seed: u64) -> Dataset {
        let mut ds = Dataset::new(self.dataset, ScalePreset::Custom(self.scale));
        ds.seed = seed;
        ds
    }

    /// The run configuration `dedukt count` builds from this workload's
    /// flags; a two-pass run keeps its bin store in `store_dir`.
    pub fn run_config(&self, store_dir: &Path) -> RunConfig {
        let mut rc = RunConfig::new(self.mode, self.nodes);
        if let Some(hbm) = self.two_pass_hbm {
            rc.two_pass_dir = Some(store_dir.to_path_buf());
            rc.gpu_device.memory_bytes = hbm;
        }
        rc.collect_tables = true;
        rc
    }
}
