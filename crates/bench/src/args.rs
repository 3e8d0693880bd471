//! Command-line parsing for the experiment binaries.
//!
//! Every regenerator accepts the same flags: its own three —
//!
//! * `--scale tiny|bench|x<FACTOR>` — dataset scale (default `bench`),
//! * `--seed N` — dataset seed override,
//! * `--nodes N` — node count, where the figure does not sweep it —
//!
//! plus every run flag `dedukt count` takes except `--mode` (each figure
//! picks its own counters) and the output flags. The run flags are
//! parsed by [`RunConfig::apply_flag`] into a template every run of the
//! figure starts from. A figure that sweeps a field (the minimizer
//! length, the exchange route, the round cap, k) runs only the value a
//! flag set instead ([`ExperimentArgs::given`]).

use dedukt_core::flags::{parse_nodes, run_flags_usage};
use dedukt_core::{Mode, RunConfig};
use dedukt_dna::ScalePreset;

/// Parsed experiment flags.
#[derive(Clone, Debug)]
pub struct ExperimentArgs {
    /// Dataset scale preset.
    pub scale: ScalePreset,
    /// Dataset seed override.
    pub seed: Option<u64>,
    /// Node-count override.
    pub nodes: Option<usize>,
    /// The run flags, applied to a paper-default config; its mode and
    /// node count are placeholders each run replaces
    /// ([`ExperimentArgs::config`]).
    pub template: RunConfig,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            scale: ScalePreset::Bench,
            seed: None,
            nodes: None,
            template: RunConfig::new(Mode::GpuSupermer, 1),
        }
    }
}

impl ExperimentArgs {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> ExperimentArgs {
        Self::try_parse(std::env::args().skip(1)).unwrap_or_else(|e| usage_error("<bin>", &e))
    }

    /// Parses from an explicit iterator (testable).
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<ExperimentArgs, String> {
        let mut out = ExperimentArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "--scale" => out.scale = ScalePreset::parse(&value()?)?,
                "--seed" => {
                    let v = value()?;
                    out.seed = Some(v.parse().map_err(|_| format!("--seed: bad value {v:?}"))?);
                }
                "--nodes" => out.nodes = Some(parse_nodes(&value()?)?),
                flag => out.template.apply_flag(flag, &mut it)?,
            }
        }
        Ok(out)
    }

    /// The value the run flags set for one template field, or `None`
    /// where the field keeps its default — so a figure sweeps a field
    /// only when no flag fixed it. A flag that repeats the default is
    /// indistinguishable from no flag.
    pub fn given<T: PartialEq>(&self, field: impl Fn(&RunConfig) -> T) -> Option<T> {
        let value = field(&self.template);
        (value != field(&ExperimentArgs::default().template)).then_some(value)
    }

    /// The template configured for one run: `mode` on `nodes` nodes.
    pub fn config(&self, mode: Mode, nodes: usize) -> RunConfig {
        let mut rc = self.template.clone();
        rc.mode = mode;
        rc.nodes = nodes;
        rc
    }
}

/// Prints `error` and the experiment usage for `bin`, then exits 2.
pub fn usage_error(bin: &str, error: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!(
        "usage: {bin} [--scale tiny|bench|xFACTOR] [--seed N] [--nodes N]\n{}",
        run_flags_usage("    ")
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentArgs, String> {
        ExperimentArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, ScalePreset::Bench);
        assert!(a.nodes.is_none() && a.seed.is_none());
        assert!(!a.template.gpu_direct && a.template.fault.is_none());
    }

    /// Every other flag goes to the shared run-flag parser (whose own
    /// table test covers each flag), interleaved with the figure's own.
    #[test]
    fn own_flags_and_run_flags_interleave() {
        let mut args = vec!["--scale", "x0.25", "--nodes", "16"];
        for &(flag, value, _) in dedukt_core::flags::RUN_FLAGS {
            if value.is_empty() {
                args.push(flag);
            }
        }
        args.extend(["--seed", "7"]);
        let a = parse(&args).unwrap();
        assert_eq!(a.scale, ScalePreset::Custom(0.25));
        assert_eq!((a.nodes, a.seed), (Some(16), Some(7)));
        let rc = a.config(Mode::GpuKmer, 3);
        assert_eq!((rc.mode, rc.nodes), (Mode::GpuKmer, 3));
        assert!(
            rc.gpu_direct && rc.wire_compress,
            "switches reach the template"
        );
    }

    #[test]
    fn given_reports_only_fields_a_flag_changed() {
        let mut a = ExperimentArgs::default();
        a.template.counting.m = 9;
        a.template.overlap_rounds = true;
        assert_eq!(a.given(|rc| rc.counting.m), Some(9));
        assert_eq!(a.given(|rc| rc.overlap_rounds), Some(true));
        assert_eq!(a.given(|rc| rc.counting.k), None);
        assert_eq!(a.given(|rc| rc.round_limit_bytes), None);
    }

    #[test]
    fn rejects_bad_own_flags() {
        for args in [
            &["--scale", "huge"][..],
            &["--scale", "x-1"],
            &["--scale", "xnan"],
            &["--nodes"],
            &["--nodes", "0"],
            &["--seed", "s"],
            &["--mode", "cpu"],
        ] {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
