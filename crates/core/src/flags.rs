//! The run flags every front end shares: `dedukt count`, the figure
//! binaries and `dedukt-bench` all parse them here, into a
//! [`RunConfig`].
//!
//! Each flag's name, value parser and error text live in this module
//! once, and so do the two values derived from flags: a seed or a spec
//! alone arms its injection plan (the other half keeps its default), and
//! `--k` re-derives the supermer window ([`CountingConfig::set_k`]).
//! Range checks are not the parser's job: they live in
//! [`RunConfig::validate`], so an out-of-range value surfaces as the
//! same [`crate::ConfigError`] whichever front end set it.
//!
//! [`CountingConfig::set_k`]: crate::CountingConfig::set_k

use std::path::PathBuf;
use std::str::FromStr;

use dedukt_gpu::{MemPlan, MemSpec};
use dedukt_net::cost::ExchangeAlgo;
use dedukt_net::{FaultPlan, FaultSpec, RankPlan, RankSpec};
use dedukt_store::{IoPlan, IoSpec};

use crate::config::RunConfig;

/// Sets one run flag's value on a config; errs on a value that does not
/// parse.
type Setter = fn(&mut RunConfig, &str) -> Result<(), String>;

/// Every shared run flag with its value placeholder (empty for a switch)
/// and its setter, in usage order.
pub const RUN_FLAGS: &[(&str, &str, Setter)] = &[
    ("--k", "K", |rc, v| parse(v).map(|k| rc.counting.set_k(k))),
    ("--m", "M", |rc, v| parse(v).map(|m| rc.counting.m = m)),
    ("--canonical", "", |rc, _| {
        rc.counting.canonical = true;
        Ok(())
    }),
    ("--gpu-direct", "", |rc, _| {
        rc.gpu_direct = true;
        Ok(())
    }),
    ("--round-limit", "BYTES", |rc, v| {
        parse(v).map(|b| rc.round_limit_bytes = Some(b))
    }),
    ("--overlap-rounds", "", |rc, _| {
        rc.overlap_rounds = true;
        Ok(())
    }),
    ("--exchange-algo", "direct|hierarchical", |rc, v| {
        ExchangeAlgo::parse(v).map(|a| rc.exchange_algo = a)
    }),
    ("--wire-compress", "", |rc, _| {
        rc.wire_compress = true;
        Ok(())
    }),
    ("--fault-seed", "N", |rc, v| {
        let spec = rc.fault.map_or_else(FaultSpec::default, |p| *p.spec());
        parse(v).map(|seed| rc.fault = Some(FaultPlan::new(seed, spec)))
    }),
    (
        "--fault-spec",
        "fail=F,corrupt=C,straggle=S,slow=X,retries=R,backoff=B",
        |rc, v| {
            let seed = rc.fault.map_or(0, |p| p.seed());
            FaultSpec::parse(v).map(|spec| rc.fault = Some(FaultPlan::new(seed, spec)))
        },
    ),
    ("--mem-seed", "N", |rc, v| {
        let spec = rc.mem.map_or_else(MemSpec::default, |p| *p.spec());
        parse(v).map(|seed| rc.mem = Some(MemPlan::new(seed, spec)))
    }),
    ("--mem-spec", "under=U,shrink=S,afail=A,spill=N", |rc, v| {
        let seed = rc.mem.map_or(0, |p| p.seed());
        MemSpec::parse(v).map(|spec| rc.mem = Some(MemPlan::new(seed, spec)))
    }),
    ("--rank-seed", "N", |rc, v| {
        let spec = rc
            .rank
            .as_ref()
            .map_or_else(RankSpec::default, |p| p.spec().clone());
        parse(v).map(|seed| rc.rank = Some(RankPlan::new(seed, spec)))
    }),
    (
        "--rank-spec",
        "rate=R,max-dead=D,kill=ROUND:RANK",
        |rc, v| {
            let seed = rc.rank.as_ref().map_or(0, |p| p.seed());
            RankSpec::parse(v).map(|spec| rc.rank = Some(RankPlan::new(seed, spec)))
        },
    ),
    ("--checkpoint-rounds", "N", |rc, v| {
        parse(v).map(|n| rc.checkpoint_rounds = Some(n))
    }),
    ("--rescale", "ROUND:WORLD,...", |rc, v| {
        parse_rescale(v).map(|s| rc.rescale = s)
    }),
    ("--table-safety", "F", |rc, v| {
        parse(v).map(|f| rc.table_safety = f)
    }),
    ("--device-hbm", "BYTES", |rc, v| {
        parse(v).map(|b| rc.gpu_device.memory_bytes = b)
    }),
    ("--two-pass", "DIR", |rc, v| {
        rc.two_pass_dir = Some(PathBuf::from(v));
        Ok(())
    }),
    ("--resume", "", |rc, _| {
        rc.two_pass_resume = true;
        Ok(())
    }),
    ("--min-count", "N", |rc, v| {
        parse(v).map(|n| rc.min_count = n)
    }),
    ("--io-seed", "N", |rc, v| {
        let spec = rc.io.as_ref().map_or_else(IoSpec::default, |p| *p.spec());
        parse(v).map(|seed| rc.io = Some(IoPlan::new(seed, spec)))
    }),
    (
        "--io-spec",
        "torn=T,rot=R,readerr=E,retries=N,rederive=M,kill=K",
        |rc, v| {
            let seed = rc.io.as_ref().map_or(0, |p| p.seed());
            IoSpec::parse(v).map(|spec| rc.io = Some(IoPlan::new(seed, spec)))
        },
    ),
];

impl RunConfig {
    /// Applies one shared run flag, taking its value (if it has one)
    /// from `values`. Errs on an unknown flag, a missing value, or a
    /// value that does not parse; value errors are prefixed with the
    /// flag's name.
    pub fn apply_flag<S: AsRef<str>>(
        &mut self,
        flag: &str,
        values: &mut impl Iterator<Item = S>,
    ) -> Result<(), String> {
        let &(_, placeholder, set) = RUN_FLAGS
            .iter()
            .find(|(name, ..)| *name == flag)
            .ok_or_else(|| format!("unknown flag {flag:?}"))?;
        let value = match placeholder {
            "" => String::new(),
            _ => values
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_ref()
                .to_string(),
        };
        set(self, &value).map_err(|e| format!("{flag}: {e}"))
    }
}

/// Parses a `--nodes` value. Each front end applies it to its own
/// default node count, so it is not in [`RUN_FLAGS`].
pub fn parse_nodes(v: &str) -> Result<usize, String> {
    match parse(v) {
        Ok(0) => Err("--nodes must be positive".into()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("--nodes: {e}")),
    }
}

/// The shared run flags as bracketed usage items, wrapped into lines of
/// at most 80 columns, each starting with `indent`.
pub fn run_flags_usage(indent: &str) -> String {
    let mut lines = vec![String::new()];
    for &(flag, value, _) in RUN_FLAGS {
        let item = match value {
            "" => format!("[{flag}]"),
            _ => format!("[{flag} {value}]"),
        };
        let line = lines.last_mut().expect("never empty");
        if !line.is_empty() && indent.len() + line.len() + 1 + item.len() > 80 {
            lines.push(item);
        } else {
            if !line.is_empty() {
                line.push(' ');
            }
            line.push_str(&item);
        }
    }
    lines
        .iter()
        .map(|l| format!("{indent}{l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn parse<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad value {v:?}"))
}

/// Parses a `--rescale` schedule: a comma list of `round:world` pairs,
/// e.g. `1:10,3:12`. Ordering and range checks live in
/// [`RunConfig::validate`].
fn parse_rescale(s: &str) -> Result<Vec<(u64, usize)>, String> {
    let mut out = Vec::new();
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (round, world) = part
            .split_once(':')
            .ok_or_else(|| format!("rescale entry `{part}` is not round:world"))?;
        let round = round
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("rescale round `{}` is not an integer", round.trim()))?;
        let world = world
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("rescale world `{}` is not an integer", world.trim()))?;
        out.push((round, world));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    fn parsed(args: &[&str]) -> Result<RunConfig, String> {
        let mut rc = RunConfig::new(Mode::GpuKmer, 1);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            rc.apply_flag(flag, &mut it)?;
        }
        Ok(rc)
    }

    /// Accepted rows with what each value must change — the coverage
    /// assertion proves every `RUN_FLAGS` entry has a working setter —
    /// then malformed values, each rejected at the flag
    /// with its message fragment. Range checks are not here: they are
    /// `RunConfig::validate`'s, tested with it.
    #[test]
    fn run_flag_table() {
        type Check = fn(&RunConfig) -> bool;
        let rows: &[(&[&str], Check)] = &[
            (&["--k", "41"], |rc| {
                rc.counting.k == 41 && rc.counting.window == 15
            }),
            (&["--m", "9"], |rc| rc.counting.m == 9),
            (&["--canonical"], |rc| rc.counting.canonical),
            (&["--gpu-direct"], |rc| rc.gpu_direct),
            (&["--round-limit", "4096"], |rc| {
                rc.round_limit_bytes == Some(4096)
            }),
            (&["--overlap-rounds"], |rc| rc.overlap_rounds),
            (&["--exchange-algo", "hierarchical"], |rc| {
                rc.exchange_algo == ExchangeAlgo::NodeAggregated
            }),
            (&["--wire-compress"], |rc| rc.wire_compress),
            (&["--fault-seed", "7"], |rc| {
                rc.fault
                    .is_some_and(|p| p.seed() == 7 && *p.spec() == FaultSpec::default())
            }),
            (&["--fault-spec", "fail=0.1,retries=3"], |rc| {
                rc.fault
                    .is_some_and(|p| p.seed() == 0 && p.spec().max_retries == 3)
            }),
            (&["--mem-seed", "5"], |rc| {
                rc.mem.is_some_and(|p| p.seed() == 5)
            }),
            (&["--mem-spec", "under=0.5"], |rc| {
                rc.mem.is_some_and(|p| p.spec().underestimate_rate == 0.5)
            }),
            (&["--rank-seed", "3"], |rc| {
                rc.rank.as_ref().is_some_and(|p| p.seed() == 3)
            }),
            (&["--rank-spec", "kill=1:2"], |rc| {
                rc.rank.as_ref().is_some_and(|p| p.spec().kill == [(1, 2)])
            }),
            (&["--checkpoint-rounds", "2"], |rc| {
                rc.checkpoint_rounds == Some(2)
            }),
            (&["--rescale", "1:8, 3:12"], |rc| {
                rc.rescale == [(1, 8), (3, 12)]
            }),
            // An empty schedule is valid, and replaces an earlier one.
            (&["--rescale", "1:8", "--rescale", ""], |rc| {
                rc.rescale.is_empty()
            }),
            (&["--table-safety", "0.5"], |rc| rc.table_safety == 0.5),
            (&["--device-hbm", "1048576"], |rc| {
                rc.gpu_device.memory_bytes == 1 << 20
            }),
            (&["--two-pass", "store"], |rc| {
                rc.two_pass_dir.as_deref() == Some(std::path::Path::new("store"))
            }),
            (&["--resume"], |rc| rc.two_pass_resume),
            (&["--min-count", "2"], |rc| rc.min_count == 2),
            (&["--io-seed", "9"], |rc| {
                rc.io.as_ref().is_some_and(|p| p.seed() == 9)
            }),
            (&["--io-spec", "kill=2"], |rc| {
                rc.io
                    .as_ref()
                    .is_some_and(|p| p.spec().kill_after == Some(2))
            }),
        ];
        for (args, check) in rows {
            let rc = parsed(args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert!(check(&rc), "{args:?} did not take effect");
        }
        for (flag, ..) in RUN_FLAGS {
            assert!(
                rows.iter().any(|(args, _)| args[0] == *flag),
                "{flag} has no accepted row"
            );
        }
        for (args, fragment) in [
            (&["--frobnicate"][..], "unknown flag \"--frobnicate\""),
            (&["--k"], "--k needs a value"),
            (&["--k", "big"], "--k: bad value \"big\""),
            (&["--round-limit", "lots"], "--round-limit: bad value"),
            (&["--table-safety", "x"], "--table-safety: bad value"),
            (&["--exchange-algo", "fancy"], "fancy"),
            (&["--fault-seed", "many"], "--fault-seed: bad value"),
            (&["--fault-spec", "fail"], "is not key=value"),
            (&["--mem-spec", "bogus=1"], "unknown mem spec key"),
            (&["--rank-spec", "kill=abc"], "not ROUND:RANK"),
            (&["--rescale", "5"], "not round:world"),
            (&["--rescale", "a:1"], "not an integer"),
            (&["--rescale", "1:b"], "rescale world `b` is not an integer"),
            (&["--io-spec", "bogus=1"], "--io-spec: unknown io spec key"),
            (&["--min-count", "-1"], "--min-count: bad value"),
        ] {
            let err = parsed(args).unwrap_err();
            assert!(
                err.contains(fragment),
                "{args:?}: {err:?} lacks {fragment:?}"
            );
        }
        assert_eq!(parse_nodes("0").unwrap_err(), "--nodes must be positive");
        assert!(parse_nodes("zero").unwrap_err().contains("--nodes"));
        assert_eq!(parse_nodes("16"), Ok(16));
    }

    #[test]
    fn seed_and_spec_combine_in_either_order() {
        for args in [
            ["--fault-seed", "7", "--fault-spec", "fail=0.1"],
            ["--fault-spec", "fail=0.1", "--fault-seed", "7"],
        ] {
            let plan = parsed(&args).unwrap().fault.expect("armed");
            assert_eq!((plan.seed(), plan.spec().fail_rate), (7, 0.1), "{args:?}");
        }
        // The window follows the last --k, not the first.
        let rc = parsed(&["--k", "31", "--k", "17"]).unwrap();
        assert_eq!((rc.counting.k, rc.counting.window), (17, 15));
        assert_eq!(parsed(&["--k", "31"]).unwrap().counting.window, 2);
        assert_eq!(parsed(&["--k", "63"]).unwrap().counting.window, 2);
    }

    #[test]
    fn usage_lists_every_flag_within_80_columns() {
        let usage = run_flags_usage("    ");
        for (flag, ..) in RUN_FLAGS {
            assert!(usage.contains(&format!("[{flag}")), "{flag} missing");
        }
        assert!(usage
            .lines()
            .all(|l| l.len() <= 80 && l.starts_with("    [")));
    }
}
