//! Deterministic memory-pressure injection for the counting phase.
//!
//! A [`MemPlan`] is the device-memory twin of the network layer's
//! `FaultPlan`: a *pure function* from a seed and a pressure coordinate
//! — `(rank)` for distinct-count underestimates, `(rank, attempt)` for
//! allocation failures — to a pressure decision, built on the stateless
//! [`dedukt_sim::rng::unit_from_coords`] draw. Because the plan carries
//! no mutable state, every engine (threaded CPU baseline, both GPU
//! pipelines) derives **identical** pressure schedules without any
//! coordination, and a regrow retry draws a fresh, reproducible verdict
//! simply by bumping the attempt coordinate.
//!
//! Two pressure kinds are modelled (DESIGN.md §8):
//!
//! * **Distinct-count underestimate** — a rank's table is sized from
//!   [`MemSpec::shrink_factor`] × the true expected load instead of the
//!   exact count, forcing the open-addressing table to fill up and
//!   exercise the grow/spill recovery.
//! * **Allocation failure** — a grow-and-rehash attempt is denied even
//!   though the simulated HBM could hold it, forcing the spill path
//!   (and, once the spill budget is exhausted, the clean
//!   `RunError::DeviceOom` unwind).

use dedukt_sim::rng::unit_from_coords;
use dedukt_sim::spec::{integer, number, parse_spec};

/// Domain-separation salts so the two pressure streams never alias
/// (and never alias the network fault salts).
const SALT_ESTIMATE: u64 = 0x4D45_4D01;
const SALT_ALLOC: u64 = 0x4D45_4D02;

/// Pressure rates and spill policy. Parsed from `--mem-spec`
/// (`under=0.5,shrink=0.25,afail=0.25,spill=1048576`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemSpec {
    /// Probability a rank's distinct-count estimate comes in low.
    pub underestimate_rate: f64,
    /// Factor applied to an underestimating rank's expected load when
    /// sizing its count table, in `(0, 1]`.
    pub shrink_factor: f64,
    /// Probability a grow-and-rehash allocation attempt is denied.
    pub alloc_fail_rate: f64,
    /// Most k-mer instances one rank may park on the host spill list
    /// before the run fails with `RunError::DeviceOom`.
    pub spill_limit: u64,
}

impl Default for MemSpec {
    /// Moderate default rates so `--mem-seed` alone exercises both the
    /// regrow and the spill path on a handful of ranks.
    fn default() -> MemSpec {
        MemSpec {
            underestimate_rate: 0.5,
            shrink_factor: 0.25,
            alloc_fail_rate: 0.25,
            spill_limit: 1 << 20,
        }
    }
}

impl MemSpec {
    /// The no-pressure spec: exact sizing, allocations always succeed,
    /// unbounded spill. Runs under this spec are bit-identical to a
    /// plan-free world (pinned by the zero-pressure regression test).
    pub fn none() -> MemSpec {
        MemSpec {
            underestimate_rate: 0.0,
            shrink_factor: 1.0,
            alloc_fail_rate: 0.0,
            spill_limit: u64::MAX,
        }
    }

    /// Parses a `key=value` comma list. Unknown keys and unparseable
    /// values are errors; range checks live in [`MemSpec::validate`] so
    /// the CLI surfaces them through `ConfigError` like every other
    /// configuration problem.
    pub fn parse(s: &str) -> Result<MemSpec, String> {
        parse_spec(
            s,
            "mem",
            MemSpec::default(),
            &[
                ("under", |spec, v| number(&mut spec.underestimate_rate, v)),
                ("shrink", |spec, v| number(&mut spec.shrink_factor, v)),
                ("afail", |spec, v| number(&mut spec.alloc_fail_rate, v)),
                ("spill", |spec, v| integer(&mut spec.spill_limit, v)),
            ],
        )
    }

    /// Range checks, in `FaultSpec::validate` style: rates in [0, 1],
    /// shrink factor in (0, 1].
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("under", self.underestimate_rate),
            ("afail", self.alloc_fail_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(format!("mem rate {name}={rate} must be in [0, 1]"));
            }
        }
        if !self.shrink_factor.is_finite() || self.shrink_factor <= 0.0 || self.shrink_factor > 1.0
        {
            return Err(format!(
                "mem shrink factor shrink={} must be in (0, 1]",
                self.shrink_factor
            ));
        }
        Ok(())
    }

    /// Is this spec semantically empty — valid, but incapable of ever
    /// injecting pressure? No underestimates and no injected allocation
    /// failures means the grow/spill machinery never fires off the plan
    /// (the spill limit only bounds plan-independent pressure, which the
    /// caller checks separately). Such plans are normalized away before a
    /// run so both engines treat `--mem-spec under=0,afail=0` exactly
    /// like an absent plan.
    pub fn is_noop(&self) -> bool {
        (self.underestimate_rate == 0.0 || self.shrink_factor == 1.0) && self.alloc_fail_rate == 0.0
    }
}

/// A seeded, deterministic memory-pressure schedule. Cloning is cheap
/// (a few words); every engine and every grow attempt consult the same
/// plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemPlan {
    seed: u64,
    spec: MemSpec,
}

impl MemPlan {
    /// A plan drawing every pressure decision from `seed` under `spec`.
    pub fn new(seed: u64, spec: MemSpec) -> MemPlan {
        MemPlan { seed, spec }
    }

    /// The plan's rates and spill policy.
    pub fn spec(&self) -> &MemSpec {
        &self.spec
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// One-line summary of the plan for run journals and reports, e.g.
    /// `seed=7 under=0.5 shrink=0.25 afail=0.25 spill=1048576`.
    pub fn journal_label(&self) -> String {
        format!(
            "seed={} under={} shrink={} afail={} spill={}",
            self.seed,
            self.spec.underestimate_rate,
            self.spec.shrink_factor,
            self.spec.alloc_fail_rate,
            self.spec.spill_limit
        )
    }

    /// Uniform `[0, 1)` draw at a pressure coordinate.
    fn draw(&self, salt: u64, coords: &[u64]) -> f64 {
        unit_from_coords(self.seed ^ salt, coords)
    }

    /// Does `rank`'s distinct-count estimate come in low? Stateless:
    /// every evaluation at the same coordinate returns the same verdict,
    /// on any engine.
    pub fn underestimates(&self, rank: usize) -> bool {
        self.spec.underestimate_rate > 0.0
            && self.draw(SALT_ESTIMATE, &[rank as u64]) < self.spec.underestimate_rate
    }

    /// Factor applied to `rank`'s expected load when sizing its count
    /// table: [`MemSpec::shrink_factor`] when the rank underestimates,
    /// 1.0 otherwise.
    pub fn estimate_factor(&self, rank: usize) -> f64 {
        if self.underestimates(rank) {
            self.spec.shrink_factor
        } else {
            1.0
        }
    }

    /// Is grow attempt `attempt` (0 = first regrow) on `rank` denied by
    /// injected pressure? Real HBM exhaustion is checked separately
    /// against the device budget; this draw models transient allocator
    /// failure under fragmentation.
    pub fn alloc_fails(&self, rank: usize, attempt: u64) -> bool {
        self.spec.alloc_fail_rate > 0.0
            && self.draw(SALT_ALLOC, &[rank as u64, attempt]) < self.spec.alloc_fail_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_key() {
        let spec = MemSpec::parse("under=0.3, shrink=0.5, afail=0.1, spill=4096").unwrap();
        assert_eq!(spec.underestimate_rate, 0.3);
        assert_eq!(spec.shrink_factor, 0.5);
        assert_eq!(spec.alloc_fail_rate, 0.1);
        assert_eq!(spec.spill_limit, 4096);
        spec.validate().unwrap();
    }

    #[test]
    fn parse_partial_spec_keeps_defaults() {
        let spec = MemSpec::parse("under=0.9").unwrap();
        assert_eq!(spec.underestimate_rate, 0.9);
        assert_eq!(spec.shrink_factor, MemSpec::default().shrink_factor);
        assert_eq!(spec.spill_limit, MemSpec::default().spill_limit);
    }

    #[test]
    fn parse_rejects_unknown_keys_and_garbage() {
        assert!(MemSpec::parse("bogus=1")
            .unwrap_err()
            .contains("unknown mem spec key"));
        assert!(MemSpec::parse("under=abc")
            .unwrap_err()
            .contains("not a number"));
        assert!(MemSpec::parse("spill=1.5")
            .unwrap_err()
            .contains("not an integer"));
        assert!(MemSpec::parse("under").unwrap_err().contains("key=value"));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let s = MemSpec {
            underestimate_rate: 1.5,
            ..MemSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("must be in [0, 1]"));
        let s = MemSpec {
            alloc_fail_rate: -0.1,
            ..MemSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("must be in [0, 1]"));
        let s = MemSpec {
            shrink_factor: 0.0,
            ..MemSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("(0, 1]"));
        let s = MemSpec {
            shrink_factor: 1.5,
            ..MemSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("(0, 1]"));
        MemSpec::default().validate().unwrap();
        MemSpec::none().validate().unwrap();
    }

    #[test]
    fn draws_are_deterministic_and_attempt_fresh() {
        let plan = MemPlan::new(42, MemSpec::parse("under=0.5,afail=0.5").unwrap());
        for rank in 0..16 {
            assert_eq!(plan.underestimates(rank), plan.underestimates(rank));
            assert_eq!(plan.estimate_factor(rank), plan.estimate_factor(rank));
            for attempt in 0..8u64 {
                assert_eq!(
                    plan.alloc_fails(rank, attempt),
                    plan.alloc_fails(rank, attempt)
                );
            }
        }
        // Across 16 ranks × 8 attempts at afail=0.5, some rank must see
        // a different verdict on attempt 1 than on attempt 0.
        let differs = (0..16usize).any(|r| plan.alloc_fails(r, 0) != plan.alloc_fails(r, 1));
        assert!(differs, "attempts should draw fresh verdicts");
    }

    #[test]
    fn zero_rate_plan_never_pressures() {
        let plan = MemPlan::new(7, MemSpec::none());
        for rank in 0..64 {
            assert!(!plan.underestimates(rank));
            assert_eq!(plan.estimate_factor(rank), 1.0);
            for attempt in 0..8u64 {
                assert!(!plan.alloc_fails(rank, attempt));
            }
        }
    }

    #[test]
    fn pressure_distribution_tracks_rates() {
        let plan = MemPlan::new(1234, MemSpec::parse("under=0.25,afail=0.25").unwrap());
        let n = 40_000usize;
        let under = (0..n).filter(|&r| plan.underestimates(r)).count();
        let frac = under as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "underestimated {frac}");
        let fails = (0..n).filter(|&a| plan.alloc_fails(3, a as u64)).count();
        let frac = fails as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "alloc-failed {frac}");
        assert!((0..n).all(|r| {
            let f = plan.estimate_factor(r);
            f == 1.0 || f == 0.25
        }));
    }

    #[test]
    fn noop_specs_are_detected() {
        assert!(!MemSpec::default().is_noop());
        assert!(MemSpec::none().is_noop());
        assert!(MemSpec::parse("under=0,afail=0").unwrap().is_noop());
        // shrink=1 makes underestimates inert.
        assert!(MemSpec::parse("under=0.5,shrink=1,afail=0")
            .unwrap()
            .is_noop());
        assert!(!MemSpec::parse("under=0.5,afail=0").unwrap().is_noop());
        assert!(!MemSpec::parse("under=0,afail=0.5").unwrap().is_noop());
    }

    #[test]
    fn underestimate_and_alloc_streams_are_independent() {
        // Same coordinates, different salts: the two decision streams
        // must not mirror each other.
        let plan = MemPlan::new(99, MemSpec::parse("under=0.5,afail=0.5").unwrap());
        let mirrored = (0..256usize).all(|r| plan.underestimates(r) == plan.alloc_fails(r, 0));
        assert!(!mirrored, "salt separation failed");
    }
}
