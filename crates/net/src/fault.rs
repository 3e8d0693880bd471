//! Deterministic fault injection for the exchange layer.
//!
//! A [`FaultPlan`] is a *pure function* from a seed and a fault coordinate
//! — `(round, attempt, src, dst)` for bucket fates, `(step, rank)` for
//! stragglers — to a fault decision, built on the stateless
//! [`dedukt_sim::rng::mix_coords`] hash. Because the plan carries no
//! mutable state, both endpoints of a bucket can evaluate it independently,
//! without ACK traffic, and derive **identical** fault schedules; retries
//! draw fresh, reproducible fates simply by bumping the attempt
//! coordinate, so a bucket's retry count is known in closed form.
//!
//! Three fault kinds are modelled (DESIGN.md §7):
//!
//! * **Transient send failure** — a non-empty bucket `src → dst` is
//!   dropped for this attempt; the sender keeps the payload and re-offers
//!   it on the next attempt.
//! * **Payload corruption** — the bucket arrives, but its
//!   [`ChecksumFrame`] no longer matches; the receiver discards it and
//!   the sender retries. Corruption is *detected*, never silently
//!   consumed, which is what makes the headline "spectra are bit-identical
//!   with and without faults" guarantee provable.
//! * **Straggler** — a rank's compute step is stretched by
//!   [`FaultSpec::straggle_factor`]; timing-only, payloads are unaffected.

use dedukt_sim::rng::unit_from_coords;
use dedukt_sim::spec::{integer, number, parse_spec};

/// Domain-separation salts so the fault streams never alias.
const SALT_FATE: u64 = 0xFA17_0001;
const SALT_STRAGGLE: u64 = 0xFA17_0002;
const SALT_RANK: u64 = 0xFA17_0003;

/// What happens to one non-empty bucket on one delivery attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BucketFate {
    /// Arrives intact.
    Deliver,
    /// Never arrives this attempt (transient link failure).
    FailSend,
    /// Arrives with a checksum mismatch and is discarded by the receiver.
    Corrupt,
}

/// Fault rates and retry policy. Parsed from `--fault-spec`
/// (`fail=0.1,corrupt=0.05,straggle=0.1,slow=4,retries=5,backoff=0.001`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Probability a non-empty bucket fails to send on a given attempt.
    pub fail_rate: f64,
    /// Probability a non-empty bucket arrives corrupted on a given attempt.
    pub corrupt_rate: f64,
    /// Probability a rank straggles on a given compute step.
    pub straggle_rate: f64,
    /// Slowdown multiplier applied to a straggling rank's step time.
    pub straggle_factor: f64,
    /// Retries allowed after the first attempt, so a round gets
    /// `1 + max_retries` delivery tries before the run fails with
    /// `RunError::ExchangeFailed`.
    pub max_retries: u32,
    /// Base backoff charged to the sim clock before retry `a` (seconds,
    /// doubling per attempt: `backoff_secs * 2^(a-1)`).
    pub backoff_secs: f64,
}

impl Default for FaultSpec {
    /// Moderate default rates so `--fault-seed` alone exercises every
    /// fault path (the acceptance criteria want rates > 0 by default).
    fn default() -> FaultSpec {
        FaultSpec {
            fail_rate: 0.05,
            corrupt_rate: 0.02,
            straggle_rate: 0.05,
            straggle_factor: 3.0,
            max_retries: 4,
            backoff_secs: 1e-3,
        }
    }
}

impl FaultSpec {
    /// The all-zero spec: no faults ever fire, runs are bit-identical to
    /// a plan-free world (pinned by the zero-fault regression test).
    pub fn none() -> FaultSpec {
        FaultSpec {
            fail_rate: 0.0,
            corrupt_rate: 0.0,
            straggle_rate: 0.0,
            straggle_factor: 1.0,
            max_retries: 4,
            backoff_secs: 0.0,
        }
    }

    /// Parses a `key=value` comma list. Unknown keys and unparseable
    /// values are errors; range checks live in [`FaultSpec::validate`] so
    /// the CLI surfaces them through `ConfigError` like every other
    /// configuration problem.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        parse_spec(
            s,
            "fault",
            FaultSpec::default(),
            &[
                ("fail", |spec, v| number(&mut spec.fail_rate, v)),
                ("corrupt", |spec, v| number(&mut spec.corrupt_rate, v)),
                ("straggle", |spec, v| number(&mut spec.straggle_rate, v)),
                ("slow", |spec, v| number(&mut spec.straggle_factor, v)),
                ("retries", |spec, v| integer(&mut spec.max_retries, v)),
                ("backoff", |spec, v| number(&mut spec.backoff_secs, v)),
            ],
        )
    }

    /// Range checks, in `validate_for_width` style: rates in [0, 1], at
    /// least one retry, slowdown ≥ 1, finite non-negative backoff.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("fail", self.fail_rate),
            ("corrupt", self.corrupt_rate),
            ("straggle", self.straggle_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(format!("fault rate {name}={rate} must be in [0, 1]"));
            }
        }
        if self.fail_rate + self.corrupt_rate > 1.0 {
            return Err(format!(
                "fault rates fail+corrupt={} must not exceed 1",
                self.fail_rate + self.corrupt_rate
            ));
        }
        if self.max_retries == 0 {
            return Err("fault spec retries must be at least 1".to_string());
        }
        if !self.straggle_factor.is_finite() || self.straggle_factor < 1.0 {
            return Err(format!(
                "straggle factor slow={} must be >= 1",
                self.straggle_factor
            ));
        }
        if !self.backoff_secs.is_finite() || self.backoff_secs < 0.0 {
            return Err(format!(
                "fault backoff={} must be a non-negative number of seconds",
                self.backoff_secs
            ));
        }
        Ok(())
    }

    /// Is this spec semantically empty — valid, but incapable of ever
    /// producing a fault event? Such plans are normalized away before a
    /// run so every counting engine treats
    /// `--fault-spec fail=0,corrupt=0,straggle=0` exactly like an absent
    /// plan.
    pub fn is_noop(&self) -> bool {
        self.fail_rate == 0.0 && self.corrupt_rate == 0.0 && self.straggle_rate == 0.0
    }
}

/// A seeded, deterministic fault schedule. Cloning is cheap (two words);
/// both network engines and every retry attempt consult the same plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
}

impl FaultPlan {
    /// A plan drawing every fault decision from `seed` under `spec`.
    pub fn new(seed: u64, spec: FaultSpec) -> FaultPlan {
        FaultPlan { seed, spec }
    }

    /// The plan's rates and retry policy.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform `[0, 1)` draw at a fault coordinate.
    fn draw(&self, salt: u64, coords: &[u64]) -> f64 {
        unit_from_coords(self.seed ^ salt, coords)
    }

    /// Fate of the non-empty bucket `src → dst` on `attempt` (0 = first
    /// try) of exchange context `round`. Stateless: every evaluation at
    /// the same coordinate returns the same fate, on any engine. Callers
    /// must treat empty buckets as [`BucketFate::Deliver`] — nothing was
    /// sent, so nothing can fail.
    pub fn bucket_fate(&self, round: u64, attempt: u32, src: usize, dst: usize) -> BucketFate {
        let u = self.draw(SALT_FATE, &[round, attempt as u64, src as u64, dst as u64]);
        if u < self.spec.fail_rate {
            BucketFate::FailSend
        } else if u < self.spec.fail_rate + self.spec.corrupt_rate {
            BucketFate::Corrupt
        } else {
            BucketFate::Deliver
        }
    }

    /// Compute-time multiplier for `rank` on compute step `step`: 1.0
    /// normally, [`FaultSpec::straggle_factor`] when the rank straggles.
    pub fn straggle_factor(&self, step: u64, rank: usize) -> f64 {
        if self.spec.straggle_rate > 0.0
            && self.draw(SALT_STRAGGLE, &[step, rank as u64]) < self.spec.straggle_rate
        {
            self.spec.straggle_factor
        } else {
            1.0
        }
    }
}

/// Rank-death rates and recovery policy. Parsed from `--rank-spec`
/// (`rate=0.05,max-dead=2,kill=1:3` — `kill=ROUND:RANK` may repeat to
/// pin deterministic deaths on top of the drawn schedule).
#[derive(Clone, Debug, PartialEq)]
pub struct RankSpec {
    /// Probability a live rank dies at a given round boundary.
    pub rate: f64,
    /// Most rank deaths the run tolerates before failing cleanly with
    /// `RunError::RanksLost` (the recovery budget).
    pub max_dead: usize,
    /// Pinned `(round, rank)` deaths, independent of the drawn schedule.
    pub kill: Vec<(u64, usize)>,
}

impl Default for RankSpec {
    /// A low default rate so `--rank-seed` alone occasionally kills a
    /// rank, with a budget that keeps most runs recoverable.
    fn default() -> RankSpec {
        RankSpec {
            rate: 0.02,
            max_dead: 2,
            kill: Vec::new(),
        }
    }
}

impl RankSpec {
    /// The no-death spec: no rank ever dies, runs are bit-identical to a
    /// plan-free world (pinned by the zero-death regression test).
    pub fn none() -> RankSpec {
        RankSpec {
            rate: 0.0,
            max_dead: 2,
            kill: Vec::new(),
        }
    }

    /// Parses a `key=value` comma list. Unknown keys and unparseable
    /// values are errors; range checks live in [`RankSpec::validate`] so
    /// the CLI surfaces them through `ConfigError` like every other
    /// configuration problem.
    pub fn parse(s: &str) -> Result<RankSpec, String> {
        parse_spec(
            s,
            "rank",
            RankSpec::default(),
            &[
                ("rate", |spec, v| number(&mut spec.rate, v)),
                ("max-dead", |spec, v| integer(&mut spec.max_dead, v)),
                ("kill", |spec, v| {
                    let (round, rank) = v.split_once(':').ok_or("is not ROUND:RANK")?;
                    let mut kill = (0, 0);
                    integer(&mut kill.0, round.trim())?;
                    integer(&mut kill.1, rank.trim())?;
                    spec.kill.push(kill);
                    Ok(())
                }),
            ],
        )
    }

    /// Range checks, in `FaultSpec::validate` style: rate in [0, 1].
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.rate) || !self.rate.is_finite() {
            return Err(format!(
                "rank death rate rate={} must be in [0, 1]",
                self.rate
            ));
        }
        Ok(())
    }

    /// Is this spec semantically empty — valid, but incapable of ever
    /// killing a rank? Such plans are normalized away before a run so
    /// every counting engine treats `--rank-spec rate=0` exactly like an
    /// absent plan.
    pub fn is_noop(&self) -> bool {
        self.rate == 0.0 && self.kill.is_empty()
    }
}

/// A seeded, deterministic rank-death schedule. Like [`FaultPlan`], a
/// pure function of its coordinates: every engine evaluates
/// [`RankPlan::dies_at`] independently and agrees on which ranks die at
/// which round boundary, without any coordination traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct RankPlan {
    seed: u64,
    spec: RankSpec,
}

impl RankPlan {
    /// A plan drawing every death decision from `seed` under `spec`.
    pub fn new(seed: u64, spec: RankSpec) -> RankPlan {
        RankPlan { seed, spec }
    }

    /// The plan's rate, budget and pinned kills.
    pub fn spec(&self) -> &RankSpec {
        &self.spec
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Does `rank` die at the boundary before exchange round `round`?
    /// Pinned kills fire regardless of the drawn schedule; drawn deaths
    /// guard on `rate > 0` so a zero-rate plan never consults the RNG.
    pub fn dies_at(&self, round: u64, rank: usize) -> bool {
        if self
            .spec
            .kill
            .iter()
            .any(|&(ro, ra)| ro == round && ra == rank)
        {
            return true;
        }
        self.spec.rate > 0.0
            && unit_from_coords(self.seed ^ SALT_RANK, &[round, rank as u64]) < self.spec.rate
    }
}

/// Hash of one wire item, feeding the per-bucket [`ChecksumFrame`]. The
/// BSP engine moves typed payloads (no serialization), so the checksum is
/// computed over item hashes rather than a byte stream; the set of
/// implementors below covers every payload type the engines exchange.
pub trait WireHash {
    /// A 64-bit digest of this item's wire representation.
    fn wire_hash(&self) -> u64;
}

macro_rules! impl_wire_hash_int {
    ($($t:ty),*) => {$(
        impl WireHash for $t {
            #[inline]
            fn wire_hash(&self) -> u64 {
                dedukt_sim::rng::mix64(*self as u64)
            }
        }
    )*};
}
impl_wire_hash_int!(u8, u16, u32, u64, usize, i32, i64);

impl WireHash for u128 {
    #[inline]
    fn wire_hash(&self) -> u64 {
        dedukt_sim::rng::mix64((*self >> 64) as u64) ^ dedukt_sim::rng::mix64(*self as u64)
    }
}

impl<A: WireHash, B: WireHash> WireHash for (A, B) {
    #[inline]
    fn wire_hash(&self) -> u64 {
        dedukt_sim::rng::mix64(self.0.wire_hash().rotate_left(32) ^ self.1.wire_hash())
    }
}

/// Per-bucket checksum frame travelling alongside the payload (a small
/// fixed header, not charged as payload bytes — DESIGN.md §7). The
/// receiver recomputes the frame from the delivered items and discards
/// the bucket on mismatch; injected corruption flips the stored sum, so
/// detection exercises the real verification path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChecksumFrame {
    /// Item count of the bucket.
    pub len: u64,
    /// Order-sensitive mix64 fold of the items' wire hashes.
    pub sum: u64,
}

impl ChecksumFrame {
    /// Computes the frame for a bucket.
    pub fn compute<T: WireHash>(items: &[T]) -> ChecksumFrame {
        let mut sum = 0xC0DE_F00D_u64;
        for item in items {
            sum = dedukt_sim::rng::mix64(sum ^ item.wire_hash());
        }
        ChecksumFrame {
            len: items.len() as u64,
            sum,
        }
    }

    /// Does this frame match the delivered items?
    pub fn matches<T: WireHash>(&self, items: &[T]) -> bool {
        *self == ChecksumFrame::compute(items)
    }

    /// The frame after an in-flight bit flip the checksum is guaranteed
    /// to catch.
    pub fn corrupted(&self) -> ChecksumFrame {
        ChecksumFrame {
            len: self.len,
            sum: self.sum ^ 0x8000_0000_0000_0001,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_key() {
        let spec = FaultSpec::parse(
            "fail=0.1, corrupt=0.05, straggle=0.2, slow=4, retries=5, backoff=0.002",
        )
        .unwrap();
        assert_eq!(spec.fail_rate, 0.1);
        assert_eq!(spec.corrupt_rate, 0.05);
        assert_eq!(spec.straggle_rate, 0.2);
        assert_eq!(spec.straggle_factor, 4.0);
        assert_eq!(spec.max_retries, 5);
        assert_eq!(spec.backoff_secs, 0.002);
        spec.validate().unwrap();
    }

    #[test]
    fn parse_partial_spec_keeps_defaults() {
        let spec = FaultSpec::parse("fail=0.3").unwrap();
        assert_eq!(spec.fail_rate, 0.3);
        assert_eq!(spec.corrupt_rate, FaultSpec::default().corrupt_rate);
        assert_eq!(spec.max_retries, FaultSpec::default().max_retries);
    }

    #[test]
    fn parse_rejects_unknown_keys_and_garbage() {
        assert!(FaultSpec::parse("bogus=1")
            .unwrap_err()
            .contains("unknown fault spec key"));
        assert!(FaultSpec::parse("fail=abc")
            .unwrap_err()
            .contains("not a number"));
        assert!(FaultSpec::parse("retries=1.5")
            .unwrap_err()
            .contains("not an integer"));
        assert!(FaultSpec::parse("fail").unwrap_err().contains("key=value"));
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let s = FaultSpec {
            fail_rate: 1.5,
            ..FaultSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("must be in [0, 1]"));
        let s = FaultSpec {
            max_retries: 0,
            ..FaultSpec::default()
        };
        assert!(s
            .validate()
            .unwrap_err()
            .contains("retries must be at least 1"));
        let s = FaultSpec {
            straggle_factor: 0.5,
            ..FaultSpec::default()
        };
        assert!(s.validate().unwrap_err().contains(">= 1"));
        let s = FaultSpec {
            fail_rate: 0.7,
            corrupt_rate: 0.7,
            ..FaultSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("fail+corrupt"));
        let s = FaultSpec {
            backoff_secs: -1.0,
            ..FaultSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("backoff"));
        FaultSpec::default().validate().unwrap();
        FaultSpec::none().validate().unwrap();
    }

    #[test]
    fn fates_are_deterministic_and_attempt_fresh() {
        let plan = FaultPlan::new(42, FaultSpec::parse("fail=0.4,corrupt=0.2").unwrap());
        for round in 0..4u64 {
            for src in 0..8 {
                for dst in 0..8 {
                    assert_eq!(
                        plan.bucket_fate(round, 0, src, dst),
                        plan.bucket_fate(round, 0, src, dst)
                    );
                }
            }
        }
        // Across 8×8×4 coordinates with fail+corrupt = 0.6, some bucket
        // must see a different fate on attempt 1 than on attempt 0.
        let differs = (0..8usize).any(|src| {
            (0..8usize)
                .any(|dst| plan.bucket_fate(0, 0, src, dst) != plan.bucket_fate(0, 1, src, dst))
        });
        assert!(differs, "attempts should draw fresh fates");
    }

    #[test]
    fn zero_rate_plan_never_faults() {
        let plan = FaultPlan::new(7, FaultSpec::none());
        for round in 0..8u64 {
            for src in 0..16 {
                for dst in 0..16 {
                    assert_eq!(plan.bucket_fate(round, 0, src, dst), BucketFate::Deliver);
                }
            }
            for rank in 0..16 {
                assert_eq!(plan.straggle_factor(round, rank), 1.0);
            }
        }
    }

    #[test]
    fn fate_distribution_tracks_rates() {
        let plan = FaultPlan::new(1234, FaultSpec::parse("fail=0.25,corrupt=0.25").unwrap());
        let mut tally = [0u32; 3];
        let n = 40_000u64;
        for i in 0..n {
            match plan.bucket_fate(i, 0, 0, 1) {
                BucketFate::Deliver => tally[0] += 1,
                BucketFate::FailSend => tally[1] += 1,
                BucketFate::Corrupt => tally[2] += 1,
            }
        }
        for (observed, expect) in tally.iter().zip([0.5, 0.25, 0.25]) {
            let frac = *observed as f64 / n as f64;
            assert!((frac - expect).abs() < 0.02, "tally {tally:?}");
        }
    }

    #[test]
    fn straggle_factor_tracks_rate() {
        let plan = FaultPlan::new(9, FaultSpec::parse("straggle=0.5,slow=8").unwrap());
        let n = 20_000u64;
        let slow = (0..n).filter(|&s| plan.straggle_factor(s, 3) > 1.0).count();
        let frac = slow as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "straggled {frac}");
        assert!((0..n).all(|s| {
            let f = plan.straggle_factor(s, 3);
            f == 1.0 || f == 8.0
        }));
    }

    #[test]
    fn checksum_catches_injected_corruption() {
        let items: Vec<u64> = (0..100).map(|i| i * 31).collect();
        let frame = ChecksumFrame::compute(&items);
        assert!(frame.matches(&items));
        assert!(!frame.corrupted().matches(&items));
        // Order-sensitive and length-sensitive.
        let mut swapped = items.clone();
        swapped.swap(3, 97);
        assert!(!frame.matches(&swapped));
        assert!(!frame.matches(&items[..99]));
        // Tuples (supermer payloads) hash too.
        let pairs: Vec<(u64, u8)> = (0..50).map(|i| (i as u64, (i % 7) as u8)).collect();
        let pf = ChecksumFrame::compute(&pairs);
        assert!(pf.matches(&pairs));
        let mut tweaked = pairs.clone();
        tweaked[10].1 ^= 1;
        assert!(!pf.matches(&tweaked));
        // u128 halves both contribute.
        let wide = vec![1u128 << 90, 5u128];
        let wf = ChecksumFrame::compute(&wide);
        assert!(wf.matches(&wide));
        assert!(!wf.matches(&[1u128 << 90, 4u128]));
    }

    #[test]
    fn empty_bucket_frame_is_stable() {
        let a: ChecksumFrame = ChecksumFrame::compute::<u64>(&[]);
        assert_eq!(a.len, 0);
        assert!(a.matches::<u64>(&[]));
    }

    #[test]
    fn rank_spec_parse_roundtrips_every_key() {
        let spec = RankSpec::parse("rate=0.1, max-dead=3, kill=1:4, kill=2:0").unwrap();
        assert_eq!(spec.rate, 0.1);
        assert_eq!(spec.max_dead, 3);
        assert_eq!(spec.kill, vec![(1, 4), (2, 0)]);
        spec.validate().unwrap();
    }

    #[test]
    fn rank_spec_parse_partial_keeps_defaults() {
        let spec = RankSpec::parse("rate=0.5").unwrap();
        assert_eq!(spec.rate, 0.5);
        assert_eq!(spec.max_dead, RankSpec::default().max_dead);
        assert!(spec.kill.is_empty());
    }

    #[test]
    fn rank_spec_parse_rejects_unknown_keys_and_garbage() {
        assert!(RankSpec::parse("bogus=1")
            .unwrap_err()
            .contains("unknown rank spec key"));
        assert!(RankSpec::parse("rate=abc")
            .unwrap_err()
            .contains("not a number"));
        assert!(RankSpec::parse("max-dead=1.5")
            .unwrap_err()
            .contains("not an integer"));
        assert!(RankSpec::parse("kill=3")
            .unwrap_err()
            .contains("ROUND:RANK"));
        assert!(RankSpec::parse("kill=a:0")
            .unwrap_err()
            .contains("not an integer"));
        assert!(RankSpec::parse("rate").unwrap_err().contains("key=value"));
    }

    #[test]
    fn rank_spec_validate_rejects_out_of_range() {
        let s = RankSpec {
            rate: 1.5,
            ..RankSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("must be in [0, 1]"));
        let s = RankSpec {
            rate: f64::NAN,
            ..RankSpec::default()
        };
        assert!(s.validate().is_err());
        RankSpec::default().validate().unwrap();
        RankSpec::none().validate().unwrap();
    }

    #[test]
    fn rank_deaths_are_deterministic_and_pinned_kills_fire() {
        let plan = RankPlan::new(42, RankSpec::parse("rate=0.3,kill=2:5").unwrap());
        for round in 0..8u64 {
            for rank in 0..16 {
                assert_eq!(plan.dies_at(round, rank), plan.dies_at(round, rank));
            }
        }
        assert!(plan.dies_at(2, 5), "pinned kill must fire");
        // A pinned kill fires even on a zero-rate plan.
        let pinned = RankPlan::new(0, RankSpec::parse("rate=0,kill=1:3").unwrap());
        assert!(pinned.dies_at(1, 3));
        assert!(!pinned.dies_at(1, 2));
        assert!(!pinned.dies_at(0, 3));
    }

    #[test]
    fn zero_rate_rank_plan_never_kills() {
        let plan = RankPlan::new(7, RankSpec::none());
        for round in 0..32u64 {
            for rank in 0..64 {
                assert!(!plan.dies_at(round, rank));
            }
        }
    }

    #[test]
    fn rank_death_distribution_tracks_rate() {
        let plan = RankPlan::new(1234, RankSpec::parse("rate=0.25").unwrap());
        let n = 40_000u64;
        let dead = (0..n).filter(|&r| plan.dies_at(r, 3)).count();
        let frac = dead as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "died {frac}");
    }

    #[test]
    fn rank_deaths_do_not_alias_other_fault_streams() {
        // Same coordinates, different salts: death draws must not mirror
        // straggle draws.
        let fp = FaultPlan::new(9, FaultSpec::parse("straggle=0.5").unwrap());
        let rp = RankPlan::new(9, RankSpec::parse("rate=0.5").unwrap());
        let mirrored = (0..256usize).all(|r| (fp.straggle_factor(1, r) > 1.0) == rp.dies_at(1, r));
        assert!(!mirrored, "salt separation failed");
    }

    #[test]
    fn noop_specs_are_detected() {
        assert!(FaultSpec::none().is_noop());
        assert!(!FaultSpec::default().is_noop());
        assert!(FaultSpec::parse("fail=0,corrupt=0,straggle=0")
            .unwrap()
            .is_noop());
        // A straggle-only spec still perturbs timing — not a noop.
        assert!(!FaultSpec::parse("fail=0,corrupt=0,straggle=0.5")
            .unwrap()
            .is_noop());
        assert!(RankSpec::none().is_noop());
        assert!(!RankSpec::default().is_noop());
        assert!(RankSpec::parse("rate=0").unwrap().is_noop());
        assert!(!RankSpec::parse("rate=0,kill=0:1").unwrap().is_noop());
    }
}
