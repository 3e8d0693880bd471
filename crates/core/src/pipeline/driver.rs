//! The staged superstep driver shared by all three counters.
//!
//! Every pipeline in the paper has the same skeleton: a bucketing compute
//! phase, an `MPI_Alltoallv` (optionally split into memory-bounded rounds,
//! §III-A), and a counting phase. The driver owns that skeleton once —
//! world setup, the balanced-minimizer pre-pass, round slicing, the round
//! loop with optional compute/exchange overlap, phase accounting, and
//! report assembly — while a [`CounterStages`] implementation supplies the
//! counter-specific hooks (what to bucket, how items move on the wire,
//! how received items are counted).
//!
//! ## Rounds and overlap
//!
//! With `round_limit_bytes` set, the outgoing buckets are sliced into
//! rounds so no rank sends more than the cap per round
//! ([`split_rounds_weighted`]); received rounds are counted into a table
//! sized for the *total* expected load, so results are bit-identical to a
//! single-round run regardless of the cap.
//!
//! With `overlap_rounds` additionally set, round `r`'s exchange is issued
//! non-blocking while round `r-1`'s count kernel runs on the rank's
//! device stream: the rank is charged `max(wire, count)` per round
//! instead of their sum ([`BspWorld::alltoallv_overlapped`]), and only the
//! final round's count remains exposed as the count phase. Payloads,
//! counts, and volumes are unaffected — overlap changes *when* simulated
//! work happens, never *what* is computed.

use crate::config::{CountingConfig, RunConfig};
use crate::partition::surviving_owner;
use crate::pipeline::gpu_common::split_rounds_weighted;
use crate::pipeline::{assemble_counts, RankCountResult, RunError, RunReport};
use crate::stats::{ExchangeSummary, PhaseBreakdown, WallClock};
use crate::width::PackedKmer;
use dedukt_dna::ReadSet;
use dedukt_hash::Murmur3x64;
use dedukt_net::cost::Network;
use dedukt_net::BspWorld;
use dedukt_sim::{Journal, JournalEvent, MetricsRegistry, SimTime};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// A counter table lifted out of the live world — for checkpoints the
/// first field is the rounds covered, for salvage it is the result slot
/// the entries are credited to; either way it awaits the merge-by-key
/// fold at assembly ([`fold_salvaged`]).
type SalvagedTable<K> = (usize, Vec<(K, u32)>, u64);

/// Run-wide context handed to every [`CounterStages`] hook.
pub(crate) struct DriverCtx<'a> {
    /// The full run configuration.
    pub rc: &'a RunConfig,
    /// Shorthand for `rc.counting`.
    pub cfg: CountingConfig,
    /// Total ranks.
    pub nranks: usize,
    /// Per-rank read partitions.
    pub parts: Vec<ReadSet>,
    /// The run's routing hasher (seeded with `cfg.hash_seed`).
    pub hasher: Murmur3x64,
    /// Telemetry registry, when `rc.collect_metrics` is set.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

/// What one rank's bucketing phase produced.
pub(crate) struct BucketOut<I> {
    /// `buckets[dst]` — items routed to each destination rank.
    pub buckets: Vec<Vec<I>>,
    /// Simulated duration of the bucketing compute itself.
    pub compute: SimTime,
    /// Device→host staging time for the outgoing buffers (zero on the
    /// CPU pipeline and under GPUDirect).
    pub stage_out: SimTime,
}

/// What one exchange round delivered.
pub(crate) struct RoundRecv<I> {
    /// `items[dst]` — everything rank `dst` received this round,
    /// concatenated in source-rank order.
    pub items: Vec<Vec<I>>,
    /// `undelivered[src][dst]` — buckets lost to an injected fault this
    /// attempt, in send-matrix shape so the driver can feed them straight
    /// back into the next attempt. All empty on a fault-free fabric.
    pub undelivered: Vec<Vec<Vec<I>>>,
    /// Buckets that failed to send this attempt.
    pub failed_sends: u64,
    /// Buckets that arrived corrupt (checksum mismatch) this attempt.
    pub corrupt_buckets: u64,
    /// Mean per-rank pure wire time of the round's collective(s).
    pub wire_mean: SimTime,
    /// Mean per-rank *charged* time: equals `wire_mean` for a blocking
    /// round, `max(wire, hidden compute)` for an overlapped one.
    pub charged_mean: SimTime,
}

/// A counting stage ran out of device memory and could not recover —
/// the grow path was denied *and* the host spill budget is exhausted
/// (or even the initial table allocation failed). The driver converts
/// this into [`RunError::DeviceOom`], gathering every rank's high-water
/// mark for the message.
pub(crate) struct CounterOom {
    /// What failed, from the counting stage (allocation request sizes,
    /// spill budget).
    pub detail: String,
    /// The failing rank's device-allocation high-water mark in bytes.
    pub high_water_bytes: u64,
}

/// Memory-pressure telemetry one rank's counter accumulated; all zero
/// on an unconstrained run (and always zero on the CPU pipeline, which
/// has no device budget — its tables grow transparently on the host).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PressureStats {
    /// k-mer instances parked on the host spill list (feeds the
    /// "spill k-mers" trace lane).
    pub spilled: u64,
    /// Successful grow-and-rehash events.
    pub regrows: u64,
    /// Denied grow allocations the counter recovered from by spilling.
    pub oom_events: u64,
    /// Device-allocation high-water mark in bytes. Nonzero even on an
    /// unpressured run — gate pressure-only telemetry on the event
    /// counts above, never on this.
    pub high_water_bytes: u64,
}

impl PressureStats {
    /// Did any pressure event actually fire on this rank? The gate for
    /// the pressure-only trace lanes and journal events, keeping
    /// unconstrained runs' output schemas untouched.
    pub fn fired(&self) -> bool {
        self.spilled + self.regrows + self.oom_events > 0
    }
}

/// The counter-specific hooks of one pipeline; everything else —
/// world setup, round slicing, the superstep loop, phase accounting,
/// report assembly — lives in [`run_staged`].
pub(crate) trait CounterStages: Sync {
    /// The packed key width this counter runs at: `u64` for the paper's
    /// narrow regime (k ≤ 31), `u128` for wide k (≤ 63). Everything
    /// width-dependent — wire bytes, table slots, packing bounds — is
    /// derived from this one type.
    type Key: PackedKmer;
    /// What moves on the wire (a packed k-mer, a supermer word+length).
    /// `Clone` because rank-failure recovery retains sent rounds and
    /// replays a dead rank's slice of them into the survivors.
    type Item: Send + Clone;
    /// Per-rank counting state threaded through the rounds.
    type Counter: Send;

    /// Serialized size of one item on the wire, in bytes. Used for the
    /// round cap; may differ from the item's in-memory size.
    const ITEM_WIRE_BYTES: u64;
    /// Trace/phase name of the bucketing compute step.
    const BUCKET_PHASE: &'static str;

    /// The machine this counter runs on.
    fn network(&self, rc: &RunConfig) -> Network;

    /// Optional pre-pass before bucketing (the §VII balanced-minimizer
    /// sampling). Returns its simulated duration, folded into the parse
    /// phase.
    fn prepass(&mut self, _ctx: &DriverCtx, _world: &mut BspWorld) -> SimTime {
        SimTime::ZERO
    }

    /// Bucket rank `rank`'s partition by destination.
    fn bucket(&self, ctx: &DriverCtx, rank: usize) -> BucketOut<Self::Item>;

    /// How many k-mer instances counting `item` will insert (1 for a
    /// k-mer, `len - k + 1` for a supermer). Sizes the count tables for
    /// the *total* load so round splitting cannot change results.
    fn item_instances(&self, ctx: &DriverCtx, item: &Self::Item) -> u64;

    /// Move one round through the wire. `hidden`, when present, carries
    /// per-rank compute times to overlap behind the collective (the
    /// previous round's count kernels).
    fn exchange_round(
        &self,
        world: &mut BspWorld,
        round: Vec<Vec<Vec<Self::Item>>>,
        hidden: Option<&[SimTime]>,
    ) -> RoundRecv<Self::Item>;

    /// Host→device staging time for everything a rank received (zero on
    /// the CPU pipeline and under GPUDirect).
    fn stage_in(&self, _ctx: &DriverCtx, _received_items: u64) -> SimTime {
        SimTime::ZERO
    }

    /// Create rank `rank`'s counter, sized for `expected_instances`
    /// k-mer inserts across *all* rounds (scaled by the run's safety
    /// factor and any injected underestimate). Errs only when even the
    /// initial table cannot be allocated on the device.
    fn make_counter(
        &self,
        ctx: &DriverCtx,
        rank: usize,
        expected_instances: u64,
    ) -> Result<Self::Counter, CounterOom>;

    /// Count one round's received items; returns the simulated kernel
    /// time (charged either as hidden compute or in the count phase).
    /// Errs only when the rank exhausted both the device budget and its
    /// host spill budget.
    fn count_round(
        &self,
        ctx: &DriverCtx,
        counter: &mut Self::Counter,
        items: Vec<Self::Item>,
    ) -> Result<SimTime, CounterOom>;

    /// This counter's memory-pressure telemetry so far. The default is
    /// the all-zero report, right for counters with no device budget
    /// (the CPU pipeline).
    fn pressure(&self, _counter: &Self::Counter) -> PressureStats {
        PressureStats::default()
    }

    /// Non-consuming snapshot of the counter's current `(kmer, count)`
    /// entries and counted instances — the checkpoint and rescale
    /// salvage hook (DESIGN.md §11). Must reflect everything
    /// [`CounterStages::finish`] would report at this point, spill
    /// lists included.
    fn snapshot_counts(&self, counter: &Self::Counter) -> (Vec<(Self::Key, u32)>, u64);

    /// Drain the counter into the rank's result (and record its
    /// counting telemetry).
    fn finish(
        &self,
        ctx: &DriverCtx,
        rank: usize,
        counter: Self::Counter,
    ) -> RankCountResult<Self::Key>;
}

/// Runs one counter through the shared staged superstep skeleton.
///
/// Errs when a fault plan's retry budget is exhausted mid-exchange
/// ([`RunError::ExchangeFailed`]) or when a rank exhausts both the
/// device budget and its host spill budget while counting
/// ([`RunError::DeviceOom`]); unconstrained fault-free runs always
/// succeed.
pub(crate) fn run_staged<S: CounterStages>(
    stages: &mut S,
    reads: &ReadSet,
    rc: &RunConfig,
) -> Result<RunReport<S::Key>, RunError> {
    let wall_run = Instant::now();
    let nranks = rc.nranks();
    let mut net = stages.network(rc);
    net.params.algo = rc.exchange_algo;
    let mut world = BspWorld::new(net);
    assert_eq!(world.nranks(), nranks);
    let metrics = rc.collect_metrics.then(|| Arc::new(MetricsRegistry::new()));
    if let Some(m) = &metrics {
        world.enable_metrics(Arc::clone(m));
    }
    if let Some(plan) = rc.fault {
        world.enable_faults(plan);
    }
    let journal = rc.collect_journal.then(|| Arc::new(Journal::new()));
    if let Some(j) = &journal {
        world.enable_journal(Arc::clone(j));
        j.push(JournalEvent::Meta {
            mode: rc.mode.label().to_string(),
            nodes: rc.nodes,
            nranks,
            detail: run_detail(rc),
        });
    }
    let ctx = DriverCtx {
        rc,
        cfg: rc.counting,
        nranks,
        parts: reads.partition_by_bases(nranks),
        hasher: Murmur3x64::new(rc.counting.hash_seed),
        metrics: metrics.clone(),
    };

    // ── Pre-pass + bucketing (parse phase) ─────────────────────────────
    let prepass_time = stages.prepass(&ctx, &mut world);
    let stages = &*stages; // shared from here on; compute steps capture it
    let (bucket_out, bucket_step) = world.compute_step_named(S::BUCKET_PHASE, |rank| {
        let b = stages.bucket(&ctx, rank);
        ((b.buckets, b.stage_out), b.compute)
    });
    let mut buckets = Vec::with_capacity(nranks);
    let mut stage_out_times = Vec::with_capacity(nranks);
    for (b, t) in bucket_out {
        buckets.push(b);
        stage_out_times.push(t);
    }
    let units: u64 = buckets
        .iter()
        .flat_map(|row| row.iter().map(|v| v.len() as u64))
        .sum();
    // Expected inserts per destination, over ALL rounds — count tables
    // are sized for the full load up front, so slicing the exchange into
    // rounds cannot change probe sequences or results.
    let mut expected = vec![0u64; nranks];
    for row in &buckets {
        for (dst, payload) in row.iter().enumerate() {
            for item in payload {
                expected[dst] += stages.item_instances(&ctx, item);
            }
        }
    }

    let wall_parse = wall_run.elapsed().as_secs_f64();
    let wall_rounds_start = Instant::now();

    // ── Exchange + count rounds ────────────────────────────────────────
    let (_, stage_out_step) =
        world.compute_step_named("stage-out", |rank| ((), stage_out_times[rank]));
    let rounds = split_rounds_weighted(buckets, rc.round_limit_bytes, S::ITEM_WIRE_BYTES);
    let nrounds = rounds.len();
    let made: Vec<Result<S::Counter, CounterOom>> = (0..nranks)
        .into_par_iter()
        .map(|rank| stages.make_counter(&ctx, rank, expected[rank]))
        .collect();
    if made.iter().any(|r| r.is_err()) {
        return Err(device_oom_error(stages, made));
    }
    let mut counters: Vec<S::Counter> = made.into_iter().map(|r| r.ok().unwrap()).collect();
    let mut received_items = vec![0u64; nranks];
    let mut count_totals = vec![SimTime::ZERO; nranks];
    let mut last_round_times = vec![SimTime::ZERO; nranks];
    let mut prev_round_times: Option<Vec<SimTime>> = None;
    let mut wire_total = SimTime::ZERO;
    let mut charged_total = SimTime::ZERO;
    // Fault-recovery accounting, all zero on a perfect fabric: retry
    // attempts and their backoffs are charged to `recovery_total`,
    // keeping `wire_total`/`charged_total` pure first-attempt time.
    let fault_spec = rc.fault.map(|p| *p.spec());
    let mut recovery_total = SimTime::ZERO;
    let mut retries_total = 0u64;
    let mut corrupt_total = 0u64;
    // ── Rank-failure and elastic-rescale state (DESIGN.md §11) ─────────
    // `range_owner[d]` maps base minimizer range `d` (the rank that owns
    // it at full strength) to the rank currently counting it — identity
    // until a death or rescale, so plan-free runs take today's exact
    // code path, byte for byte.
    let rank_plan = rc.rank.clone();
    let recovery_active = rank_plan.is_some() || !rc.rescale.is_empty();
    let rank_seed = rank_plan
        .as_ref()
        .map_or(rc.counting.hash_seed, |p| p.seed());
    let mut alive = vec![true; nranks];
    let mut range_owner: Vec<usize> = (0..nranks).collect();
    // First round whose range-`d` traffic the current owner's *live*
    // counter holds; everything earlier sits in `salvaged` or was
    // replayed into it. The invariant the whole recovery path keeps:
    // counter(range_owner[d]) holds range-`d` rounds [range_from[d]..now)
    // and nothing else of range `d`.
    let mut range_from = vec![0usize; nranks];
    // `history[round][d]`: range-`d` payload of `round` in source-rank
    // order — exactly what the owner received, and the replay source
    // when an owner dies. Retained only while a plan is active.
    let mut history: Vec<Vec<Vec<S::Item>>> = Vec::new();
    // Per-rank checkpoint: (rounds covered, entries, instances).
    let mut snaps: Vec<Option<SalvagedTable<S::Key>>> = (0..nranks).map(|_| None).collect();
    // Salvaged (slot, entries, instances) tables awaiting the
    // merge-by-key fold at assembly ([`fold_salvaged`]).
    let mut salvaged: Vec<SalvagedTable<S::Key>> = Vec::new();
    let mut rescale_sched = rc.rescale.iter().copied().peekable();
    let mut dead_total: usize = 0;
    let mut replayed_bytes_total = 0u64;
    for (round_idx, round) in rounds.into_iter().enumerate() {
        // ── Round boundary: graceful rescale, then drawn deaths ────────
        while rescale_sched
            .peek()
            .is_some_and(|&(ro, _)| ro == round_idx as u64)
        {
            let (_, target) = rescale_sched.next().expect("peeked");
            let from = alive.iter().filter(|&&a| a).count();
            if let Some(j) = &journal {
                j.push(JournalEvent::Rescale {
                    round: round_idx as u64,
                    from,
                    to: target,
                });
            }
            // Shrink: ranks at index >= target depart gracefully. Their
            // whole table is salvaged (merged by key at assembly) and
            // their ranges pass to survivors for future rounds only —
            // a departure needs no replay, unlike a death.
            for r in target..nranks {
                if !alive[r] {
                    continue;
                }
                let (entries, instances) = stages.snapshot_counts(&counters[r]);
                salvaged.push((r, entries, instances));
                snaps[r] = None;
                alive[r] = false;
                let fresh = fresh_counter_or_oom(stages, &ctx, &counters, r, expected[r])?;
                counters[r] = fresh;
            }
            if !alive.iter().any(|&a| a) {
                return Err(RunError::RanksLost {
                    dead: nranks,
                    round: round_idx as u64,
                });
            }
            for d in 0..nranks {
                if !alive[range_owner[d]] {
                    range_owner[d] = surviving_owner(rank_seed, d, &alive);
                    range_from[d] = round_idx;
                }
            }
            // Grow: departed ranks below the new world size rejoin and
            // take back their own base range, future rounds only. The
            // range's interim holder is fully salvaged and restarted so
            // its live counter never splits a key's count with the
            // rejoiner's — the invariant the fold depends on.
            for r in 0..target.min(nranks) {
                if alive[r] {
                    continue;
                }
                alive[r] = true;
                let holder = range_owner[r];
                if holder != r {
                    let (entries, instances) = stages.snapshot_counts(&counters[holder]);
                    salvaged.push((holder, entries, instances));
                    snaps[holder] = None;
                    let fresh =
                        fresh_counter_or_oom(stages, &ctx, &counters, holder, expected[holder])?;
                    counters[holder] = fresh;
                    for d in 0..nranks {
                        if range_owner[d] == holder {
                            range_from[d] = round_idx;
                        }
                    }
                    range_owner[r] = r;
                    range_from[r] = round_idx;
                }
            }
        }
        if let Some(plan) = &rank_plan {
            // Deaths drawn at this boundary (coordinate-hashed, so both
            // engines agree without coordination). The dead rank's live
            // table is unrecoverable; its checkpoint (if any) is
            // salvaged and the gap since is replayed from `history`
            // into each range's next owner.
            let mut replay_to = vec![0u64; nranks];
            let mut replay_kernels = SimTime::ZERO;
            for r in 0..nranks {
                if !alive[r] || !plan.dies_at(round_idx as u64, r) {
                    continue;
                }
                alive[r] = false;
                dead_total += 1;
                if let Some(j) = &journal {
                    j.push(JournalEvent::RankDead {
                        rank: r,
                        round: round_idx as u64,
                    });
                }
                if dead_total > plan.spec().max_dead || !alive.iter().any(|&a| a) {
                    return Err(RunError::RanksLost {
                        dead: dead_total,
                        round: round_idx as u64,
                    });
                }
                let ckpt = snaps[r].take();
                let floor = ckpt.as_ref().map_or(0, |&(c, _, _)| c);
                if let Some((_, entries, instances)) = ckpt {
                    salvaged.push((r, entries, instances));
                }
                for d in 0..nranks {
                    if range_owner[d] != r {
                        continue;
                    }
                    let new_owner = surviving_owner(rank_seed, d, &alive);
                    let start = range_from[d].max(floor);
                    let mut items: Vec<S::Item> = Vec::new();
                    for col in &history[start..round_idx] {
                        items.extend(col[d].iter().cloned());
                    }
                    if !items.is_empty() {
                        replay_to[new_owner] += items.len() as u64 * S::ITEM_WIRE_BYTES;
                        match stages.count_round(&ctx, &mut counters[new_owner], items) {
                            Ok(t) => replay_kernels += t,
                            Err(e) => {
                                let mut high_water: Vec<u64> = counters
                                    .iter()
                                    .map(|c| stages.pressure(c).high_water_bytes)
                                    .collect();
                                high_water[new_owner] =
                                    high_water[new_owner].max(e.high_water_bytes);
                                return Err(RunError::DeviceOom {
                                    rank: new_owner,
                                    detail: e.detail,
                                    high_water_bytes: high_water,
                                });
                            }
                        }
                    }
                    range_owner[d] = new_owner;
                    range_from[d] = start;
                    // The new owner's checkpoint predates the replayed
                    // content — using it after a later death would lose
                    // the replay. Re-validated at the next tick.
                    snaps[new_owner] = None;
                }
                let fresh = fresh_counter_or_oom(stages, &ctx, &counters, r, expected[r])?;
                counters[r] = fresh;
            }
            // Charge the replay traffic: survivors re-parse the dead
            // rank's deterministic input slice, so the bytes enter the
            // fabric spread across the live sources and land on each
            // range's new owner — priced by the same Alltoallv model as
            // the real exchange, charged as recovery time.
            let replay_bytes: u64 = replay_to.iter().sum();
            if replay_bytes > 0 {
                let alive_srcs: Vec<usize> = (0..nranks).filter(|&r| alive[r]).collect();
                let mut matrix = vec![vec![0u64; nranks]; nranks];
                for (dst, &bytes) in replay_to.iter().enumerate() {
                    if bytes == 0 {
                        continue;
                    }
                    let share = bytes / alive_srcs.len() as u64;
                    let mut rem = bytes % alive_srcs.len() as u64;
                    for &src in &alive_srcs {
                        matrix[src][dst] = share
                            + if rem > 0 {
                                rem -= 1;
                                1
                            } else {
                                0
                            };
                    }
                }
                let net = *world.network();
                let times = net.alltoallv_times(&matrix);
                let wire = SimTime::from_secs(
                    times.iter().map(|t| t.as_secs()).sum::<f64>() / nranks as f64,
                );
                let kernels = SimTime::from_secs(replay_kernels.as_secs() / nranks as f64);
                world.advance_all("replay", wire + kernels);
                recovery_total += wire + kernels;
                replayed_bytes_total += replay_bytes;
            }
        }
        // Retain this round's per-range payload for future replay, then
        // steer each base range's column to its current owner. With the
        // identity mapping the remap is skipped and the send matrix is
        // untouched. Dead ranks keep sending (the survivors re-parse
        // their input slice) but own no range, so they receive nothing.
        let round = if recovery_active {
            let mut cols: Vec<Vec<S::Item>> = (0..nranks).map(|_| Vec::new()).collect();
            for row in &round {
                for (d, payload) in row.iter().enumerate() {
                    cols[d].extend(payload.iter().cloned());
                }
            }
            history.push(cols);
            if range_owner.iter().enumerate().any(|(d, &o)| o != d) {
                round
                    .into_iter()
                    .map(|row| {
                        let mut remapped: Vec<Vec<S::Item>> =
                            (0..nranks).map(|_| Vec::new()).collect();
                        for (d, mut payload) in row.into_iter().enumerate() {
                            remapped[range_owner[d]].append(&mut payload);
                        }
                        remapped
                    })
                    .collect()
            } else {
                round
            }
        } else {
            round
        };
        // Double-buffered overlap: while this round is on the wire, the
        // previous round's count kernel runs on each rank's stream.
        let hidden = if rc.overlap_rounds {
            prev_round_times.take()
        } else {
            None
        };
        world.fault_context(round_idx as u64, 0);
        let mut rr = stages.exchange_round(&mut world, round, hidden.as_deref());
        wire_total += rr.wire_mean;
        charged_total += rr.charged_mean;
        let mut delivered = rr.items;
        // Bounded retry-with-backoff: re-offer only the failed/corrupt
        // buckets, with the backoff and the retry collective charged to
        // the sim clock as recovery time. Exhausting the budget is a
        // clean run failure, never a panic.
        let mut attempt: u32 = 1;
        while rr.failed_sends + rr.corrupt_buckets > 0 {
            let spec = fault_spec.expect("faults cannot fire without a plan");
            retries_total += rr.failed_sends + rr.corrupt_buckets;
            corrupt_total += rr.corrupt_buckets;
            if attempt > spec.max_retries {
                return Err(RunError::ExchangeFailed {
                    round: round_idx as u64,
                    attempts: attempt,
                });
            }
            let backoff =
                SimTime::from_secs(spec.backoff_secs * (1u64 << (attempt - 1).min(20)) as f64);
            if let Some(j) = &journal {
                j.push(JournalEvent::Retry {
                    round: round_idx as u64,
                    attempt,
                    failed: rr.failed_sends,
                    corrupt: rr.corrupt_buckets,
                    backoff: backoff.as_secs(),
                });
            }
            world.advance_all("retry-backoff", backoff);
            world.fault_context(round_idx as u64, attempt);
            rr = stages.exchange_round(&mut world, rr.undelivered, None);
            recovery_total += backoff + rr.charged_mean;
            for (dst, items) in rr.items.iter_mut().enumerate() {
                delivered[dst].append(items);
            }
            attempt += 1;
        }
        world.clear_fault_context();
        for (rank, items) in delivered.iter().enumerate() {
            received_items[rank] += items.len() as u64;
        }
        // Count this round (functionally now; its simulated time is
        // charged either as the next round's hidden compute or in the
        // final count step).
        let paired: Vec<(S::Counter, Vec<S::Item>)> = counters.into_iter().zip(delivered).collect();
        let counted: Vec<(S::Counter, Result<SimTime, CounterOom>)> = paired
            .into_par_iter()
            .map(|(mut c, items)| {
                let dt = stages.count_round(&ctx, &mut c, items);
                (c, dt)
            })
            .collect();
        let mut times = Vec::with_capacity(nranks);
        counters = Vec::with_capacity(nranks);
        let mut oom: Option<(usize, CounterOom)> = None;
        for (rank, (c, r)) in counted.into_iter().enumerate() {
            match r {
                Ok(t) => times.push(t),
                Err(e) => {
                    // Keep the first failing rank's story; the counters
                    // themselves survive so every rank's high-water mark
                    // makes it into the error.
                    if oom.is_none() {
                        oom = Some((rank, e));
                    }
                    times.push(SimTime::ZERO);
                }
            }
            counters.push(c);
        }
        if let Some((rank, e)) = oom {
            let mut high_water: Vec<u64> = counters
                .iter()
                .map(|c| stages.pressure(c).high_water_bytes)
                .collect();
            high_water[rank] = high_water[rank].max(e.high_water_bytes);
            return Err(RunError::DeviceOom {
                rank,
                detail: e.detail,
                high_water_bytes: high_water,
            });
        }
        // Cumulative spill samples feed a dedicated trace counter lane —
        // emitted only when pressure actually spilled something, so an
        // unconstrained run's trace schema is untouched.
        if rc.collect_trace {
            for (rank, c) in counters.iter().enumerate() {
                let p = stages.pressure(c);
                if p.spilled > 0 {
                    world.push_counter_sample("spill k-mers", rank, p.spilled as f64);
                }
                // The HBM lane exists only for ranks where pressure
                // actually fired — high-water marks are nonzero on every
                // run, so gating on them would change clean-run traces.
                if p.fired() {
                    world.push_counter_sample("hbm bytes", rank, p.high_water_bytes as f64);
                }
            }
        }
        for (rank, t) in times.iter().enumerate() {
            count_totals[rank] += *t;
        }
        last_round_times.clone_from(&times);
        prev_round_times = Some(times);
        // Checkpoint tick: every `--checkpoint-rounds N` counted rounds,
        // snapshot each live counter so a later death replays only the
        // gap since the snapshot instead of the whole run.
        if recovery_active {
            if let Some(n) = rc.checkpoint_rounds {
                if (round_idx as u64 + 1).is_multiple_of(n) {
                    for (r, c) in counters.iter().enumerate() {
                        if alive[r] {
                            let (entries, instances) = stages.snapshot_counts(c);
                            snaps[r] = Some((round_idx + 1, entries, instances));
                        }
                    }
                }
            }
        }
    }
    let wall_rounds = wall_rounds_start.elapsed().as_secs_f64();
    let wall_finish_start = Instant::now();
    let (_, stage_in_step) = world.compute_step_named("stage-in", |rank| {
        ((), stages.stage_in(&ctx, received_items[rank]))
    });

    // ── Count phase drain ──────────────────────────────────────────────
    // Under overlap every round but the last was hidden behind a wire;
    // only the final round's kernel remains exposed. (With one round the
    // two are identical — there was nothing to hide behind.)
    let drain = if rc.overlap_rounds {
        last_round_times
    } else {
        count_totals
    };
    let (_, count_step) = world.compute_step_named("count", |rank| ((), drain[rank]));
    // Recovery accounting: one journal event per rank-and-kind of memory
    // pressure that actually fired (unpressured runs journal nothing
    // here, mirroring the pressure metrics' existence discipline).
    if let Some(j) = &journal {
        for (rank, c) in counters.iter().enumerate() {
            let p = stages.pressure(c);
            if p.regrows > 0 {
                j.push(JournalEvent::Regrow {
                    rank,
                    count: p.regrows,
                });
            }
            if p.spilled > 0 {
                j.push(JournalEvent::Spill {
                    rank,
                    kmers: p.spilled,
                });
            }
            if p.oom_events > 0 {
                j.push(JournalEvent::Oom {
                    rank,
                    detail: format!(
                        "{} grow allocation(s) denied; recovered by spilling to host",
                        p.oom_events
                    ),
                });
            }
        }
    }
    // Each rank's entries come back in hash-slot order, which depends on
    // how the device threads interleaved; sorting by key makes the
    // per-rank tables a deterministic function of the input.
    let indexed: Vec<(usize, S::Counter)> = counters.into_iter().enumerate().collect();
    let mut rank_results: Vec<RankCountResult<S::Key>> = indexed
        .into_par_iter()
        .map(|(rank, c)| {
            let mut result = stages.finish(&ctx, rank, c);
            result.entries.sort_unstable_by_key(|&(key, _)| key);
            result
        })
        .collect();
    if !salvaged.is_empty() {
        fold_salvaged(&mut rank_results, salvaged);
        for r in &mut rank_results {
            r.entries.sort_unstable_by_key(|&(key, _)| key);
        }
    }

    // ── Report assembly ────────────────────────────────────────────────
    let phases = PhaseBreakdown {
        parse: prepass_time + bucket_step.mean,
        exchange: stage_out_step.mean + charged_total + recovery_total + stage_in_step.mean,
        count: count_step.mean,
    };
    let makespan = world.elapsed();
    let wall_finish = wall_finish_start.elapsed().as_secs_f64();
    let wall = WallClock {
        parse: wall_parse,
        rounds: wall_rounds,
        finish: wall_finish,
        total: wall_run.elapsed().as_secs_f64(),
    };
    if let Some(m) = &metrics {
        // Fault-recovery series exist only when recovery happened, so a
        // zero-fault plan leaves the metrics schema untouched.
        if retries_total > 0 {
            m.counter_add("retries_total", None, retries_total);
            m.counter_add("corrupt_buckets_total", None, corrupt_total);
        }
        if dead_total > 0 {
            m.counter_add("rank_deaths_total", None, dead_total as u64);
            m.counter_add("exchange_replay_bytes_total", None, replayed_bytes_total);
        }
        if retries_total > 0 || dead_total > 0 {
            m.gauge_add("recovery_seconds_total", None, recovery_total.as_secs());
        }
        // Always-on phase and makespan gauges — what `dedukt analyze`
        // reconciles the journal against — plus the wall-clock lane
        // (real host seconds; the one nondeterministic series family).
        m.gauge_set("phase_seconds:parse", None, phases.parse.as_secs());
        m.gauge_set("phase_seconds:exchange", None, phases.exchange.as_secs());
        m.gauge_set("phase_seconds:count", None, phases.count.as_secs());
        m.gauge_set("makespan_seconds", None, makespan.as_secs());
        m.gauge_set("wall_seconds:parse", None, wall.parse);
        m.gauge_set("wall_seconds:rounds", None, wall.rounds);
        m.gauge_set("wall_seconds:finish", None, wall.finish);
        m.gauge_set("wall_seconds:total", None, wall.total);
    }
    if let Some(j) = &journal {
        // Phase totals from the same accumulators as the report, so the
        // analyzer's reconciliation is exact (not epsilon-close).
        j.push(JournalEvent::Phase {
            phase: "parse".to_string(),
            secs: phases.parse.as_secs(),
        });
        j.push(JournalEvent::Phase {
            phase: "exchange".to_string(),
            secs: phases.exchange.as_secs(),
        });
        j.push(JournalEvent::Phase {
            phase: "count".to_string(),
            secs: phases.count.as_secs(),
        });
        for (stage, secs) in [
            ("parse", wall.parse),
            ("rounds", wall.rounds),
            ("finish", wall.finish),
            ("total", wall.total),
        ] {
            j.push(JournalEvent::Wall {
                stage: stage.to_string(),
                secs,
            });
        }
        j.push(JournalEvent::Run {
            makespan: makespan.as_secs(),
        });
    }
    let trace = rc.collect_trace.then(|| world.take_trace());
    let trace_counters = rc.collect_trace.then(|| world.take_trace_counters());
    let stats = world.stats();
    let (load, total, distinct, spectrum, tables) =
        assemble_counts(rank_results, rc.collect_spectrum, rc.collect_tables);
    Ok(RunReport {
        mode: rc.mode,
        nodes: rc.nodes,
        nranks,
        phases,
        makespan,
        exchange: ExchangeSummary {
            units,
            bytes: stats.total_bytes,
            off_node_bytes: stats.off_node_bytes,
            intra_node_bytes: stats.intra_node_bytes,
            intra_tier_bytes: stats.intra_tier_bytes,
            coalesced_messages: stats.coalesced_messages,
            alltoallv_time: wire_total,
            rounds: nrounds as u64,
            retries: retries_total,
            corrupt_buckets: corrupt_total,
            retry_bytes: stats.retry_bytes,
            recovery_time: recovery_total,
            rank_deaths: dead_total as u64,
            replayed_bytes: replayed_bytes_total,
        },
        load,
        total_kmers: total,
        distinct_kmers: distinct,
        spectrum,
        tables,
        trace,
        trace_counters,
        metrics: metrics.map(|m| m.snapshot()),
        wall,
        journal: journal.map(|j| j.snapshot()),
    })
}

/// One-line run description for the journal's meta event: the knobs that
/// shape timing, plus any fault or memory-pressure plans. Shared with
/// the out-of-core two-pass driver, which appends no labels of its own —
/// everything two-pass-specific is a [`RunConfig`] knob listed here.
pub(crate) fn run_detail(rc: &RunConfig) -> String {
    let mut parts = vec![format!("k={}", rc.counting.k)];
    if rc.gpu_direct {
        parts.push("gpu-direct".to_string());
    }
    if let Some(cap) = rc.round_limit_bytes {
        parts.push(format!("round-limit={cap}"));
    }
    if rc.overlap_rounds {
        parts.push("overlap".to_string());
    }
    if rc.exchange_algo != dedukt_net::cost::ExchangeAlgo::Direct {
        parts.push(format!("exchange-algo={}", rc.exchange_algo.label()));
    }
    if rc.wire_compress {
        parts.push("wire-compress".to_string());
    }
    if rc.balanced_minimizers {
        parts.push("balanced-minimizers".to_string());
    }
    if let Some(plan) = &rc.fault {
        let s = plan.spec();
        parts.push(format!(
            "fault[seed={} fail={} corrupt={} straggle={}x{} retries={} backoff={}]",
            plan.seed(),
            s.fail_rate,
            s.corrupt_rate,
            s.straggle_rate,
            s.straggle_factor,
            s.max_retries,
            s.backoff_secs
        ));
    }
    if let Some(plan) = &rc.mem {
        parts.push(format!("mem[{}]", plan.journal_label()));
    }
    if let Some(plan) = &rc.rank {
        let s = plan.spec();
        parts.push(format!(
            "rank[seed={} rate={} max-dead={} kills={}]",
            plan.seed(),
            s.rate,
            s.max_dead,
            s.kill.len()
        ));
    }
    if let Some(n) = rc.checkpoint_rounds {
        parts.push(format!("checkpoint-rounds={n}"));
    }
    if !rc.rescale.is_empty() {
        let sched: Vec<String> = rc
            .rescale
            .iter()
            .map(|(round, world)| format!("{round}:{world}"))
            .collect();
        parts.push(format!("rescale={}", sched.join(",")));
    }
    if rc.two_pass_dir.is_some() {
        parts.push("two-pass".to_string());
        if rc.two_pass_resume {
            parts.push("resume".to_string());
        }
        if rc.min_count > 1 {
            parts.push(format!("min-count={}", rc.min_count));
        }
    }
    if let Some(plan) = &rc.io {
        parts.push(format!("io[{}]", plan.journal_label()));
    }
    parts.join(" ")
}

/// Replaces a dead or departing rank's counter with a fresh one,
/// converting an allocation failure into the run-level OOM error (with
/// every rank's high-water mark, like the startup path).
fn fresh_counter_or_oom<S: CounterStages>(
    stages: &S,
    ctx: &DriverCtx,
    counters: &[S::Counter],
    rank: usize,
    expected: u64,
) -> Result<S::Counter, RunError> {
    stages.make_counter(ctx, rank, expected).map_err(|e| {
        let mut high_water: Vec<u64> = counters
            .iter()
            .map(|c| stages.pressure(c).high_water_bytes)
            .collect();
        high_water[rank] = high_water[rank].max(e.high_water_bytes);
        RunError::DeviceOom {
            rank,
            detail: e.detail,
            high_water_bytes: high_water,
        }
    })
}

/// Folds salvaged tables (checkpoints of dead ranks, full tables of
/// rescale departures and restarts) back into the per-rank results,
/// merging by key so no k-mer's count is split across two tables —
/// splitting would land the key in the wrong spectrum bins even though
/// the total is right. Salvaged instances are credited to the slot that
/// earned them, keeping the per-rank load sum conserved.
fn fold_salvaged<K: crate::table::TableKey>(
    rank_results: &mut [RankCountResult<K>],
    salvaged: Vec<SalvagedTable<K>>,
) {
    for (slot, entries, instances) in salvaged {
        rank_results[slot].entries.extend(entries);
        rank_results[slot].instances += instances;
    }
    // Global merge-by-key: the first table a key appears in keeps it;
    // later occurrences add their count there and vanish. Keys never
    // split across *live* tables on the replay path, so this pass only
    // reunites salvaged fragments with their live remainder.
    let mut seen: std::collections::BTreeMap<K, (usize, usize)> = std::collections::BTreeMap::new();
    for slot in 0..rank_results.len() {
        let mut i = 0;
        while i < rank_results[slot].entries.len() {
            let (key, count) = rank_results[slot].entries[i];
            match seen.get(&key) {
                Some(&(first_slot, first_idx)) => {
                    rank_results[first_slot].entries[first_idx].1 += count;
                    rank_results[slot].entries.swap_remove(i);
                }
                None => {
                    seen.insert(key, (slot, i));
                    i += 1;
                }
            }
        }
    }
}

/// Builds [`RunError::DeviceOom`] from a counter-creation pass where at
/// least one rank failed: the first failing rank names the error, and
/// every rank contributes its allocation high-water mark (failed ranks
/// report the mark they reached before the refused allocation).
fn device_oom_error<S: CounterStages>(
    stages: &S,
    made: Vec<Result<S::Counter, CounterOom>>,
) -> RunError {
    let mut first: Option<(usize, String)> = None;
    let mut high_water = Vec::with_capacity(made.len());
    for (rank, r) in made.into_iter().enumerate() {
        match r {
            Ok(c) => high_water.push(stages.pressure(&c).high_water_bytes),
            Err(e) => {
                high_water.push(e.high_water_bytes);
                if first.is_none() {
                    first = Some((rank, e.detail));
                }
            }
        }
    }
    let (rank, detail) = first.expect("device_oom_error called with no failures");
    RunError::DeviceOom {
        rank,
        detail,
        high_water_bytes: high_water,
    }
}

/// Shared exchange hook for the pipelines whose wire items are bare
/// packed k-mers (at either width): one Alltoallv per round, overlapped
/// when `hidden` is present.
pub(crate) fn exchange_items_round<I: Send + dedukt_net::fault::WireHash>(
    world: &mut BspWorld,
    round: Vec<Vec<Vec<I>>>,
    hidden: Option<&[SimTime]>,
) -> RoundRecv<I> {
    let outcome = match hidden {
        Some(h) => world.alltoallv_overlapped(round, h),
        None => world.alltoallv(round),
    };
    RoundRecv {
        items: flatten_recv(outcome.recv),
        undelivered: outcome.undelivered,
        failed_sends: outcome.failed_sends,
        corrupt_buckets: outcome.corrupt_buckets,
        wire_mean: outcome.wire.mean,
        charged_mean: outcome.times.mean,
    }
}

/// Concatenates `recv[dst][src]` payloads into one list per destination,
/// preserving source-rank order.
pub(crate) fn flatten_recv<I>(recv: Vec<Vec<Vec<I>>>) -> Vec<Vec<I>> {
    recv.into_iter()
        .map(|per_src| per_src.into_iter().flatten().collect())
        .collect()
}
