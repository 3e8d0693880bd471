//! The BSP (bulk-synchronous parallel) engine.
//!
//! The paper's pipelines are bulk-synchronous MPI (§VI): every rank
//! computes, then everyone exchanges, then everyone computes again. This
//! engine exploits that structure to simulate thousands of ranks on one
//! host: a *superstep* runs every rank's compute task (in parallel on the
//! rayon pool), and collectives are performed centrally with the cost model
//! advancing each rank's simulated clock.
//!
//! Clock semantics: compute advances each rank's clock independently; a
//! collective first synchronizes (no rank completes an Alltoallv before the
//! slowest participant has contributed) and then charges each rank its
//! modelled collective time.

use crate::cost::{ExchangeAlgo, Network};
use crate::fault::{BucketFate, ChecksumFrame, FaultPlan, WireHash};
use crate::stats::CommStats;
use dedukt_sim::{
    Journal, JournalEvent, MetricsRegistry, SimClock, SimTime, TraceCounter, TraceEvent,
};
use rayon::prelude::*;
use std::sync::Arc;

/// Fault-injection state attached to a world by
/// [`BspWorld::enable_faults`].
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// Active exchange context `(round, attempt)` set by
    /// [`BspWorld::fault_context`]. Fates are applied **only** inside a
    /// context — a caller that opens one is promising it has a retry
    /// path for the undelivered buckets. Contextless collectives (e.g.
    /// the minimizer prepass) always deliver.
    ctx: Option<(u64, u32)>,
    /// Fates of the first collective in the current context, reused by
    /// subsequent collectives so paired payloads (supermer words +
    /// lengths) share one fate and stay zip-aligned.
    cached_fates: Option<Vec<Vec<BucketFate>>>,
    /// Compute steps seen, the straggler schedule's step coordinate.
    compute_steps: u64,
    /// Cumulative buckets re-sent on retry attempts, per source rank —
    /// the "retry buckets" trace counter lane.
    retry_buckets_cum: Vec<u64>,
}

/// Durations of one superstep, aggregated over ranks.
///
/// Per-module breakdowns (the paper's Figs. 3/7) report *typical* rank
/// time — the mean — because a bar chart of module times cannot include
/// straggler waits (the paper's count bar grows only 23-27% under a
/// 2.37× load imbalance, so theirs doesn't either). The makespan (max)
/// is what end-to-end latency pays and is tracked by the rank clocks.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTimes {
    /// Mean per-rank duration.
    pub mean: SimTime,
    /// Slowest rank's duration.
    pub max: SimTime,
}

impl StepTimes {
    /// Aggregates a per-rank duration list.
    pub fn from_times(times: &[SimTime]) -> StepTimes {
        if times.is_empty() {
            return StepTimes::default();
        }
        let total: SimTime = times.iter().copied().sum();
        StepTimes {
            mean: total / times.len() as f64,
            max: times.iter().copied().fold(SimTime::ZERO, SimTime::max),
        }
    }
}

/// Result of one simulated Alltoallv.
#[derive(Debug)]
pub struct ExchangeOutcome<T> {
    /// `recv[dst][src]` — the payload rank `src` sent to rank `dst`.
    /// Buckets lost to an injected fault arrive empty here and show up in
    /// [`ExchangeOutcome::undelivered`] instead.
    pub recv: Vec<Vec<Vec<T>>>,
    /// `undelivered[src][dst]` — buckets that failed to send or arrived
    /// corrupt this attempt, returned in send-matrix shape so the caller
    /// can pass them straight back to the next attempt's Alltoallv. All
    /// empty on a fault-free fabric or outside a fault context.
    pub undelivered: Vec<Vec<Vec<T>>>,
    /// Buckets that failed to send this attempt.
    pub failed_sends: u64,
    /// Buckets delivered with a checksum mismatch and discarded this
    /// attempt.
    pub corrupt_buckets: u64,
    /// Per-rank *charged* time for this collective, measured from the
    /// synchronized start (straggler waits are reflected in the clocks,
    /// not here — phases are reported barrier-to-barrier, as the paper's
    /// breakdowns are). Equals the wire time for a blocking
    /// [`BspWorld::alltoallv`]; for
    /// [`BspWorld::alltoallv_overlapped`] it is max(wire, hidden compute).
    pub elapsed: Vec<SimTime>,
    /// Aggregated charged times.
    pub times: StepTimes,
    /// Aggregated *pure wire* times, overlap excluded (`== times` for a
    /// blocking exchange). Volume accounting (Fig. 8) reads these.
    pub wire: StepTimes,
}

/// A bulk-synchronous world of simulated ranks.
#[derive(Debug)]
pub struct BspWorld {
    net: Network,
    clocks: Vec<SimClock>,
    stats: CommStats,
    trace: Vec<TraceEvent>,
    counters: Vec<TraceCounter>,
    sent_bytes_cum: Vec<u64>,
    metrics: Option<Arc<MetricsRegistry>>,
    step_counter: usize,
    fault: Option<FaultState>,
    journal: Option<Arc<Journal>>,
    /// Superstep sequence number for journaled compute spans; advances
    /// only while a journal is attached (it is observable nowhere else).
    journal_seq: u64,
}

impl BspWorld {
    /// Creates a world over `net`'s topology with all clocks at zero.
    pub fn new(net: Network) -> BspWorld {
        let n = net.topology.nranks();
        BspWorld {
            net,
            clocks: vec![SimClock::new(); n],
            stats: CommStats::new(n),
            trace: Vec::new(),
            counters: Vec::new(),
            sent_bytes_cum: vec![0; n],
            metrics: None,
            step_counter: 0,
            fault: None,
            journal: None,
            journal_seq: 0,
        }
    }

    /// Attaches a metrics registry: subsequent supersteps and collectives
    /// record per-rank counters and gauges into it. All simulated times
    /// come from the analytic cost models, so attaching a registry never
    /// changes them.
    pub fn enable_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.metrics = Some(registry);
    }

    /// Attaches a run journal: every subsequent clock charge — compute
    /// spans, per-rank collective charges, backoff advances — is recorded
    /// as a typed [`JournalEvent`]. Like metrics, the journal is a pure
    /// observer: simulated times come from the cost models and cannot be
    /// perturbed by recording them.
    pub fn enable_journal(&mut self, journal: Arc<Journal>) {
        self.journal = Some(journal);
    }

    /// Attaches a deterministic fault plan. Stragglers stretch subsequent
    /// compute steps immediately; bucket fates (failed sends, corruption)
    /// fire only inside a [`BspWorld::fault_context`], because applying
    /// them requires the caller to own a retry path.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        let n = self.nranks();
        self.fault = Some(FaultState {
            plan,
            ctx: None,
            cached_fates: None,
            compute_steps: 0,
            retry_buckets_cum: vec![0; n],
        });
    }

    /// Opens (or re-keys) a fault context: collectives until the next
    /// [`BspWorld::fault_context`]/[`BspWorld::clear_fault_context`] call
    /// draw bucket fates at `(round, attempt)`. The first collective in a
    /// context fixes the fate matrix; later collectives in the same
    /// context reuse it, so multi-collective payloads (supermer words +
    /// lengths) fail or deliver together. No-op without a fault plan.
    pub fn fault_context(&mut self, round: u64, attempt: u32) {
        if let Some(fs) = &mut self.fault {
            fs.ctx = Some((round, attempt));
            fs.cached_fates = None;
        }
    }

    /// Closes the fault context: collectives go back to always delivering.
    pub fn clear_fault_context(&mut self) {
        if let Some(fs) = &mut self.fault {
            fs.ctx = None;
            fs.cached_fates = None;
        }
    }

    /// Advances every rank's clock by `dt`, recording one `name` trace
    /// span per rank — used to charge retry backoff to the sim clock.
    pub fn advance_all(&mut self, name: &str, dt: SimTime) {
        if dt.is_zero() {
            return;
        }
        let step = self.next_journal_step();
        for rank in 0..self.clocks.len() {
            self.trace.push(TraceEvent {
                name: name.to_string(),
                rank,
                start: self.clocks[rank].now(),
                duration: dt,
            });
            if let Some(j) = &self.journal {
                let start = self.clocks[rank].now().as_secs();
                j.push(JournalEvent::Span {
                    step,
                    rank,
                    phase: name.to_string(),
                    start,
                    end: start + dt.as_secs(),
                });
            }
            self.clocks[rank].advance(dt);
        }
    }

    /// Next superstep id for journaled spans (0 when no journal is
    /// attached — the sequence is observable only through the journal).
    fn next_journal_step(&mut self) -> u64 {
        if self.journal.is_some() {
            self.journal_seq += 1;
            self.journal_seq
        } else {
            0
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.clocks.len()
    }

    /// The network (topology + parameters).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Accumulated communication statistics.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Per-rank simulated clocks.
    pub fn clocks(&self) -> &[SimClock] {
        &self.clocks
    }

    /// The latest rank clock — the simulated makespan so far.
    pub fn elapsed(&self) -> SimTime {
        self.clocks
            .iter()
            .map(|c| c.now())
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Runs one compute superstep: `f(rank)` returns the rank's output and
    /// its simulated compute duration. Returns all outputs plus the
    /// aggregated per-rank durations.
    pub fn compute_step<T, F>(&mut self, f: F) -> (Vec<T>, StepTimes)
    where
        T: Send,
        F: Fn(usize) -> (T, SimTime) + Sync,
    {
        self.step_counter += 1;
        let name = format!("compute#{}", self.step_counter);
        self.compute_step_named(&name, f)
    }

    /// Like [`BspWorld::compute_step`], with a phase name for the run
    /// trace (see [`BspWorld::take_trace`]).
    pub fn compute_step_named<T, F>(&mut self, name: &str, f: F) -> (Vec<T>, StepTimes)
    where
        T: Send,
        F: Fn(usize) -> (T, SimTime) + Sync,
    {
        let results: Vec<(T, SimTime)> = (0..self.nranks()).into_par_iter().map(&f).collect();
        let metrics = self.metrics.clone();
        let straggle: Option<(FaultPlan, u64)> = self.fault.as_mut().map(|fs| {
            fs.compute_steps += 1;
            (fs.plan, fs.compute_steps - 1)
        });
        let step = self.next_journal_step();
        let mut outputs = Vec::with_capacity(results.len());
        let mut times = Vec::with_capacity(results.len());
        for (rank, (out, dt)) in results.into_iter().enumerate() {
            // A scheduled straggler stretches this rank's step — timing
            // only, the computed payload is untouched.
            let dt = match &straggle {
                Some((plan, step)) => {
                    let factor = plan.straggle_factor(*step, rank);
                    if factor != 1.0 {
                        SimTime::from_secs(dt.as_secs() * factor)
                    } else {
                        dt
                    }
                }
                None => dt,
            };
            if !dt.is_zero() {
                self.trace.push(TraceEvent {
                    name: name.to_string(),
                    rank,
                    start: self.clocks[rank].now(),
                    duration: dt,
                });
                if let Some(j) = &self.journal {
                    let start = self.clocks[rank].now().as_secs();
                    j.push(JournalEvent::Span {
                        step,
                        rank,
                        phase: name.to_string(),
                        start,
                        end: start + dt.as_secs(),
                    });
                }
            }
            if let Some(m) = &metrics {
                m.gauge_add("compute_seconds_total", Some(rank), dt.as_secs());
            }
            self.clocks[rank].advance(dt);
            times.push(dt);
            outputs.push(out);
        }
        (outputs, StepTimes::from_times(&times))
    }

    /// Drains the recorded trace (compute steps and collectives, one span
    /// per rank per step), e.g. for
    /// [`dedukt_sim::trace::write_chrome_trace`].
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Drains the recorded counter samples (cumulative Alltoallv bytes per
    /// rank, one sample per collective), for
    /// [`dedukt_sim::trace::write_chrome_trace_with`].
    pub fn take_trace_counters(&mut self) -> Vec<TraceCounter> {
        std::mem::take(&mut self.counters)
    }

    /// Records one sample on a named counter lane at `rank`'s current
    /// simulated time. Lets layers above the wire (e.g. the counting
    /// stage's spill accounting) feed the same Chrome-trace counter
    /// machinery as the built-in byte and retry lanes.
    pub fn push_counter_sample(&mut self, name: &str, rank: usize, value: f64) {
        self.counters.push(TraceCounter {
            name: name.to_string(),
            rank,
            ts: self.clocks[rank].now(),
            value,
        });
    }

    /// Performs an Alltoallv: `send[src][dst]` is the payload `src` sends
    /// to `dst`. Payloads move (no copies); the cost model charges each
    /// rank its simulated exchange time.
    pub fn alltoallv<T: Send + WireHash>(&mut self, send: Vec<Vec<Vec<T>>>) -> ExchangeOutcome<T> {
        self.exchange(send, None, None)
    }

    /// Non-blocking-style Alltoallv for the double-buffered round
    /// pipeline: rank `r` starts the collective and keeps computing
    /// `hidden[r]` worth of work (typically the previous round's count
    /// kernel on its own stream) while the wire is busy. The rank is
    /// charged `max(wire, hidden)` — whichever finishes last gates the
    /// superstep — instead of their sum. Volumes, statistics, and payload
    /// routing are identical to [`BspWorld::alltoallv`].
    pub fn alltoallv_overlapped<T: Send + WireHash>(
        &mut self,
        send: Vec<Vec<Vec<T>>>,
        hidden: &[SimTime],
    ) -> ExchangeOutcome<T> {
        assert_eq!(
            hidden.len(),
            self.nranks(),
            "need one hidden-compute time per rank"
        );
        self.exchange(send, Some(hidden), None)
    }

    /// An Alltoallv of *codec-compressed* payloads: the wire moves (and
    /// the cost model charges) the physical `send` bytes, while
    /// `logical_bytes[src][dst]` declares the pre-codec volume each
    /// bucket represents. Statistics stay physical (what actually moved);
    /// the journal records `bytes` = logical next to `comp_bytes` =
    /// physical, so `dedukt analyze` can report the compression ratio.
    /// With `hidden`, behaves like [`BspWorld::alltoallv_overlapped`].
    pub fn alltoallv_compressed<T: Send + WireHash>(
        &mut self,
        send: Vec<Vec<Vec<T>>>,
        hidden: Option<&[SimTime]>,
        logical_bytes: &[Vec<u64>],
    ) -> ExchangeOutcome<T> {
        if let Some(h) = hidden {
            assert_eq!(
                h.len(),
                self.nranks(),
                "need one hidden-compute time per rank"
            );
        }
        assert_eq!(
            logical_bytes.len(),
            self.nranks(),
            "need one logical-byte row per rank"
        );
        self.exchange(send, hidden, Some(logical_bytes))
    }

    fn exchange<T: Send + WireHash>(
        &mut self,
        send: Vec<Vec<Vec<T>>>,
        hidden: Option<&[SimTime]>,
        logical_bytes: Option<&[Vec<u64>]>,
    ) -> ExchangeOutcome<T> {
        let p = self.nranks();
        assert_eq!(send.len(), p, "need one send vector per rank");
        for row in &send {
            assert_eq!(row.len(), p, "each rank must address every rank");
        }
        let elem = std::mem::size_of::<T>() as u64;
        let send_bytes: Vec<Vec<u64>> = send
            .iter()
            .map(|row| row.iter().map(|v| v.len() as u64 * elem).collect())
            .collect();
        let topo = self.net.topology;
        let route = self.net.params.algo;
        self.stats
            .record_alltoallv(&send_bytes, |r| topo.node_of(r));
        if route == ExchangeAlgo::NodeAggregated {
            // Every payload byte crosses the intra-node tier twice:
            // gather to the source leader, scatter from the destination
            // leader (node-local traffic included — it routes via the
            // leader too, which is exactly what the cost model's
            // aggregation overhead charges for).
            self.stats.intra_tier_bytes += 2 * send_bytes.iter().flatten().sum::<u64>();
            // One coalesced frame per (node, node) pair with any payload.
            for sn in 0..topo.nodes {
                for dn in 0..topo.nodes {
                    if sn == dn {
                        continue;
                    }
                    let nonempty = topo
                        .ranks_of(sn)
                        .any(|s| topo.ranks_of(dn).any(|d| send_bytes[s][d] > 0));
                    if nonempty {
                        self.stats.coalesced_messages += 1;
                    }
                }
            }
        }
        if hidden.is_some() {
            self.stats.overlapped_collectives += 1;
        }
        // Fates for this attempt, fixed before the wire: every attempted
        // byte is charged whether or not its bucket survives. Inside a
        // fault context the first collective's matrix is cached so paired
        // collectives share fates. The route decides the granularity:
        // direct draws per rank pair; hierarchical draws one fate per
        // coalesced inter-node frame (shared by all its buckets) and per
        // bucket on the intra-node tier.
        let fates: Option<Vec<Vec<BucketFate>>> = match &mut self.fault {
            Some(fs) if fs.ctx.is_some() => Some(match &fs.cached_fates {
                Some(m) => m.clone(),
                None => {
                    let (round, attempt) = fs.ctx.expect("guarded above");
                    let m: Vec<Vec<BucketFate>> = (0..p)
                        .map(|src| {
                            (0..p)
                                .map(|dst| {
                                    route.bucket_fate(&fs.plan, &topo, round, attempt, src, dst)
                                })
                                .collect()
                        })
                        .collect();
                    fs.cached_fates = Some(m.clone());
                    m
                }
            }),
            _ => None,
        };
        let is_retry = self
            .fault
            .as_ref()
            .and_then(|fs| fs.ctx)
            .is_some_and(|(_, attempt)| attempt > 0);
        if is_retry {
            // Retry traffic: charged to the wire like any collective, but
            // tracked separately from first-attempt volume.
            self.stats.retry_bytes += send_bytes.iter().flatten().sum::<u64>();
        }
        let wire_times = self.net.alltoallv_times(&send_bytes);
        // Per-rank intra-node-tier share of the wire time: the leader
        // gather/scatter overhead under hierarchical routing, all-zero
        // for direct (where the single-tier arithmetic below reduces
        // bit-for-bit to the pre-routing formula).
        let intra_times = match route {
            ExchangeAlgo::Direct => vec![SimTime::ZERO; p],
            ExchangeAlgo::NodeAggregated => self.net.alltoallv_intra_times(&send_bytes),
        };
        let sent_per_rank: Vec<u64> = send_bytes.iter().map(|row| row.iter().sum()).collect();
        // On-node vs off-node split of each rank's sent bytes (physical).
        let intra_sent_per_rank: Vec<u64> = send_bytes
            .iter()
            .enumerate()
            .map(|(src, row)| {
                row.iter()
                    .enumerate()
                    .filter(|(dst, _)| topo.same_node(src, *dst))
                    .map(|(_, &b)| b)
                    .sum()
            })
            .collect();
        // Logical (pre-codec) per-rank volumes; identical to the physical
        // ones unless the caller declared a compressed payload.
        let logical_sent_per_rank: Vec<u64> = match logical_bytes {
            Some(m) => m.iter().map(|row| row.iter().sum()).collect(),
            None => sent_per_rank.clone(),
        };
        let logical_off_per_rank: Vec<u64> = match logical_bytes {
            Some(m) => m
                .iter()
                .enumerate()
                .map(|(src, row)| {
                    row.iter()
                        .enumerate()
                        .filter(|(dst, _)| !topo.same_node(src, *dst))
                        .map(|(_, &b)| b)
                        .sum()
                })
                .collect(),
            None => sent_per_rank
                .iter()
                .zip(&intra_sent_per_rank)
                .map(|(&t, &i)| t - i)
                .collect(),
        };

        // Synchronize: nobody finishes before the slowest rank has arrived.
        let start = self.elapsed();
        let metrics = self.metrics.clone();
        if let Some(m) = &metrics {
            m.counter_add("exchange_collectives_total", None, 1);
            // Zero-padded so the superstep series sorts numerically in
            // exports (the registry is name-ordered).
            m.counter_add(
                &format!("exchange_superstep_bytes:{:04}", self.stats.collectives),
                None,
                sent_per_rank.iter().sum(),
            );
        }
        let mut elapsed = Vec::with_capacity(p);
        let mut wire = Vec::with_capacity(p);
        for (rank, wt) in wire_times.iter().enumerate() {
            let hid = hidden.map_or(SimTime::ZERO, |h| h[rank]);
            // Overlap hides compute behind the *injection* tier only —
            // the intra-node gather must finish before there is anything
            // to overlap with. Under direct routing `intra` is zero and
            // this is exactly the pre-routing `max(wire, hidden)`.
            let intra = intra_times[rank];
            let inject = *wt - intra;
            let charged = intra + SimTime::max(inject, hid);
            self.trace.push(TraceEvent {
                name: "alltoallv".to_string(),
                rank,
                start,
                duration: *wt,
            });
            if !hid.is_zero() {
                // The hidden count kernel runs on the rank's device stream
                // while the wire is busy; it shares the collective's start.
                self.trace.push(TraceEvent {
                    name: "count(overlap)".to_string(),
                    rank,
                    start,
                    duration: hid,
                });
            }
            if let Some(m) = &metrics {
                // How long this rank idled at the barrier waiting for the
                // slowest participant (SimTime subtraction floors at zero).
                let wait = start - self.clocks[rank].now();
                m.counter_add("exchange_bytes_total", Some(rank), sent_per_rank[rank]);
                // Always recorded (zero included) so the on-node/off-node
                // split is pinned in the metrics schema.
                m.counter_add(
                    "exchange_intra_node_bytes_total",
                    Some(rank),
                    intra_sent_per_rank[rank],
                );
                if is_retry {
                    m.counter_add(
                        "exchange_retry_bytes_total",
                        Some(rank),
                        sent_per_rank[rank],
                    );
                }
                m.gauge_add("alltoallv_wire_seconds_total", Some(rank), wt.as_secs());
                m.gauge_add("alltoallv_wait_seconds_total", Some(rank), wait.as_secs());
                if hidden.is_some() {
                    // Compute seconds this rank did not pay for serially:
                    // the portion of the hidden work the wire absorbed.
                    m.gauge_add(
                        "overlap_hidden_seconds_total",
                        Some(rank),
                        SimTime::min(*wt, hid).as_secs(),
                    );
                }
            }
            if let Some(j) = &self.journal {
                match route {
                    ExchangeAlgo::Direct => j.push(JournalEvent::Collective {
                        step: self.stats.collectives,
                        rank,
                        label: "alltoallv".to_string(),
                        start: start.as_secs(),
                        wire: wt.as_secs(),
                        hidden: hid.as_secs(),
                        charged: charged.as_secs(),
                        bytes: logical_sent_per_rank[rank],
                        tier: "inject".to_string(),
                        comp_bytes: sent_per_rank[rank],
                    }),
                    ExchangeAlgo::NodeAggregated => {
                        // Two stacked events per rank, sharing the step:
                        // the intra-node gather/scatter, then the
                        // injection-tier frame exchange. Their charges sum
                        // to the clock advance, so journal replay keeps
                        // reconstructing the makespan exactly.
                        j.push(JournalEvent::Collective {
                            step: self.stats.collectives,
                            rank,
                            label: "alltoallv".to_string(),
                            start: start.as_secs(),
                            wire: intra.as_secs(),
                            hidden: 0.0,
                            charged: intra.as_secs(),
                            bytes: 2 * logical_sent_per_rank[rank],
                            tier: "intra".to_string(),
                            comp_bytes: 2 * sent_per_rank[rank],
                        });
                        j.push(JournalEvent::Collective {
                            step: self.stats.collectives,
                            rank,
                            label: "alltoallv".to_string(),
                            start: (start + intra).as_secs(),
                            wire: inject.as_secs(),
                            hidden: hid.as_secs(),
                            charged: SimTime::max(inject, hid).as_secs(),
                            bytes: logical_off_per_rank[rank],
                            tier: "inject".to_string(),
                            comp_bytes: sent_per_rank[rank] - intra_sent_per_rank[rank],
                        });
                    }
                }
            }
            self.clocks[rank].sync_to(start + charged);
            self.sent_bytes_cum[rank] += sent_per_rank[rank];
            self.counters.push(TraceCounter {
                name: "alltoallv bytes".to_string(),
                rank,
                ts: start + charged,
                value: self.sent_bytes_cum[rank] as f64,
            });
            elapsed.push(charged);
            wire.push(*wt);
        }
        let times = StepTimes::from_times(&elapsed);
        let wire = StepTimes::from_times(&wire);

        if is_retry {
            // "retry buckets" counter lane: cumulative buckets each source
            // rank had to re-offer, sampled at this attempt's finish.
            let fs = self.fault.as_mut().expect("is_retry implies fault state");
            for (rank, row) in send_bytes.iter().enumerate() {
                fs.retry_buckets_cum[rank] += row.iter().filter(|&&b| b > 0).count() as u64;
            }
            let cum = fs.retry_buckets_cum.clone();
            for (rank, &buckets) in cum.iter().enumerate() {
                self.counters.push(TraceCounter {
                    name: "retry buckets".to_string(),
                    rank,
                    ts: self.clocks[rank].now(),
                    value: buckets as f64,
                });
            }
        }

        // Transpose payloads: recv[dst][src] = send[src][dst], applying
        // this attempt's bucket fates. A failed or corrupt bucket arrives
        // empty and is handed back in `undelivered[src][dst]` for the
        // caller's next attempt; corruption is *detected* by the receiver
        // recomputing the checksum frame, never silently consumed.
        let mut recv: Vec<Vec<Vec<T>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
        let mut undelivered: Vec<Vec<Vec<T>>> = (0..p)
            .map(|_| (0..p).map(|_| Vec::new()).collect())
            .collect();
        let mut failed_sends = 0u64;
        let mut corrupt_buckets = 0u64;
        for (src, row) in send.into_iter().enumerate() {
            for (dst, payload) in row.into_iter().enumerate() {
                // Nothing sent, nothing to fault.
                let fate = match &fates {
                    Some(m) if !payload.is_empty() => m[src][dst],
                    _ => BucketFate::Deliver,
                };
                match fate {
                    BucketFate::Deliver if fates.is_none() => recv[dst].push(payload),
                    BucketFate::Deliver => {
                        // Receiver-side verification: recompute the frame
                        // over the delivered items.
                        let frame = ChecksumFrame::compute(&payload);
                        debug_assert!(frame.matches(&payload));
                        recv[dst].push(payload);
                    }
                    BucketFate::FailSend => {
                        failed_sends += 1;
                        recv[dst].push(Vec::new());
                        undelivered[src][dst] = payload;
                    }
                    BucketFate::Corrupt => {
                        // The wire flipped bits; the frame no longer
                        // matches, so the receiver discards the bucket.
                        let frame = ChecksumFrame::compute(&payload).corrupted();
                        assert!(!frame.matches(&payload), "corrupted frame must not verify");
                        corrupt_buckets += 1;
                        recv[dst].push(Vec::new());
                        undelivered[src][dst] = payload;
                    }
                }
            }
        }
        self.stats.failed_sends += failed_sends;
        self.stats.corrupt_buckets += corrupt_buckets;

        ExchangeOutcome {
            recv,
            undelivered,
            failed_sends,
            corrupt_buckets,
            elapsed,
            times,
            wire,
        }
    }

    /// Synchronizes all ranks (barrier): clocks align to the slowest rank
    /// plus the modelled barrier latency.
    pub fn barrier(&mut self) -> SimTime {
        let start = self.elapsed();
        let dt = self.net.barrier_time();
        let t = start + dt;
        if let Some(j) = &self.journal {
            for rank in 0..self.clocks.len() {
                j.push(JournalEvent::Collective {
                    step: self.stats.collectives,
                    rank,
                    label: "barrier".to_string(),
                    start: start.as_secs(),
                    wire: dt.as_secs(),
                    hidden: 0.0,
                    charged: dt.as_secs(),
                    bytes: 0,
                    tier: "inject".to_string(),
                    comp_bytes: 0,
                });
            }
        }
        for c in &mut self.clocks {
            c.sync_to(t);
        }
        self.net.barrier_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(nodes: usize) -> BspWorld {
        BspWorld::new(Network::summit_gpu(nodes))
    }

    #[test]
    fn compute_step_runs_every_rank() {
        let mut w = world(2); // 12 ranks
        let (outs, times) = w.compute_step(|r| (r * 10, SimTime::from_millis(r as f64)));
        assert_eq!(outs, (0..12).map(|r| r * 10).collect::<Vec<_>>());
        assert_eq!(times.max, SimTime::from_millis(11.0));
        assert!((times.mean.as_millis() - 5.5).abs() < 1e-9);
        assert_eq!(w.clocks()[3].now(), SimTime::from_millis(3.0));
        assert_eq!(w.elapsed(), SimTime::from_millis(11.0));
    }

    #[test]
    fn alltoallv_transposes_payloads() {
        let mut w = world(1); // 6 ranks
        let p = w.nranks();
        // send[src][dst] = vec![src*100 + dst]
        let send: Vec<Vec<Vec<u64>>> = (0..p)
            .map(|src| (0..p).map(|dst| vec![(src * 100 + dst) as u64]).collect())
            .collect();
        let out = w.alltoallv(send);
        for dst in 0..p {
            for src in 0..p {
                assert_eq!(out.recv[dst][src], vec![(src * 100 + dst) as u64]);
            }
        }
    }

    #[test]
    fn exchange_synchronizes_clocks() {
        let mut w = world(2);
        // Rank 0 is slow in compute; everyone else idles.
        w.compute_step(|r| {
            (
                (),
                if r == 0 {
                    SimTime::from_secs(1.0)
                } else {
                    SimTime::ZERO
                },
            )
        });
        let p = w.nranks();
        let send: Vec<Vec<Vec<u8>>> = vec![vec![vec![1u8; 100]; p]; p];
        let out = w.alltoallv(send);
        // Every rank's clock is now >= 1 s (waited for rank 0).
        for c in w.clocks() {
            assert!(c.now().as_secs() >= 1.0);
        }
        // Elapsed is pure wire time (uniform matrix → identical per rank);
        // the straggler wait shows up in the clocks instead.
        assert_eq!(out.elapsed[0], out.elapsed[1]);
        assert_eq!(
            out.times.max,
            out.elapsed
                .iter()
                .copied()
                .fold(SimTime::ZERO, SimTime::max)
        );
        assert!(out.times.mean <= out.times.max);
    }

    #[test]
    fn stats_accumulate_across_exchanges() {
        let mut w = world(1);
        let p = w.nranks();
        let send: Vec<Vec<Vec<u64>>> = vec![vec![vec![7u64; 3]; p]; p];
        w.alltoallv(send.clone());
        w.alltoallv(send);
        assert_eq!(w.stats().collectives, 2);
        assert_eq!(w.stats().total_bytes, 2 * (p * p * 3 * 8) as u64);
        assert_eq!(w.stats().off_node_bytes, 0); // single node
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut w = world(1);
        w.compute_step(|r| ((), SimTime::from_millis(r as f64)));
        w.barrier();
        let t0 = w.clocks()[0].now();
        assert!(w.clocks().iter().all(|c| c.now() == t0));
        assert!(t0 >= SimTime::from_millis(5.0));
    }

    #[test]
    #[should_panic(expected = "one send vector per rank")]
    fn wrong_send_shape_panics() {
        let mut w = world(1);
        w.alltoallv(vec![vec![vec![0u8]]]);
    }

    #[test]
    fn trace_records_steps_and_collectives() {
        let mut w = world(1);
        let p = w.nranks();
        w.compute_step_named("parse", |r| ((), SimTime::from_millis(1.0 + r as f64)));
        w.alltoallv(vec![vec![vec![1u64; 10]; p]; p]);
        let trace = w.take_trace();
        // One parse span per rank plus one alltoallv span per rank.
        assert_eq!(trace.len(), 2 * p);
        assert_eq!(trace.iter().filter(|e| e.name == "parse").count(), p);
        assert_eq!(trace.iter().filter(|e| e.name == "alltoallv").count(), p);
        // Parse spans start at 0; the collective starts after the slowest.
        for e in &trace {
            if e.name == "parse" {
                assert!(e.start.is_zero());
            } else {
                assert_eq!(e.start, SimTime::from_millis(6.0)); // rank 5 parse
            }
        }
        // Draining empties the trace.
        assert!(w.take_trace().is_empty());
    }

    #[test]
    fn overlapped_exchange_charges_max_of_wire_and_hidden() {
        let send = |p: usize| -> Vec<Vec<Vec<u64>>> { vec![vec![vec![7u64; 50]; p]; p] };
        // Reference: the blocking wire time for this matrix.
        let mut plain = world(1);
        let p = plain.nranks();
        let out = plain.alltoallv(send(p));
        let wire = out.times.max;
        assert!(wire > SimTime::ZERO);
        assert_eq!(out.wire.mean, out.times.mean); // blocking: wire == charged

        // Hidden compute much longer than the wire: charged = hidden.
        let mut w = world(1);
        let big = SimTime::from_secs(wire.as_secs() * 10.0);
        let out = w.alltoallv_overlapped(send(p), &vec![big; p]);
        assert_eq!(out.times.max, big);
        assert_eq!(out.wire.max, wire); // pure wire unchanged
        assert_eq!(w.elapsed(), big);

        // Hidden compute shorter than the wire: fully absorbed, charged =
        // wire — identical clocks to the blocking exchange.
        let mut w = world(1);
        let small = SimTime::from_secs(wire.as_secs() * 0.1);
        let out = w.alltoallv_overlapped(send(p), &vec![small; p]);
        assert_eq!(out.times.max, wire);
        assert_eq!(w.elapsed(), plain.elapsed());

        // Payload routing and byte accounting are those of a blocking
        // exchange; only the overlap counter differs.
        for dst in 0..p {
            for src in 0..p {
                assert_eq!(out.recv[dst][src], vec![7u64; 50]);
            }
        }
        assert_eq!(w.stats().total_bytes, plain.stats().total_bytes);
        assert_eq!(w.stats().overlapped_collectives, 1);
        assert_eq!(plain.stats().overlapped_collectives, 0);
        // The hidden kernel shows up as its own trace span.
        let trace = w.take_trace();
        assert_eq!(
            trace.iter().filter(|e| e.name == "count(overlap)").count(),
            p
        );
    }

    #[test]
    fn metrics_record_overlap_savings() {
        use dedukt_sim::MetricValue;
        let mut w = world(1);
        let reg = Arc::new(MetricsRegistry::new());
        w.enable_metrics(Arc::clone(&reg));
        let p = w.nranks();
        let send: Vec<Vec<Vec<u64>>> = vec![vec![vec![1u64; 40]; p]; p];
        let hidden = vec![SimTime::from_secs(100.0); p]; // dwarfs the wire
        let out = w.alltoallv_overlapped(send, &hidden);
        let snap = reg.snapshot();
        // The absorbed portion is the wire time (hidden > wire here).
        match snap.get("overlap_hidden_seconds_total", Some(0)) {
            Some(MetricValue::Gauge(v)) => {
                assert!((v - out.wire.max.as_secs()).abs() < 1e-12, "saved {v}");
            }
            other => panic!("missing overlap gauge: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "hidden-compute time per rank")]
    fn overlapped_exchange_rejects_wrong_hidden_shape() {
        let mut w = world(1);
        let p = w.nranks();
        let send: Vec<Vec<Vec<u64>>> = vec![vec![vec![1u64]; p]; p];
        w.alltoallv_overlapped(send, &[SimTime::ZERO]);
    }

    #[test]
    fn faults_need_a_context_to_fire() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut w = world(1);
        w.enable_faults(FaultPlan::new(
            3,
            FaultSpec::parse("fail=1.0,straggle=0").unwrap(),
        ));
        let p = w.nranks();
        // No fault context: even fail=1.0 delivers everything.
        let out = w.alltoallv(vec![vec![vec![5u64; 4]; p]; p]);
        assert_eq!(out.failed_sends, 0);
        assert!(out.undelivered.iter().flatten().all(|b| b.is_empty()));
        for dst in 0..p {
            for src in 0..p {
                assert_eq!(out.recv[dst][src], vec![5u64; 4]);
            }
        }
        // Inside a context, every non-empty bucket fails.
        w.fault_context(0, 0);
        let out = w.alltoallv(vec![vec![vec![5u64; 4]; p]; p]);
        assert_eq!(out.failed_sends, (p * p) as u64);
        assert!(out.recv.iter().flatten().all(|b| b.is_empty()));
        assert!(out
            .undelivered
            .iter()
            .flatten()
            .all(|b| b == &vec![5u64; 4]));
        assert_eq!(w.stats().failed_sends, (p * p) as u64);
        // Clearing the context restores perfect delivery.
        w.clear_fault_context();
        let out = w.alltoallv(vec![vec![vec![5u64; 4]; p]; p]);
        assert_eq!(out.failed_sends, 0);
    }

    #[test]
    fn retry_loop_recovers_every_bucket() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut w = world(1);
        let spec = FaultSpec::parse("fail=0.4,corrupt=0.3,straggle=0").unwrap();
        w.enable_faults(FaultPlan::new(1234, spec));
        let p = w.nranks();
        // Tagged payloads so we can verify exact reassembly.
        let tag = |src: usize, dst: usize| vec![(src * 100 + dst) as u64; 3];
        let mut pending: Vec<Vec<Vec<u64>>> = (0..p)
            .map(|src| (0..p).map(|dst| tag(src, dst)).collect())
            .collect();
        let mut delivered: Vec<Vec<Vec<u64>>> = (0..p)
            .map(|_| (0..p).map(|_| Vec::new()).collect())
            .collect();
        let mut attempts = 0u32;
        let mut retried_buckets = 0u64;
        loop {
            w.fault_context(0, attempts);
            let out = w.alltoallv(pending);
            for (dst, row) in out.recv.into_iter().enumerate() {
                for (src, bucket) in row.into_iter().enumerate() {
                    if !bucket.is_empty() {
                        assert!(delivered[dst][src].is_empty(), "double delivery");
                        delivered[dst][src] = bucket;
                    }
                }
            }
            if out.failed_sends + out.corrupt_buckets == 0 {
                break;
            }
            retried_buckets += out.failed_sends + out.corrupt_buckets;
            pending = out.undelivered;
            attempts += 1;
            assert!(attempts < 64, "fates must eventually deliver");
        }
        assert!(attempts > 0, "rates this high must fault at least once");
        assert!(retried_buckets > 0);
        for (dst, row) in delivered.iter().enumerate() {
            for (src, bucket) in row.iter().enumerate() {
                assert_eq!(*bucket, tag(src, dst));
            }
        }
        // All attempted bytes are in total_bytes; the retry share is
        // exactly the re-offered buckets' bytes.
        assert_eq!(w.stats().retry_bytes, retried_buckets * 3 * 8);
        assert_eq!(
            w.stats().failed_sends + w.stats().corrupt_buckets,
            retried_buckets
        );
        assert!(w.stats().total_bytes > w.stats().retry_bytes);
        // Retry attempts left "retry buckets" counter samples.
        let lanes = w.take_trace_counters();
        assert!(lanes.iter().any(|c| c.name == "retry buckets"));
    }

    #[test]
    fn paired_collectives_share_fates_within_a_context() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut w = world(1);
        w.enable_faults(FaultPlan::new(
            77,
            FaultSpec::parse("fail=0.5,straggle=0").unwrap(),
        ));
        let p = w.nranks();
        w.fault_context(9, 0);
        let words = w.alltoallv(vec![vec![vec![1u64; 2]; p]; p]);
        let lens = w.alltoallv(vec![vec![vec![1u8; 2]; p]; p]);
        for dst in 0..p {
            for src in 0..p {
                assert_eq!(
                    words.recv[dst][src].is_empty(),
                    lens.recv[dst][src].is_empty(),
                    "words and lengths must share a fate ({src}->{dst})"
                );
            }
        }
        // Re-keying the context redraws fates; with fail=0.5 over 36
        // buckets the new draw must differ somewhere.
        w.fault_context(10, 0);
        let again = w.alltoallv(vec![vec![vec![1u64; 2]; p]; p]);
        let differs = (0..p).any(|dst| {
            (0..p).any(|src| words.recv[dst][src].is_empty() != again.recv[dst][src].is_empty())
        });
        assert!(differs);
    }

    #[test]
    fn stragglers_stretch_compute_only() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut plain = world(1);
        let mut faulty = world(1);
        faulty.enable_faults(FaultPlan::new(
            5,
            FaultSpec::parse("straggle=0.5,slow=10").unwrap(),
        ));
        let step =
            |w: &mut BspWorld| w.compute_step_named("work", |r| (r * 2, SimTime::from_millis(1.0)));
        let (outs_a, times_a) = step(&mut plain);
        let (outs_b, times_b) = step(&mut faulty);
        // Payloads identical, times stretched for the scheduled ranks.
        assert_eq!(outs_a, outs_b);
        assert!(times_b.max > times_a.max);
        assert_eq!(times_b.max, SimTime::from_millis(10.0));
        // Zero-rate plan leaves timing bit-identical.
        let mut zero = world(1);
        zero.enable_faults(FaultPlan::new(5, FaultSpec::none()));
        let (_, times_z) = step(&mut zero);
        assert_eq!(times_z.max, times_a.max);
        assert_eq!(times_z.mean, times_a.mean);
    }

    #[test]
    fn advance_all_charges_every_clock() {
        let mut w = world(1);
        w.advance_all("retry-backoff", SimTime::from_millis(2.0));
        assert!(w
            .clocks()
            .iter()
            .all(|c| c.now() == SimTime::from_millis(2.0)));
        let trace = w.take_trace();
        assert_eq!(trace.len(), w.nranks());
        assert!(trace.iter().all(|e| e.name == "retry-backoff"));
        // Zero advance records nothing.
        w.advance_all("noop", SimTime::ZERO);
        assert!(w.take_trace().is_empty());
    }

    #[test]
    fn journal_records_every_clock_charge() {
        use dedukt_sim::{analyze, Journal};
        let mut w = world(1);
        let j = Arc::new(Journal::new());
        w.enable_journal(Arc::clone(&j));
        let p = w.nranks();
        w.compute_step_named("parse", |r| ((), SimTime::from_millis(1.0 + r as f64)));
        let send: Vec<Vec<Vec<u64>>> = vec![vec![vec![7u64; 16]; p]; p];
        w.alltoallv(send);
        w.advance_all("retry-backoff", SimTime::from_millis(2.0));
        w.compute_step_named("count", |_| ((), SimTime::from_millis(3.0)));
        let events = j.take();
        let spans = events
            .iter()
            .filter(|e| matches!(e, JournalEvent::Span { .. }))
            .count();
        let colls = events
            .iter()
            .filter(|e| matches!(e, JournalEvent::Collective { .. }))
            .count();
        assert_eq!(spans, 3 * p, "parse + backoff + count spans per rank");
        assert_eq!(colls, p, "one collective event per rank");
        // The analyzer can replay the journal: every charge is covered,
        // so the reconstructed makespan matches the world's clocks.
        let a = analyze(&events).unwrap();
        assert!(
            (a.makespan - w.elapsed().as_secs()).abs() < 1e-15,
            "journal replay {} != world {}",
            a.makespan,
            w.elapsed().as_secs()
        );
        a.check_invariants().unwrap();
        assert!(a.critical_len <= a.makespan + 1e-15);
    }

    #[test]
    fn journal_is_a_pure_observer() {
        use dedukt_sim::Journal;
        let run = |journal: bool| {
            let mut w = world(1);
            let j = Arc::new(Journal::new());
            if journal {
                w.enable_journal(Arc::clone(&j));
            }
            let p = w.nranks();
            w.compute_step_named("parse", |r| ((), SimTime::from_millis(r as f64)));
            let out = w.alltoallv(vec![vec![vec![5u64; 8]; p]; p]);
            (
                out.times.mean,
                out.times.max,
                w.elapsed(),
                w.take_trace(),
                w.take_trace_counters(),
            )
        };
        let plain = run(false);
        let journaled = run(true);
        assert_eq!(plain.0, journaled.0);
        assert_eq!(plain.1, journaled.1);
        assert_eq!(plain.2, journaled.2);
        assert_eq!(plain.3, journaled.3, "trace must be bit-identical");
        assert_eq!(plain.4, journaled.4, "counter lanes must be bit-identical");
    }

    #[test]
    fn metrics_record_exchange_and_straggler_waits() {
        use dedukt_sim::MetricValue;
        let mut w = world(1);
        let reg = Arc::new(MetricsRegistry::new());
        w.enable_metrics(Arc::clone(&reg));
        let p = w.nranks();
        // Rank 0 computes for 1 s; everyone else waits at the collective.
        w.compute_step(|r| {
            (
                (),
                if r == 0 {
                    SimTime::from_secs(1.0)
                } else {
                    SimTime::ZERO
                },
            )
        });
        let send: Vec<Vec<Vec<u64>>> = vec![vec![vec![7u64; 3]; p]; p];
        w.alltoallv(send.clone());
        w.alltoallv(send);
        let snap = reg.snapshot();
        // Per-rank bytes sum to the world's total exchange bytes.
        assert_eq!(
            snap.counter_total("exchange_bytes_total"),
            w.stats().total_bytes
        );
        assert_eq!(
            snap.get("exchange_collectives_total", None),
            Some(&MetricValue::Counter(2))
        );
        // One per-superstep byte series per collective, each half the total.
        assert_eq!(
            snap.counter_total("exchange_superstep_bytes:0001"),
            w.stats().total_bytes / 2
        );
        assert_eq!(
            snap.counter_total("exchange_superstep_bytes:0002"),
            w.stats().total_bytes / 2
        );
        // Rank 0 was the straggler: it never waited, everyone else did.
        let wait = |r: usize| match snap.get("alltoallv_wait_seconds_total", Some(r)) {
            Some(MetricValue::Gauge(v)) => *v,
            other => panic!("missing wait gauge for rank {r}: {other:?}"),
        };
        assert_eq!(wait(0), 0.0);
        for r in 1..p {
            assert!(wait(r) >= 1.0, "rank {r} waited {}", wait(r));
        }
        // Compute seconds were recorded for the straggler.
        assert_eq!(
            snap.get("compute_seconds_total", Some(0)),
            Some(&MetricValue::Gauge(1.0))
        );
        // The counter lane carries one cumulative-bytes sample per rank per
        // collective, recorded whether or not metrics are attached.
        let counters = w.take_trace_counters();
        assert_eq!(counters.len(), 2 * p);
        let last = counters.last().unwrap();
        assert_eq!(last.name, "alltoallv bytes");
        assert_eq!(last.value, (w.stats().total_bytes / p as u64) as f64);
        assert!(w.take_trace_counters().is_empty());
    }
}
