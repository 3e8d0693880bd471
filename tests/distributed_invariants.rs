//! Property tests of the distributed layer: partitioning, exchange
//! accounting, and the end-to-end pipeline under random read sets.

use dedukt::core::{pipeline, verify, Mode, RunConfig};
use dedukt::dna::{Read, ReadSet};
use dedukt::net::cost::Network;
use dedukt::net::{BspWorld, BucketFate, FaultPlan};
use proptest::prelude::*;

fn readset_strategy() -> impl Strategy<Value = ReadSet> {
    prop::collection::vec(prop::collection::vec(0u8..4, 0..120), 1..25).prop_map(|reads| {
        reads
            .into_iter()
            .enumerate()
            .map(|(i, codes)| Read {
                id: format!("p{i}"),
                codes,
                quals: None,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random read set, any pipeline, any small node count: the
    /// distributed counts equal the oracle.
    #[test]
    fn pipelines_equal_oracle_on_random_reads(
        reads in readset_strategy(),
        nodes in 1usize..3,
        mode_idx in 0usize..3,
        k in 4usize..20,
        m in 2usize..4,
    ) {
        prop_assume!(m < k);
        let mode = [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer][mode_idx];
        let mut rc = RunConfig::new(mode, nodes);
        rc.counting.set_k(k);
        rc.counting.m = m;
        rc.collect_tables = true;
        let report = pipeline::run(&reads, &rc).expect("valid config");
        prop_assert_eq!(report.total_kmers, verify::reference_total(&reads, k));
        let check = verify::check_against_reference(&reads, &rc.counting, report.tables.as_ref().unwrap());
        prop_assert!(check.is_ok(), "{:?}", check);
    }

    /// BSP Alltoallv is a permutation: every element sent arrives exactly
    /// once, at the right destination.
    #[test]
    fn bsp_alltoallv_is_lossless(
        nodes in 1usize..4,
        sizes in prop::collection::vec(0usize..20, 36),
    ) {
        let mut world = BspWorld::new(Network::summit_gpu(nodes));
        let p = world.nranks();
        // Tag every element with (src, dst, index).
        let send: Vec<Vec<Vec<u64>>> = (0..p)
            .map(|src| {
                (0..p)
                    .map(|dst| {
                        let n = sizes[(src * 7 + dst) % sizes.len()];
                        (0..n).map(|i| ((src as u64) << 40) | ((dst as u64) << 20) | i as u64).collect()
                    })
                    .collect()
            })
            .collect();
        let sent_total: usize = send.iter().flat_map(|r| r.iter().map(Vec::len)).sum();
        let out = world.alltoallv(send);
        let mut recv_total = 0usize;
        for (dst, per_src) in out.recv.iter().enumerate() {
            for (src, payload) in per_src.iter().enumerate() {
                recv_total += payload.len();
                for (i, &v) in payload.iter().enumerate() {
                    prop_assert_eq!(v >> 40, src as u64);
                    prop_assert_eq!((v >> 20) & 0xFFFFF, dst as u64);
                    prop_assert_eq!(v & 0xFFFFF, i as u64);
                }
            }
        }
        prop_assert_eq!(sent_total, recv_total);
        prop_assert_eq!(world.stats().total_bytes, (sent_total * 8) as u64);
    }

    /// Simulated times grow with data volume. Exchange is strictly
    /// monotone (volume is exact); compute phases get a tolerance because
    /// the occupancy model reproduces the real GPU "tail effect" — below
    /// device-filling scale, slightly more work can add a block and
    /// finish *sooner*.
    #[test]
    fn phase_times_monotone_in_volume(
        reads in readset_strategy(),
    ) {
        let rc = RunConfig::new(Mode::GpuKmer, 1);
        let small = pipeline::run(&reads, &rc).expect("valid config");
        let mut doubled = reads.clone();
        let extra: Vec<Read> = reads.reads.iter().cloned().map(|mut r| { r.id.push('b'); r }).collect();
        doubled.reads.extend(extra);
        let big = pipeline::run(&doubled, &rc).expect("valid config");
        prop_assert!(big.phases.exchange >= small.phases.exchange);
        prop_assert!(big.phases.parse >= small.phases.parse * 0.6,
            "parse collapsed: {} -> {}", small.phases.parse, big.phases.parse);
        prop_assert!(big.phases.count >= small.phases.count * 0.6,
            "count collapsed: {} -> {}", small.phases.count, big.phases.count);
        prop_assert_eq!(big.total_kmers, small.total_kmers * 2);
    }

    /// Under any fault plan, the BSP engine driven through the staged
    /// driver's retry loop matches a closed-form reference: every bucket
    /// is delivered exactly once with its original payload, and a
    /// non-empty `(round, src, dst)` bucket costs exactly as many retries
    /// as its first `Deliver` attempt index. The fate schedule is a pure
    /// function of (seed, round, attempt, src, dst), so the reference
    /// reads it straight off the plan with no second engine.
    #[test]
    fn engines_agree_on_deliveries_under_the_same_fault_plan(
        seed in 0u64..1_000_000,
        fail in 0.0f64..0.45,
        corrupt in 0.0f64..0.3,
        nrounds in 1u64..4,
    ) {
        const MAX_ATTEMPTS: u32 = 200;
        let mut spec = dedukt::net::FaultSpec::none();
        spec.fail_rate = fail;
        spec.corrupt_rate = corrupt;
        let plan = FaultPlan::new(seed, spec);
        let mut world = BspWorld::new(Network::summit_gpu(1));
        world.enable_faults(plan);
        let p = world.nranks();
        // payload[src][dst][round]: unique, so misrouting is detectable.
        let payload = |src: usize, dst: usize, round: u64| -> Vec<u64> {
            vec![round << 32 | (src as u64) << 16 | dst as u64; (src + dst) % 3 + 1]
        };

        // BSP engine: one fault context per (round, attempt), retrying
        // only the undelivered buckets — the staged driver's loop.
        let mut loop_retries = 0u64;
        let mut reference_retries = 0u64;
        for round in 0..nrounds {
            let send: Vec<Vec<Vec<u64>>> = (0..p)
                .map(|src| (0..p).map(|dst| payload(src, dst, round)).collect())
                .collect();
            world.fault_context(round, 0);
            let mut out = world.alltoallv(send);
            let mut delivered = out.recv;
            // The attempt at which each [dst][src] bucket arrived.
            let mut arrived_at = vec![vec![0u32; p]; p];
            let mut attempt = 1u32;
            while out.failed_sends + out.corrupt_buckets > 0 {
                loop_retries += out.failed_sends + out.corrupt_buckets;
                prop_assert!(attempt < MAX_ATTEMPTS, "plan never delivers");
                world.fault_context(round, attempt);
                out = world.alltoallv(out.undelivered);
                for (dst, row) in out.recv.iter_mut().enumerate() {
                    for (src, bucket) in row.iter_mut().enumerate() {
                        if !bucket.is_empty() {
                            prop_assert!(delivered[dst][src].is_empty(), "double delivery");
                            delivered[dst][src] = std::mem::take(bucket);
                            arrived_at[dst][src] = attempt;
                        }
                    }
                }
                attempt += 1;
            }
            for dst in 0..p {
                for src in 0..p {
                    prop_assert_eq!(
                        &delivered[dst][src],
                        &payload(src, dst, round),
                        "payload mismatch {}->{} round {}", src, dst, round
                    );
                    let first_deliver = (0..MAX_ATTEMPTS)
                        .find(|&a| plan.bucket_fate(round, a, src, dst) == BucketFate::Deliver)
                        .expect("plan delivers within the attempt budget");
                    prop_assert_eq!(
                        arrived_at[dst][src],
                        first_deliver,
                        "bucket {}->{} round {} arrived off its first Deliver draw", src, dst, round
                    );
                    reference_retries += u64::from(first_deliver);
                }
            }
        }
        world.clear_fault_context();

        prop_assert_eq!(loop_retries, reference_retries);
        prop_assert_eq!(
            world.stats().failed_sends + world.stats().corrupt_buckets,
            reference_retries
        );
    }
}
