//! Property tests for the network layer: the cost model must price like a
//! network (monotone in traffic, locality-sensitive), and the BSP engine
//! must deliver what the threaded channel oracle delivers.

use dedukt_net::cost::{ExchangeAlgo, Network};
use dedukt_net::{BspWorld, ThreadedWorld};
use proptest::prelude::*;

fn matrix_strategy(p: usize) -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(0u64..1 << 20, p), p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Adding bytes anywhere never makes the Alltoallv faster for anyone.
    #[test]
    fn alltoallv_times_monotone(
        nodes in 1usize..5,
        src in 0usize..6,
        dst in 0usize..6,
        algo_agg in any::<bool>(),
    ) {
        let mut net = Network::summit_gpu(nodes);
        net.params.algo = if algo_agg { ExchangeAlgo::NodeAggregated } else { ExchangeAlgo::Direct };
        let p = net.topology.nranks();
        let base_m = vec![vec![1000u64; p]; p];
        let mut grown = base_m.clone();
        grown[src % p][dst % p] += 1 << 20;
        let base = net.alltoallv_times(&base_m);
        let more = net.alltoallv_times(&grown);
        for (b, m) in base.iter().zip(&more) {
            prop_assert!(m >= b);
        }
        prop_assert_eq!(base.len(), p);
    }

    /// Moving a payload off-node can only cost more than keeping it
    /// on-node (locality sensitivity).
    #[test]
    fn off_node_traffic_costs_at_least_on_node(bytes in 1u64..1 << 24) {
        let net = Network::summit_gpu(2);
        let p = net.topology.nranks();
        let mut local = vec![vec![0u64; p]; p];
        let mut remote = local.clone();
        local[0][1] = bytes;  // ranks 0,1 share node 0
        remote[0][6] = bytes; // rank 6 is on node 1
        let tl = net.alltoallv_times(&local)[0];
        let tr = net.alltoallv_times(&remote)[0];
        prop_assert!(tr >= tl);
    }

    /// The BSP engine's payload routing is identical to the threaded
    /// oracle's (real channels) for any payload matrix.
    #[test]
    fn bsp_and_threaded_agree_on_alltoallv(m in matrix_strategy(5)) {
        let p = 5;
        // Threaded: each rank sends row m[rank] (one u64 per dst, value
        // varies by matrix entry).
        let threaded = ThreadedWorld::run(p, |comm| {
            let send: Vec<Vec<u64>> = (0..p).map(|d| vec![m[comm.rank()][d]]).collect();
            comm.alltoallv_u64(send)
        });
        // BSP: same payloads.
        let mut world = BspWorld::new(Network::summit_gpu(1));
        // summit_gpu(1) has 6 ranks; build a 6x6 with the last row/col empty.
        let send: Vec<Vec<Vec<u64>>> = (0..6)
            .map(|s| (0..6).map(|d| if s < p && d < p { vec![m[s][d]] } else { vec![] }).collect())
            .collect();
        let out = world.alltoallv(send);
        for (dst, t_row) in threaded.iter().enumerate() {
            for (src, t_cell) in t_row.iter().enumerate() {
                prop_assert_eq!(&out.recv[dst][src], t_cell);
            }
        }
    }

    /// The threaded oracle's allreduce equals the plain sum.
    #[test]
    fn allreduce_sums(values in prop::collection::vec(0u64..1 << 40, 2..9)) {
        let p = values.len();
        let expect: u64 = values.iter().sum();
        let vals = values.clone();
        let results = ThreadedWorld::run(p, move |comm| comm.allreduce_sum(vals[comm.rank()]));
        for r in results {
            prop_assert_eq!(r, expect);
        }
    }

    /// Barrier time and Alltoallv latency grow (weakly) with scale.
    #[test]
    fn latency_grows_with_scale(small in 1usize..8, factor in 2usize..5) {
        let a = Network::summit_gpu(small);
        let b = Network::summit_gpu(small * factor);
        prop_assert!(b.barrier_time() >= a.barrier_time());
        prop_assert!(b.latency(b.topology.nranks()) >= a.latency(a.topology.nranks()));
    }
}
