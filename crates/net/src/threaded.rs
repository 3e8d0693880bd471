//! The threaded oracle: ranks as OS threads, collectives over channels.
//!
//! Every pair of ranks gets a dedicated FIFO channel; because all ranks
//! execute the same sequence of collectives (the MPI contract), matching
//! sends and receives pair up deterministically. It is deliberately
//! plain — no routing, no faults, no clock — so that rank code written
//! against it looks like real MPI rank code and serves as an independent
//! check on the BSP engine's collective semantics.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::{Arc, Barrier};

/// A per-rank handle: MPI-flavoured collectives over channels.
pub struct ThreadedComm {
    rank: usize,
    size: usize,
    /// `to[dst]` sends to rank `dst`.
    to: Vec<Sender<Vec<u64>>>,
    /// `from[src]` receives from rank `src`.
    from: Vec<Receiver<Vec<u64>>>,
    barrier: Arc<Barrier>,
}

impl ThreadedComm {
    fn send_to(&self, dst: usize, payload: Vec<u64>) {
        self.to[dst].send(payload).expect("peer rank hung up");
    }

    fn recv_from(&self, src: usize) -> Vec<u64> {
        self.from[src].recv().expect("peer rank hung up")
    }

    /// This rank's index in `0..size()`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Personalized all-to-all of `u64` payloads: `send[dst]` goes to
    /// `dst`; returns `recv[src]` from every `src`. All ranks must call
    /// collectively. (MPI_Alltoallv over 64-bit words — the k-mer
    /// exchange of Algorithm 1.)
    pub fn alltoallv_u64(&self, send: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        assert_eq!(send.len(), self.size, "send must address every rank");
        for (dst, payload) in send.into_iter().enumerate() {
            self.send_to(dst, payload);
        }
        (0..self.size).map(|src| self.recv_from(src)).collect()
    }

    /// Global sum of one `u64`, returned on every rank: reduce to rank 0,
    /// then broadcast.
    pub fn allreduce_sum(&self, value: u64) -> u64 {
        if self.rank == 0 {
            let acc = value
                + (1..self.size)
                    .map(|src| scalar(self.recv_from(src)))
                    .sum::<u64>();
            for dst in 1..self.size {
                self.send_to(dst, vec![acc]);
            }
            acc
        } else {
            self.send_to(0, vec![value]);
            scalar(self.recv_from(0))
        }
    }

    /// Blocks until every rank has arrived.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// Unwraps a one-word scalar message.
fn scalar(msg: Vec<u64>) -> u64 {
    match msg[..] {
        [v] => v,
        _ => panic!("collective mismatch: expected scalar"),
    }
}

/// Launches `nranks` rank threads running `f` and returns their results in
/// rank order.
pub struct ThreadedWorld;

impl ThreadedWorld {
    /// Runs the world to completion.
    pub fn run<T, F>(nranks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(ThreadedComm) -> T + Sync,
    {
        assert!(nranks > 0);
        // receivers[dst][src] pairs with the sender at senders[src][dst].
        let mut receivers: Vec<Vec<Receiver<Vec<u64>>>> =
            (0..nranks).map(|_| Vec::with_capacity(nranks)).collect();
        let senders: Vec<Vec<Sender<Vec<u64>>>> = (0..nranks)
            .map(|_| {
                receivers
                    .iter_mut()
                    .map(|rx_row| {
                        let (tx, rx) = unbounded();
                        rx_row.push(rx);
                        tx
                    })
                    .collect()
            })
            .collect();
        let barrier = Arc::new(Barrier::new(nranks));
        let comms: Vec<ThreadedComm> = receivers
            .into_iter()
            .zip(senders)
            .enumerate()
            .map(|(rank, (from, to))| ThreadedComm {
                rank,
                size: nranks,
                to,
                from,
                barrier: Arc::clone(&barrier),
            })
            .collect();

        std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| scope.spawn(|| f(comm)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alltoallv_u64_transposes() {
        let p = 5;
        let results = ThreadedWorld::run(p, |comm| {
            let send: Vec<Vec<u64>> = (0..p)
                .map(|dst| vec![(comm.rank() * 100 + dst) as u64])
                .collect();
            comm.alltoallv_u64(send)
        });
        for (dst, recv) in results.iter().enumerate() {
            for (src, payload) in recv.iter().enumerate() {
                assert_eq!(payload, &vec![(src * 100 + dst) as u64]);
            }
        }
    }

    #[test]
    fn allreduce_sums_everywhere() {
        let p = 7;
        let results = ThreadedWorld::run(p, |comm| comm.allreduce_sum(comm.rank() as u64 + 1));
        let expect: u64 = (1..=p as u64).sum();
        assert!(results.iter().all(|&v| v == expect));
    }

    #[test]
    fn barrier_does_not_deadlock() {
        let results = ThreadedWorld::run(4, |comm| {
            comm.barrier();
            comm.barrier();
            comm.rank()
        });
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn consecutive_collectives_stay_matched() {
        let p = 4;
        let results = ThreadedWorld::run(p, |comm| {
            let a = comm.allreduce_sum(1);
            let send: Vec<Vec<u64>> = (0..p).map(|_| vec![comm.rank() as u64]).collect();
            let b = comm.alltoallv_u64(send);
            comm.barrier();
            let c = comm.allreduce_sum(10);
            (a, b, c)
        });
        for (a, b, c) in results {
            assert_eq!(a, p as u64);
            assert_eq!(b, (0..p as u64).map(|s| vec![s]).collect::<Vec<_>>());
            assert_eq!(c, 10 * p as u64);
        }
    }

    #[test]
    fn single_rank_world() {
        let r = ThreadedWorld::run(1, |comm| {
            assert_eq!(comm.size(), 1);
            let recv = comm.alltoallv_u64(vec![vec![42]]);
            (comm.allreduce_sum(5), recv)
        });
        assert_eq!(r[0].0, 5);
        assert_eq!(r[0].1, vec![vec![42]]);
    }
}
