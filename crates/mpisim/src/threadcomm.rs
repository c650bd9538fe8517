//! Thread-backed communicator with real payloads.
//!
//! Every ordered pair of ranks has its own `std::sync::mpsc` channel: a
//! single-consumer FIFO, which is exactly MPI's per-pair ordering
//! guarantee, and each receiving end lives in one rank's endpoint.

use std::panic::resume_unwind;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;

use crate::Comm;

/// A real-data message: a tag plus an `f64` payload (HPL panels, pivot
/// rows and broadcast blocks are all `f64` arrays).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadMsg {
    /// User payload.
    pub data: Vec<f64>,
    /// Side-channel integers (pivot indices etc.).
    pub ints: Vec<usize>,
}

impl ThreadMsg {
    /// A message carrying only floats.
    pub fn floats(data: Vec<f64>) -> Self {
        ThreadMsg {
            data,
            ints: Vec::new(),
        }
    }
}

type Wire = (u32, ThreadMsg);

/// One rank's endpoint of a fully-connected thread fabric.
///
/// Created in bulk by `build_thread_comms`; each endpoint is moved into
/// its rank's thread.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    /// `txs[to]` sends to rank `to`.
    txs: Vec<Sender<Wire>>,
    /// `rxs[from]` receives from rank `from`.
    rxs: Vec<Receiver<Wire>>,
}

impl Comm for ThreadComm {
    type Msg = ThreadMsg;

    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    async fn send(&self, to: usize, tag: u32, msg: ThreadMsg) {
        self.txs[to]
            .send((tag, msg))
            .expect("receiver rank hung up");
    }

    async fn recv(&self, from: usize, tag: u32) -> ThreadMsg {
        let (got_tag, msg) = self.rxs[from].recv().expect("sender rank hung up");
        assert_eq!(
            got_tag, tag,
            "rank {}: expected tag {tag} from {from}, got {got_tag}",
            self.rank
        );
        msg
    }
}

/// Builds a fully connected fabric of `size` endpoints.
///
/// # Panics
/// Panics if `size == 0`.
pub(crate) fn build_thread_comms(size: usize) -> Vec<ThreadComm> {
    assert!(size > 0, "need at least one rank");
    // channels[from][to]
    let mut senders: Vec<Vec<Option<Sender<Wire>>>> = vec![];
    let mut receivers: Vec<Vec<Option<Receiver<Wire>>>> = vec![];
    for _ in 0..size {
        senders.push((0..size).map(|_| None).collect());
        receivers.push((0..size).map(|_| None).collect());
    }
    for from in 0..size {
        for to in 0..size {
            let (tx, rx) = channel();
            senders[from][to] = Some(tx);
            receivers[to][from] = Some(rx);
        }
    }
    let mut comms = Vec::with_capacity(size);
    for rank in 0..size {
        let txs = senders[rank]
            .iter_mut()
            .map(|s| s.take().expect("sender built"))
            .collect();
        let rxs = receivers[rank]
            .iter_mut()
            .map(|r| r.take().expect("receiver built"))
            .collect();
        comms.push(ThreadComm {
            rank,
            size,
            txs,
            rxs,
        });
    }
    comms
}

/// Runs `body` on `p` thread ranks of a fresh fabric (the SPMD
/// launcher of the thread backend) and returns each rank's result in
/// rank order.
///
/// # Panics
/// Panics if `p == 0`. If any rank panics, every rank is joined and the
/// panic of the lowest-numbered panicking rank is re-raised with its
/// original payload.
pub fn run_thread_ranks<T: Send>(p: usize, body: impl Fn(ThreadComm) -> T + Sync) -> Vec<T> {
    let comms = build_thread_comms(p);
    let body = &body;
    thread::scope(|s| {
        let ranks: Vec<_> = comms
            .into_iter()
            .map(|comm| s.spawn(move || body(comm)))
            .collect();
        ranks
            .into_iter()
            .map(|rank| rank.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use std::thread;

    #[test]
    fn point_to_point_roundtrip() {
        let mut comms = build_thread_comms(2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        let h = thread::spawn(move || {
            let m = block_on(c1.recv(0, 7));
            assert_eq!(m.data, vec![1.0, 2.0]);
            block_on(c1.send(0, 8, ThreadMsg::floats(vec![3.0])));
        });
        block_on(c0.send(1, 7, ThreadMsg::floats(vec![1.0, 2.0])));
        let back = block_on(c0.recv(1, 8));
        assert_eq!(back.data, vec![3.0]);
        h.join().unwrap();
    }

    #[test]
    fn per_pair_fifo_ordering() {
        let mut comms = build_thread_comms(2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        for i in 0..10 {
            block_on(c0.send(1, i, ThreadMsg::floats(vec![i as f64])));
        }
        let h = thread::spawn(move || {
            for i in 0..10 {
                let m = block_on(c1.recv(0, i));
                assert_eq!(m.data[0], i as f64);
            }
        });
        h.join().unwrap();
    }

    #[test]
    fn ints_sidechannel() {
        let mut comms = build_thread_comms(2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        block_on(c0.send(
            1,
            0,
            ThreadMsg {
                data: vec![],
                ints: vec![4, 2],
            },
        ));
        assert_eq!(block_on(c1.recv(0, 0)).ints, vec![4, 2]);
    }

    #[test]
    #[should_panic(expected = "expected tag")]
    fn tag_mismatch_panics() {
        let mut comms = build_thread_comms(2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        block_on(c0.send(1, 1, ThreadMsg::default()));
        let _ = block_on(c1.recv(0, 2));
    }

    #[test]
    fn launcher_returns_results_in_rank_order() {
        // Every rank sends its rank to rank 0 and rank 0 sums them, so
        // the ranks really talk; results must line up with ranks even
        // though the threads finish in any order.
        let out = run_thread_ranks(5, |c| {
            block_on(c.send(0, 1, ThreadMsg::floats(vec![c.rank() as f64])));
            let total = if c.rank() == 0 {
                (0..c.size())
                    .map(|r| block_on(c.recv(r, 1)).data[0])
                    .sum::<f64>()
            } else {
                0.0
            };
            (c.rank(), total)
        });
        assert_eq!(out.len(), 5);
        for (r, (rank, _)) in out.iter().enumerate() {
            assert_eq!(*rank, r);
        }
        assert_eq!(out[0].1, 10.0);
    }

    #[test]
    #[should_panic(expected = "rank 2 failed")]
    fn launcher_reraises_a_rank_panic() {
        let _ = run_thread_ranks(4, |c| {
            if c.rank() == 2 {
                panic!("rank 2 failed");
            }
            c.rank()
        });
    }

    #[test]
    fn self_send_works() {
        let mut comms = build_thread_comms(1);
        let c0 = comms.pop().unwrap();
        block_on(c0.send(0, 3, ThreadMsg::floats(vec![9.0])));
        assert_eq!(block_on(c0.recv(0, 3)).data, vec![9.0]);
    }
}
