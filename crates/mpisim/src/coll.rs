//! Collective operations, generic over [`Comm`].
//!
//! HPL broadcasts each factored panel along the process row; its default
//! `1ring` algorithm is the [`ring_bcast`] here. [`binomial_bcast`] is
//! the log-depth alternative, and [`barrier`] is a 0-byte gather/release
//! used for run synchronization. Implemented once, as `async` functions,
//! so the thread and the discrete-event backends execute byte-identical
//! communication patterns.

use crate::Comm;

/// Tag namespace base for collectives (keeps them clear of HPL's tags).
const COLL_TAG: u32 = 0xC011_0000;

/// Increasing-ring broadcast (HPL's `1ring`): root sends to the next
/// rank, each rank forwards to its successor. `P − 1` messages total,
/// pipelined along the ring.
///
/// Non-root callers pass `None` and receive the payload; the root passes
/// `Some(msg)` and gets it back.
///
/// # Panics
/// Panics if the root passes `None` or a non-root passes `Some`.
pub async fn ring_bcast<C: Comm>(comm: &C, root: usize, msg: Option<C::Msg>) -> C::Msg {
    let p = comm.size();
    let me = comm.rank();
    if p == 1 {
        return msg.expect("root must supply the message");
    }
    let next = (me + 1) % p;
    let prev = (me + p - 1) % p;
    if me == root {
        let m = msg.expect("root must supply the message");
        comm.send(next, COLL_TAG, m.clone()).await;
        m
    } else {
        assert!(
            msg.is_none(),
            "non-root rank {me} must not supply a message"
        );
        let m = comm.recv(prev, COLL_TAG).await;
        if next != root {
            comm.send(next, COLL_TAG, m.clone()).await;
        }
        m
    }
}

/// Binomial-tree broadcast: log₂(P) rounds; in round `k`, ranks within
/// `2^k` of the root (in root-relative numbering) forward to rank
/// `+2^k`.
///
/// # Panics
/// Same contract as [`ring_bcast`].
pub async fn binomial_bcast<C: Comm>(comm: &C, root: usize, msg: Option<C::Msg>) -> C::Msg {
    let p = comm.size();
    let me = comm.rank();
    let rel = (me + p - root) % p; // root-relative rank
    let mut have: Option<C::Msg> = if rel == 0 {
        Some(msg.expect("root must supply the message"))
    } else {
        assert!(
            msg.is_none(),
            "non-root rank {me} must not supply a message"
        );
        None
    };
    let mut span = 1;
    while span < p {
        if let Some(m) = &have {
            if rel < span && rel + span < p {
                let dst = (rel + span + root) % p;
                comm.send(dst, COLL_TAG + 1, m.clone()).await;
            }
        } else if rel < 2 * span && rel >= span {
            let src = (rel - span + root) % p;
            have = Some(comm.recv(src, COLL_TAG + 1).await);
        }
        span *= 2;
    }
    have.expect("broadcast must reach every rank")
}

/// Barrier: gather 0-byte tokens to rank 0, then a release broadcast.
pub async fn barrier<C: Comm>(comm: &C) {
    let p = comm.size();
    let me = comm.rank();
    if p == 1 {
        return;
    }
    if me == 0 {
        for from in 1..p {
            let _ = comm.recv(from, COLL_TAG + 2).await;
        }
        for to in 1..p {
            comm.send(to, COLL_TAG + 3, C::Msg::default()).await;
        }
    } else {
        comm.send(0, COLL_TAG + 2, C::Msg::default()).await;
        let _ = comm.recv(0, COLL_TAG + 3).await;
    }
}

/// Gathers one message from every rank to the root; returns `Some(msgs)`
/// (indexed by rank) at the root and `None` elsewhere.
pub async fn gather<C: Comm>(comm: &C, root: usize, msg: C::Msg) -> Option<Vec<C::Msg>> {
    let p = comm.size();
    let me = comm.rank();
    if me == root {
        let mut all: Vec<Option<C::Msg>> = (0..p).map(|_| None).collect();
        all[root] = Some(msg);
        for from in (0..p).filter(|&r| r != root) {
            all[from] = Some(comm.recv(from, COLL_TAG + 4).await);
        }
        Some(all.into_iter().map(|m| m.expect("gathered")).collect())
    } else {
        comm.send(root, COLL_TAG + 4, msg).await;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use crate::threadcomm::{run_thread_ranks, ThreadMsg};

    #[test]
    fn ring_bcast_delivers_to_all() {
        for p in [1usize, 2, 3, 7] {
            for root in 0..p {
                run_thread_ranks(p, |c| {
                    let payload = if c.rank() == root {
                        Some(ThreadMsg::floats(vec![root as f64, 42.0]))
                    } else {
                        None
                    };
                    let got = block_on(ring_bcast(&c, root, payload));
                    assert_eq!(got.data, vec![root as f64, 42.0]);
                });
            }
        }
    }

    #[test]
    fn binomial_bcast_delivers_to_all() {
        for p in [1usize, 2, 4, 5, 8] {
            for root in [0, p / 2, p - 1] {
                run_thread_ranks(p, |c| {
                    let payload = if c.rank() == root {
                        Some(ThreadMsg::floats(vec![13.0]))
                    } else {
                        None
                    };
                    let got = block_on(binomial_bcast(&c, root, payload));
                    assert_eq!(got.data, vec![13.0]);
                });
            }
        }
    }

    #[test]
    fn barrier_completes() {
        run_thread_ranks(6, |c| {
            for _ in 0..5 {
                block_on(barrier(&c));
            }
        });
    }

    #[test]
    fn gather_collects_by_rank() {
        run_thread_ranks(5, |c| {
            let mine = ThreadMsg::floats(vec![c.rank() as f64]);
            match block_on(gather(&c, 2, mine)) {
                Some(all) => {
                    assert_eq!(c.rank(), 2);
                    for (r, m) in all.iter().enumerate() {
                        assert_eq!(m.data, vec![r as f64]);
                    }
                }
                None => assert_ne!(c.rank(), 2),
            }
        });
    }
}
