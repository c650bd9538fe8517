//! Sub-communicators: a communicator over a subset of another
//! communicator's ranks (the `MPI_Comm_split` analogue).
//!
//! A 2-D process grid runs its collectives along process *rows* and
//! *columns*; [`SubComm`] gives each row/column its own rank space so the
//! generic collectives in [`crate::coll`] work unchanged.

use std::future::Future;

use crate::Comm;

/// A view of a parent communicator restricted to `members` (parent
/// ranks), re-ranked densely in member order.
pub struct SubComm<'a, C: Comm> {
    parent: &'a C,
    members: Vec<usize>,
    my_index: usize,
}

impl<'a, C: Comm> SubComm<'a, C> {
    /// Creates the sub-communicator. The calling rank must be a member.
    ///
    /// # Panics
    /// Panics if `members` is empty, contains duplicates or out-of-range
    /// ranks, or does not contain the caller.
    pub fn new(parent: &'a C, members: Vec<usize>) -> Self {
        assert!(!members.is_empty(), "sub-communicator needs members");
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), members.len(), "duplicate members");
        assert!(
            members.iter().all(|&r| r < parent.size()),
            "member rank out of range"
        );
        let my_index = members
            .iter()
            .position(|&r| r == parent.rank())
            .expect("caller must be a member of its sub-communicator");
        SubComm {
            parent,
            members,
            my_index,
        }
    }

    /// Parent rank of a sub-rank.
    pub fn to_parent(&self, sub_rank: usize) -> usize {
        self.members[sub_rank]
    }
}

impl<C: Comm> Comm for SubComm<'_, C> {
    type Msg = C::Msg;

    fn rank(&self) -> usize {
        self.my_index
    }

    fn size(&self) -> usize {
        self.members.len()
    }

    fn send(&self, to: usize, tag: u32, msg: Self::Msg) -> impl Future<Output = ()> {
        self.parent.send(self.members[to], tag, msg)
    }

    fn recv(&self, from: usize, tag: u32) -> impl Future<Output = Self::Msg> {
        self.parent.recv(self.members[from], tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_on;
    use crate::coll::{barrier, gather, ring_bcast};
    use crate::threadcomm::{build_thread_comms, run_thread_ranks, ThreadMsg};

    #[test]
    fn subcomm_reranks_densely() {
        // 6 ranks split into rows {0,1,2} and {3,4,5}.
        run_thread_ranks(6, |c| {
            let row: Vec<usize> = if c.rank() < 3 {
                vec![0, 1, 2]
            } else {
                vec![3, 4, 5]
            };
            let sub = SubComm::new(&c, row.clone());
            assert_eq!(sub.size(), 3);
            assert_eq!(sub.rank(), c.rank() % 3);
            assert_eq!(sub.to_parent(sub.rank()), c.rank());
            // Row-local broadcast from sub-rank 0.
            let payload = (sub.rank() == 0).then(|| ThreadMsg::floats(vec![row[0] as f64]));
            let got = block_on(ring_bcast(&sub, 0, payload));
            assert_eq!(got.data, vec![row[0] as f64]);
            block_on(barrier(&sub));
        });
    }

    #[test]
    fn column_gather_through_subcomm() {
        // 4 ranks as a 2x2 grid; gather along columns {0,2} and {1,3}.
        run_thread_ranks(4, |c| {
            let col: Vec<usize> = if c.rank() % 2 == 0 {
                vec![0, 2]
            } else {
                vec![1, 3]
            };
            let sub = SubComm::new(&c, col);
            let mine = ThreadMsg::floats(vec![c.rank() as f64]);
            if let Some(all) = block_on(gather(&sub, 0, mine)) {
                assert_eq!(sub.rank(), 0);
                assert_eq!(all.len(), 2);
                assert_eq!(all[1].data[0], (c.rank() + 2) as f64);
            }
        });
    }

    #[test]
    #[should_panic(expected = "member")]
    fn caller_must_be_member() {
        let mut comms = build_thread_comms(3);
        let c2 = comms.pop().unwrap();
        let _ = SubComm::new(&c2, vec![0, 1]);
    }
}
