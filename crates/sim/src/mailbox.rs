//! Mailboxes: the kernel-level message-passing primitive.
//!
//! A mailbox is an unbounded FIFO of messages of the simulation's one
//! message type `M`, moved in and out unboxed, plus a FIFO of processes
//! parked in `recv`. Posting and taking happen in place, inside the
//! polled process; only a receive on an empty mailbox parks. Delivery
//! itself is instantaneous in virtual time — transport *cost* (latency,
//! bandwidth, contention) is modelled separately by the sender occupying
//! link resources before posting, which is how `etm-mpisim` layers MPI
//! semantics on top.

use std::collections::VecDeque;

use crate::kernel::Pid;

/// Identifies a mailbox registered with a [`crate::Simulation`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MailboxId(pub(crate) usize);

/// Mailboxes registered together by
/// [`crate::Simulation::add_mailboxes`], numbered `0..len` within the
/// block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MailboxBlock {
    pub(crate) first: usize,
    pub(crate) len: usize,
}

impl MailboxBlock {
    /// The block's `i`-th mailbox.
    ///
    /// # Panics
    /// Panics if the block has no `i`-th mailbox.
    pub fn get(&self, i: usize) -> MailboxId {
        assert!(i < self.len, "mailbox {i} of a block of {}", self.len);
        MailboxId(self.first + i)
    }
}

pub(crate) struct Mailbox<M> {
    queue: VecDeque<M>,
    waiters: VecDeque<Pid>,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox {
            queue: VecDeque::new(),
            waiters: VecDeque::new(),
        }
    }
}

impl<M> Mailbox<M> {
    /// Posts a message. If a receiver is parked, returns it paired with
    /// the message so the kernel can wake it; otherwise queues the message.
    pub(crate) fn post(&mut self, msg: M) -> Option<(Pid, M)> {
        if let Some(pid) = self.waiters.pop_front() {
            debug_assert!(
                self.queue.is_empty(),
                "waiters and queued messages cannot coexist"
            );
            Some((pid, msg))
        } else {
            self.queue.push_back(msg);
            None
        }
    }

    /// Takes the oldest waiting message, if any.
    pub(crate) fn take(&mut self) -> Option<M> {
        self.queue.pop_front()
    }

    /// Parks `pid` behind any earlier waiters. Only a receive that found
    /// the mailbox empty parks.
    pub(crate) fn park(&mut self, pid: Pid) {
        debug_assert!(
            self.queue.is_empty(),
            "{pid:?} parked on a mailbox with a waiting message"
        );
        self.waiters.push_back(pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_then_take_is_fifo() {
        let mut mb = Mailbox::default();
        assert!(mb.post(1u32).is_none());
        assert!(mb.post(2u32).is_none());
        assert_eq!(mb.take(), Some(1));
        assert_eq!(mb.take(), Some(2));
        assert_eq!(mb.take(), None);
    }

    #[test]
    fn waiter_is_woken_by_post() {
        let mut mb = Mailbox::default();
        assert_eq!(mb.take(), None);
        mb.park(Pid(7));
        assert_eq!(mb.post(42u32), Some((Pid(7), 42)));
        assert_eq!(mb.queue.len(), 0, "a delivered message is not queued");
    }

    #[test]
    fn waiters_are_fifo() {
        let mut mb = Mailbox::default();
        mb.park(Pid(1));
        mb.park(Pid(2));
        assert_eq!(mb.post(0u8), Some((Pid(1), 0)));
        assert_eq!(mb.post(0u8), Some((Pid(2), 0)));
        assert_eq!(mb.post(0u8), None);
    }

    #[test]
    fn queued_counts_messages() {
        let mut mb = Mailbox::default();
        assert_eq!(mb.queue.len(), 0);
        mb.post(());
        assert_eq!(mb.queue.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "waiting message")]
    fn parking_beside_a_waiting_message_is_caught() {
        let mut mb = Mailbox::default();
        mb.post(5u32);
        mb.park(Pid(0));
    }
}
