//! Mailboxes: the kernel-level message-passing primitive.
//!
//! A mailbox is an unbounded FIFO of type-erased messages plus a FIFO of
//! processes blocked in `recv`. Delivery itself is instantaneous in virtual
//! time — transport *cost* (latency, bandwidth, contention) is modelled
//! separately by the sender occupying link resources before posting, which
//! is how `etm-mpisim` layers MPI semantics on top.

use std::any::Any;
use std::collections::VecDeque;

use crate::kernel::Pid;

/// Identifies a mailbox registered with a [`crate::Simulation`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MailboxId(pub(crate) usize);

/// Type-erased message payload.
pub(crate) type Payload = Box<dyn Any>;

#[derive(Default)]
pub(crate) struct Mailbox {
    queue: VecDeque<Payload>,
    waiters: VecDeque<Pid>,
}

impl Mailbox {
    /// Posts a message. If a receiver is blocked, returns it paired with
    /// the message so the kernel can wake it; otherwise queues the message.
    pub(crate) fn post(&mut self, msg: Payload) -> Option<(Pid, Payload)> {
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

    /// Attempts an immediate receive for `pid`; on failure the process is
    /// parked in FIFO order.
    pub(crate) fn take_or_wait(&mut self, pid: Pid) -> Option<Payload> {
        match self.queue.pop_front() {
            Some(msg) => Some(msg),
            None => {
                self.waiters.push_back(pid);
                None
            }
        }
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_then_take_is_fifo() {
        let mut mb = Mailbox::default();
        assert!(mb.post(Box::new(1u32)).is_none());
        assert!(mb.post(Box::new(2u32)).is_none());
        let a = mb.take_or_wait(Pid(0)).unwrap();
        let b = mb.take_or_wait(Pid(0)).unwrap();
        assert_eq!(*a.downcast::<u32>().unwrap(), 1);
        assert_eq!(*b.downcast::<u32>().unwrap(), 2);
    }

    #[test]
    fn waiter_is_woken_by_post() {
        let mut mb = Mailbox::default();
        assert!(mb.take_or_wait(Pid(7)).is_none());
        let (pid, msg) = mb.post(Box::new(42u32)).unwrap();
        assert_eq!(pid, Pid(7));
        assert_eq!(*msg.downcast::<u32>().unwrap(), 42);
    }

    #[test]
    fn waiters_are_fifo() {
        let mut mb = Mailbox::default();
        assert!(mb.take_or_wait(Pid(1)).is_none());
        assert!(mb.take_or_wait(Pid(2)).is_none());
        let (first, _) = mb.post(Box::new(0u8)).unwrap();
        let (second, _) = mb.post(Box::new(0u8)).unwrap();
        assert_eq!(first, Pid(1));
        assert_eq!(second, Pid(2));
    }

    #[test]
    fn queued_counts_messages() {
        let mut mb = Mailbox::default();
        assert_eq!(mb.queued(), 0);
        mb.post(Box::new(()));
        assert_eq!(mb.queued(), 1);
    }
}
