//! # etm-mpisim — MPI-like message passing for the reproduction
//!
//! The paper runs HPL over MPICH. This crate supplies the two MPI
//! analogues the reproduction needs:
//!
//! * [`ThreadComm`] — every rank is an OS thread, messages carry real
//!   `Vec<f64>` payloads over `std::sync::mpsc` channels. The *numeric*
//!   HPL in `etm-hpl` runs on this backend and is validated by residual
//!   checks.
//! * [`SimComm`] — every rank is an `async` process inside an `etm-sim`
//!   [`Simulation`](etm_sim::Simulation), polled as a future on the
//!   thread running the simulation; messages carry only a byte
//!   count, and sending charges virtual time: intra-node transfers burn
//!   CPU through the [`CommLibProfile`](etm_cluster::CommLibProfile)
//!   (reproducing the MPICH-1.2.1 vs 1.2.2 gap of Figs. 1–2), inter-node
//!   transfers occupy the sender's NIC (a processor-sharing resource, so
//!   broadcast fan-out contends realistically).
//!
//! [`Comm::send`] and [`Comm::recv`] return futures, so the collective
//! operations ([`coll`]) are implemented once, generically, as `async`
//! functions over the [`Comm`] trait — ring and binomial broadcast,
//! barrier — and therefore behave identically on both backends. A
//! simulated rank awaits them inside its process; a thread rank drives
//! them with [`block_on`], because its futures block inside their first
//! poll and never return `Pending`.
//!
//! Each backend has one SPMD launcher (the same program on every rank):
//! [`run_thread_ranks`] runs a body on `p` thread ranks, and
//! [`run_sim_ranks`] builds the simulated fabric for a placement, lets
//! the caller derate it, and spawns one simulated process per slot.
//! Every numeric and timed run in `etm-hpl` and `etm-stencil` is a rank
//! body handed to one of them.
//!
//! [`netpipe`] is the NetPIPE analogue: a ping-pong throughput sweep over
//! the simulated fabric, regenerating Fig. 2.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::future::Future;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

pub mod coll;
pub mod netpipe;
mod simcomm;
mod subcomm;
mod threadcomm;

pub use simcomm::{run_sim_ranks, FabricSim, SimComm, SimCommSeed, SimFabric, SimMsg, SimRanks};
pub use subcomm::SubComm;
pub use threadcomm::{run_thread_ranks, ThreadComm, ThreadMsg};

/// Message-passing endpoint: what the generic collectives require.
///
/// `send` is asynchronous-buffered (never waits for a matching receive);
/// `recv` waits until a message from `from` with the expected `tag`
/// arrives. Both return futures: on the simulated fabric they suspend
/// the rank in virtual time, on the thread fabric they complete on their
/// first poll. Point-to-point ordering per (sender, receiver) pair is
/// guaranteed; tags are checked, not searched — out-of-order tag usage
/// within a pair is a protocol bug and panics.
pub trait Comm {
    /// Message payload type (real data or byte counts).
    type Msg: Clone + Default + Send + 'static;

    /// This endpoint's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Sends `msg` to rank `to` under `tag`.
    fn send(&self, to: usize, tag: u32, msg: Self::Msg) -> impl Future<Output = ()>;

    /// Receives the next message from rank `from`, asserting it carries
    /// `tag`.
    fn recv(&self, from: usize, tag: u32) -> impl Future<Output = Self::Msg>;
}

/// Runs a thread-backed communication future to completion on the
/// calling thread. [`ThreadComm`] futures block inside their first poll,
/// so one poll finishes them.
///
/// # Panics
/// Panics if the future returns `Pending` — it awaits a simulated
/// primitive, which only a [`Simulation`](etm_sim::Simulation) can drive.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    match pin!(fut).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!("block_on: future is pending (not thread-backed)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "future is pending")]
    fn block_on_rejects_a_pending_future() {
        block_on(std::future::pending::<()>());
    }
}
