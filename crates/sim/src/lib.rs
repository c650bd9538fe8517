//! # etm-sim — deterministic discrete-event simulation engine
//!
//! A process-oriented discrete-event simulator in the style of SimPy /
//! OMNeT++, purpose-built as the measurement substrate for the
//! execution-time estimation study (Kishimoto & Ichikawa, IPDPS 2004
//! reproduction). The paper measures HPL on physical hardware; this crate
//! provides the *virtual hardware clock* those measurements run against.
//!
//! ## Model
//!
//! A [`Simulation`] owns a virtual clock and an event queue. User code
//! spawns *processes* — `async` blocks that the kernel polls as futures
//! on the thread calling [`Simulation::run`]. Exactly one process runs
//! at any instant, and control returns to the kernel whenever the
//! process awaits a primitive on its [`Ctx`] handle. No process gets an
//! OS thread, and handing control back and forth costs a function call.
//! Executions are fully deterministic (identical event interleavings for
//! identical inputs) while simulation logic stays straight-line code.
//!
//! Primitives:
//!
//! * [`Ctx::hold`] — advance this process's local time by a delay.
//! * [`Ctx::compute`] — occupy a processor-sharing CPU for a given amount
//!   of *work* (seconds at full speed); co-scheduled jobs slow each other
//!   down, which is exactly the multiprocessing overhead regime the paper
//!   studies.
//! * [`Ctx::transfer`] — move bytes across a processor-sharing link
//!   (latency + shared bandwidth), modelling NIC/switch contention.
//! * [`Ctx::send`] / [`Ctx::recv`] — mailbox message passing, used by
//!   the message-passing layer in `etm-mpisim`. A simulation carries one
//!   message type `M` ([`Simulation<M>`]), moved unboxed. `send` is a
//!   plain call that posts in place and never yields; `recv` takes a
//!   waiting message in place and yields only on an empty mailbox. A
//!   receiver a `send` delivers to is woken at the same instant, ahead of
//!   whatever the sender does next.
//!
//! `hold`, `compute` and a parking `recv` return one flat future that
//! yields to the kernel exactly once.
//!
//! ## Example
//!
//! ```
//! use etm_sim::Simulation;
//!
//! let mut sim = Simulation::<u32>::new();
//! let cpu = sim.add_shared_resource("cpu", 1.0);
//! let done = sim.add_mailbox();
//! for i in 0..2 {
//!     sim.spawn(format!("worker{i}"), move |ctx| async move {
//!         // Two jobs of 1.0s of work share one CPU: both finish at t=2.
//!         ctx.compute(cpu, 1.0).await;
//!         ctx.send(done, i);
//!     });
//! }
//! sim.spawn("collector", move |ctx| async move {
//!     let first = ctx.recv(done).await;
//!     let second = ctx.recv(done).await;
//!     assert_eq!((first, second), (0, 1));
//! });
//! let end = sim.run().expect("no deadlock");
//! assert!((end - 2.0).abs() < 1e-9);
//! ```

mod kernel;
mod mailbox;
mod resource;
mod stats;
mod time;

pub use kernel::{Ctx, DeadlockError, Pid, Simulation};
pub use mailbox::MailboxId;
pub use resource::ResourceId;
pub use stats::{ResourceStats, SimStats};
pub use time::SimTime;
