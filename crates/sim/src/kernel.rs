//! The simulation kernel: event queue, process scheduling, and the
//! single-threaded executor that runs process bodies as futures.
//!
//! ## Scheduling discipline
//!
//! Every simulated process is a future polled on the thread that calls
//! [`Simulation::run`]; there is one runnable process at a time and no
//! OS thread per process. A blocking primitive on [`Ctx`] stores its
//! `Request` in a slot shared with the kernel and returns `Pending`
//! once; the kernel then services the request. `Send`, and a `Recv`
//! that finds a message waiting, re-poll the same process immediately;
//! everything else parks it until an event wakes it. Events at equal
//! virtual time are ordered by an insertion sequence number, so a whole
//! simulation is a deterministic function of its inputs — re-running a
//! measurement campaign always reproduces the same virtual timings,
//! which the estimation-model experiments rely on.

use std::any::Any;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::mailbox::{Mailbox, MailboxId, Payload};
use crate::resource::{ResourceId, SharedResource};
use crate::time::SimTime;

/// Identifies a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Pid(pub(crate) usize);

/// What a process asks the kernel to do when it yields.
enum Request {
    /// Sleep for a delay, then wake.
    Hold(f64),
    /// Join a processor-sharing resource with `work` work-units and wake
    /// on completion.
    Compute { res: ResourceId, work: f64 },
    /// Post a message to a mailbox; the sender stays runnable.
    Send { mb: MailboxId, msg: Payload },
    /// Block until a message is available in the mailbox.
    Recv { mb: MailboxId },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EvKind {
    WakeProcess(Pid),
    ResourceFire { res: ResourceId, generation: u64 },
}

#[derive(PartialEq, Eq, Debug)]
struct Event {
    time: SimTime,
    seq: u64,
    kind: EvKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// All simulated processes are blocked and no event can wake them.
///
/// Returned by [`Simulation::run`]; carries the names of the stuck
/// processes for diagnosis (e.g. a receive with no matching send).
#[derive(Debug)]
pub struct DeadlockError {
    /// Names of the processes still blocked when the event queue drained.
    pub blocked: Vec<String>,
    /// Virtual time at which the simulation stalled.
    pub at: SimTime,
}

impl fmt::Display for DeadlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation deadlocked at t={} with blocked processes: {}",
            self.at,
            self.blocked.join(", ")
        )
    }
}

impl std::error::Error for DeadlockError {}

/// State shared between the kernel and every [`Ctx`]: the virtual clock
/// and the hand-off slots of the one process being polled.
struct Shared {
    clock: Cell<SimTime>,
    /// The request the polled process yielded with.
    request: Cell<Option<Request>>,
    /// The message a resumed `recv` picks up.
    delivery: Cell<Option<Payload>>,
}

struct ProcessRecord {
    name: String,
    /// The process body; `None` once it has returned.
    future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    /// A message taken from a mailbox for this parked receiver, handed
    /// over when its wake event fires.
    delivery: Option<Payload>,
}

/// Handle given to each process body for interacting with the simulation.
///
/// The primitives that take virtual time are `async`: awaiting one
/// suspends the calling process and resumes it when the corresponding
/// event fires. A process may only await these primitives (and futures
/// built from them); any other pending future is a programming error.
pub struct Ctx {
    pid: Pid,
    shared: Rc<Shared>,
}

impl Ctx {
    /// The process's own id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.shared.clock.get().secs()
    }

    /// Hands `req` to the kernel and suspends until it resumes us.
    async fn yield_with(&self, req: Request) {
        let mut req = Some(req);
        poll_fn(|_| match req.take() {
            Some(r) => {
                self.shared.request.set(Some(r));
                Poll::Pending
            }
            None => Poll::Ready(()),
        })
        .await
    }

    /// Suspends the process for `dt` virtual seconds.
    ///
    /// # Panics
    /// Panics if `dt` is negative or NaN.
    pub async fn hold(&self, dt: f64) {
        assert!(
            dt >= 0.0 && !dt.is_nan(),
            "hold duration must be >= 0, got {dt}"
        );
        self.yield_with(Request::Hold(dt)).await;
    }

    /// Performs `work` work-units on a processor-sharing resource and
    /// returns when the work completes. With `n` concurrent jobs on a
    /// resource of speed `s`, each progresses at `s/n` — the elapsed
    /// virtual time therefore depends on contention, exactly like a
    /// time-sliced CPU or a shared network link.
    pub async fn compute(&self, res: ResourceId, work: f64) {
        self.yield_with(Request::Compute { res, work }).await;
    }

    /// Transfers `bytes` over a shared link: a fixed `latency` hold
    /// followed by occupying the link's bandwidth (processor sharing with
    /// any concurrent transfers). The link's resource speed is interpreted
    /// as bytes per second.
    pub async fn transfer(&self, link: ResourceId, bytes: f64, latency: f64) {
        if latency > 0.0 {
            self.hold(latency).await;
        }
        self.compute(link, bytes).await;
    }

    /// Posts a message to `mb` without blocking (delivery is instantaneous
    /// in virtual time; model transport cost with [`Ctx::transfer`]).
    pub async fn send<T: Any>(&self, mb: MailboxId, msg: T) {
        let msg = Box::new(msg);
        self.yield_with(Request::Send { mb, msg }).await;
    }

    /// Receives the next message from `mb`, blocking in virtual time until
    /// one is available.
    ///
    /// # Panics
    /// Panics if the message at the head of the mailbox is not a `T`;
    /// mixing payload types in one mailbox is a programming error.
    pub async fn recv<T: Any>(&self, mb: MailboxId) -> T {
        self.yield_with(Request::Recv { mb }).await;
        let payload = self
            .shared
            .delivery
            .take()
            .expect("recv resumed without a delivery");
        match payload.downcast::<T>() {
            Ok(boxed) => *boxed,
            Err(_) => panic!(
                "mailbox type mismatch: expected {}",
                std::any::type_name::<T>()
            ),
        }
    }
}

/// A discrete-event simulation: processes, resources, mailboxes and the
/// virtual clock. Build one, spawn processes, call [`Simulation::run`].
///
/// A `Simulation` is single-shot: `run` consumes the event horizon and the
/// value cannot be reused for a second run.
pub struct Simulation {
    shared: Rc<Shared>,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    resources: Vec<SharedResource>,
    mailboxes: Vec<Mailbox>,
    processes: Vec<ProcessRecord>,
    events_dispatched: u64,
    ran: bool,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at virtual time zero.
    pub fn new() -> Self {
        Simulation {
            shared: Rc::new(Shared {
                clock: Cell::new(SimTime::ZERO),
                request: Cell::new(None),
                delivery: Cell::new(None),
            }),
            queue: BinaryHeap::new(),
            seq: 0,
            resources: Vec::new(),
            mailboxes: Vec::new(),
            processes: Vec::new(),
            events_dispatched: 0,
            ran: false,
        }
    }

    /// Registers a processor-sharing resource (CPU: `speed` = 1.0 for a
    /// unit-speed processor; link: `speed` = bytes per second).
    pub fn add_shared_resource(&mut self, name: impl Into<String>, speed: f64) -> ResourceId {
        let id = ResourceId(self.resources.len());
        self.resources.push(SharedResource::new(name, speed));
        id
    }

    /// Derates a registered resource: divides its service speed by
    /// `slowdown` (> 1 slows it down, e.g. a straggling CPU or a
    /// degraded link; fractional values model recovery). This is the
    /// fault-injection hook for execution-side chaos: the derated
    /// resource serves every subsequent job slower *through the normal
    /// processor-sharing discipline*, so contention, overlap, and
    /// completion ordering all reflect the fault — unlike post-hoc
    /// scaling of measured outputs. Jobs already in service keep the
    /// work served so far; any completion scheduled under the old rate
    /// is invalidated and recomputed.
    ///
    /// # Panics
    /// Panics if `slowdown` is not a finite positive factor.
    pub fn derate_resource(&mut self, id: ResourceId, slowdown: f64) {
        let now = self.now();
        let res = &mut self.resources[id.0];
        res.advance_to(now);
        res.derate(slowdown);
        self.reschedule_resource(id);
    }

    /// Registers a mailbox for message passing between processes.
    pub fn add_mailbox(&mut self) -> MailboxId {
        let id = MailboxId(self.mailboxes.len());
        self.mailboxes.push(Mailbox::default());
        id
    }

    /// Spawns a simulated process, starting at virtual time 0. `body`
    /// receives the process's [`Ctx`] and returns the future the kernel
    /// polls, typically an `async move` block.
    ///
    /// # Panics
    /// Panics if called after [`Simulation::run`].
    pub fn spawn<F, Fut>(&mut self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(Ctx) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        assert!(!self.ran, "cannot spawn after the simulation has run");
        let pid = Pid(self.processes.len());
        let ctx = Ctx {
            pid,
            shared: Rc::clone(&self.shared),
        };
        self.processes.push(ProcessRecord {
            name: name.into(),
            future: Some(Box::pin(body(ctx))),
            delivery: None,
        });
        // Start event at t = 0.
        self.push_event(SimTime::ZERO, EvKind::WakeProcess(pid));
        pid
    }

    fn push_event(&mut self, time: SimTime, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event { time, seq, kind }));
    }

    fn now(&self) -> SimTime {
        self.shared.clock.get()
    }

    /// Reschedules the completion event for a resource after a membership
    /// change.
    fn reschedule_resource(&mut self, res: ResourceId) {
        if let Some(t) = self.resources[res.0].next_completion() {
            let generation = self.resources[res.0].generation;
            // Guard against float drift placing the completion marginally
            // in the past.
            let t = t.max(self.now());
            self.push_event(t, EvKind::ResourceFire { res, generation });
        }
    }

    /// Polls `pid` and services its requests until it blocks or
    /// finishes. A panic in the process body unwinds out of here.
    fn resume(&mut self, pid: Pid) {
        let mut cx = Context::from_waker(Waker::noop());
        loop {
            let proc = &mut self.processes[pid.0];
            let Some(future) = proc.future.as_mut() else {
                return;
            };
            self.shared.delivery.set(proc.delivery.take());
            if future.as_mut().poll(&mut cx).is_ready() {
                proc.future = None;
                return;
            }
            let Some(req) = self.shared.request.take() else {
                panic!(
                    "process {} is pending on a future that is not a simulation primitive",
                    proc.name
                );
            };
            match req {
                Request::Hold(dt) => {
                    let at = self.now() + dt;
                    self.push_event(at, EvKind::WakeProcess(pid));
                    return;
                }
                Request::Compute { res, work } => {
                    let now = self.now();
                    self.resources[res.0].advance_to(now);
                    self.resources[res.0].add_job(pid, work);
                    self.reschedule_resource(res);
                    return;
                }
                Request::Send { mb, msg } => {
                    if let Some((waiter, payload)) = self.mailboxes[mb.0].post(msg) {
                        // Deliver at the current instant; the waiter runs
                        // after the sender yields for real.
                        self.processes[waiter.0].delivery = Some(payload);
                        let now = self.now();
                        self.push_event(now, EvKind::WakeProcess(waiter));
                    }
                    // The sender continues immediately.
                }
                Request::Recv { mb } => match self.mailboxes[mb.0].take_or_wait(pid) {
                    Some(payload) => self.processes[pid.0].delivery = Some(payload),
                    None => return, // parked in the mailbox
                },
            }
        }
    }

    /// Runs the simulation to completion.
    ///
    /// Returns the final virtual time once every process has finished, or
    /// a [`DeadlockError`] if the event queue drains while processes are
    /// still blocked.
    ///
    /// # Panics
    /// A panic in a process body unwinds out of `run`.
    pub fn run(&mut self) -> Result<f64, DeadlockError> {
        assert!(!self.ran, "Simulation::run may only be called once");
        self.ran = true;
        while let Some(Reverse(ev)) = self.queue.pop() {
            debug_assert!(ev.time >= self.now(), "event in the past");
            self.events_dispatched += 1;
            self.shared.clock.set(ev.time);
            match ev.kind {
                EvKind::WakeProcess(pid) => self.resume(pid),
                EvKind::ResourceFire { res, generation } => {
                    if self.resources[res.0].generation != generation {
                        continue; // stale: membership changed since scheduling
                    }
                    let now = self.now();
                    self.resources[res.0].advance_to(now);
                    let done = self.resources[res.0].take_completed(true);
                    self.reschedule_resource(res);
                    for pid in done {
                        self.resume(pid);
                    }
                }
            }
        }
        let blocked: Vec<String> = self
            .processes
            .iter()
            .filter(|p| p.future.is_some())
            .map(|p| p.name.clone())
            .collect();
        if blocked.is_empty() {
            Ok(self.now().secs())
        } else {
            Err(DeadlockError {
                blocked,
                at: self.now(),
            })
        }
    }
}

impl Simulation {
    /// Post-run statistics: final time, event count, per-resource usage.
    ///
    /// Meaningful after [`Simulation::run`]; resources are advanced to
    /// the final clock so busy time is complete.
    pub fn stats(&mut self) -> crate::stats::SimStats {
        let now = self.now();
        let mut resources = std::collections::BTreeMap::new();
        for r in &mut self.resources {
            r.advance_to(now);
            resources.insert(r.name().to_string(), r.stats);
        }
        crate::stats::SimStats {
            end_seconds: now.secs(),
            events: self.events_dispatched,
            resources,
        }
    }
}
