//! The simulation kernel: event queue, process scheduling, and the
//! single-threaded executor that runs process bodies as futures.
//!
//! ## Scheduling discipline
//!
//! Every simulated process is a future polled on the thread that calls
//! [`Simulation::run`]; there is one runnable process at a time and no
//! OS thread per process. A blocking primitive on [`Ctx`] either
//! finishes in place (below) or stores its plain-data `Request` in a
//! slot shared with the kernel and returns `Pending` once; the kernel
//! then services the request, and the next poll of the primitive is
//! ready. Message passing completes in place and never yields by
//! itself: a `send` posts into the mailbox, which lives in the state
//! shared with the kernel, and a `recv` that finds a message waiting
//! takes it. A `send` that meets a parked receiver
//! records the pair `(receiver, message)` in a `woken` list; a `recv`
//! yields only on an empty mailbox and parks there. After every poll,
//! whether the process finished or yielded, the kernel first schedules
//! the wakes in the `woken` list, in post order, keeping each message
//! with its receiver, and only then services the yielded request, so a
//! receiver woken before its sender's next primitive holds the lower
//! sequence number. A resumed receiver finds its message in a delivery
//! slot, written just before the poll that resumes it.
//!
//! A `hold`, or a `compute` on an idle resource, finishes inside its
//! own first poll when its wake would be the very next event the kernel
//! pops: its `(time, seq)` key sorts below the *horizon*, the smallest
//! key queued when the kernel resumed the process, and no receiver
//! woken earlier in the poll still waits to be scheduled. It then does
//! what pushing, popping and dispatching that wake would: it takes the
//! wake's sequence number, counts one event, moves the clock to the
//! wake's time and, for a compute, starts and completes the lone job on
//! the resource. The process runs on without yielding, so a process
//! alone in the queue runs its whole body in one poll. Nothing a
//! process does in place touches the queue, so the horizon holds for
//! the whole poll. When one resource completion finishes several jobs,
//! the kernel resumes them one by one at the same instant, and each but
//! the last is resumed under a horizon of 0: it may not run ahead of a
//! peer that is still waiting to be polled. A `recv` and a `compute` on
//! a busy resource always yield.
//!
//! Events at equal virtual time are ordered by an insertion sequence
//! number, so a whole simulation is a deterministic function of its
//! inputs — re-running a measurement campaign always reproduces the same
//! virtual timings, which the estimation-model experiments rely on.
//!
//! ## Event queue
//!
//! The queue is an indexed binary min-heap holding at most one entry
//! per process (its pending wake) and one per resource that lists jobs
//! (its next completion). A resource serving one job alone has no
//! entry: a `compute` on an idle resource schedules the process's own
//! wake at the job's completion, and the wake does the resource's
//! completion accounting before it resumes the process. A second job
//! arriving moves the lone job into the resource's list and drops its
//! wake; from then on a membership or speed change overwrites the
//! resource's entry in place with a fresh sequence number. An idle
//! resource has no entry, so the queue never holds a stale event and
//! every dispatched event is live.
//!
//! Serving a job alone leaves every virtual time, the pop order and the
//! event and poll counts bit-identical to listing it. The wake is
//! scheduled at the same time expression the resource's completion
//! would have had, with the one sequence number that completion would
//! have taken, so it holds the same `(time, seq)` key; it is one
//! dispatched event either way. A lone job moved into the list gets
//! its resource entry from the insert that used to overwrite it in
//! place, under the same fresh sequence number, so that key is the
//! same too, and keys alone decide the pop order.
//!
//! A primitive finished in place never enters the queue. Its key is the
//! one its wake would have had, and it sorts below every queued key, so
//! it is the event the next pop would have returned: times, the pop
//! order and the event count stay bit-identical, and only polls fall.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::label::Label;
use crate::mailbox::{Mailbox, MailboxBlock, MailboxId};
use crate::resource::{ResourceId, SharedResource};
use crate::time::SimTime;

/// Identifies a simulated process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Pid(pub(crate) usize);

/// What a process asks the kernel to do when it yields.
#[derive(Clone, Copy)]
enum Request {
    /// Sleep for a delay, then wake.
    Hold(f64),
    /// Join a processor-sharing resource with `work` work-units and wake
    /// on completion.
    Compute { res: ResourceId, work: f64 },
    /// Park on an empty mailbox until a `send` delivers to it.
    Recv { mb: MailboxId },
}

/// The owner of a queue entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EvKind {
    WakeProcess(Pid),
    ResourceFire(ResourceId),
}

/// Heap position of an owner with no pending entry.
const NOT_QUEUED: usize = usize::MAX;

impl EvKind {
    /// The owner's index into [`EventQueue::pos`]: process `p` is `2p`,
    /// resource `r` is `2r + 1`.
    fn slot(self) -> usize {
        match self {
            EvKind::WakeProcess(pid) => 2 * pid.0,
            EvKind::ResourceFire(res) => 2 * res.0 + 1,
        }
    }

    fn of_slot(slot: usize) -> EvKind {
        if slot.is_multiple_of(2) {
            EvKind::WakeProcess(Pid(slot / 2))
        } else {
            EvKind::ResourceFire(ResourceId(slot / 2))
        }
    }
}

#[derive(Clone, Copy)]
struct Entry {
    /// `(time, seq)` packed by [`order_key`]; one integer compare orders
    /// two entries.
    key: u128,
    /// The owner's [`EvKind::slot`].
    slot: usize,
}

impl Entry {
    /// The event time, unpacked from the key (a `-0.0` reads as `+0.0`).
    fn time(&self) -> SimTime {
        SimTime::new(f64::from_bits((self.key >> 64) as u64))
    }
}

/// Packs the order key `(time, seq)` into one `u128`. The bits of a
/// non-negative `f64` sort the way its value does; `-0.0` (which
/// [`SimTime::new`] accepts) is folded onto `+0.0` first.
fn order_key(time: SimTime, seq: u64) -> u128 {
    let secs = time.secs();
    let bits = if secs == 0.0 { 0 } else { secs.to_bits() };
    (u128::from(bits) << 64) | u128::from(seq)
}

/// Indexed binary min-heap keyed by [`order_key`], with at most one
/// entry per process and one per resource. `pos[slot]` is the heap
/// index of that owner's entry, or [`NOT_QUEUED`].
#[derive(Default)]
struct EventQueue {
    heap: Vec<Entry>,
    pos: Vec<usize>,
}

impl EventQueue {
    /// An empty queue with room for the entries of `processes` processes
    /// and `resources` resources.
    fn with_capacity(processes: usize, resources: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(processes + resources),
            pos: Vec::with_capacity(2 * processes.max(resources)),
        }
    }

    /// Makes room in `pos` for a newly registered owner.
    fn register(&mut self, kind: EvKind) {
        let slot = kind.slot();
        if self.pos.len() <= slot {
            self.pos.resize(slot + 1, NOT_QUEUED);
        }
    }

    /// Schedules `kind` at `(time, seq)`: a resource's existing entry is
    /// overwritten in place, anything else is inserted.
    fn schedule(&mut self, kind: EvKind, time: SimTime, seq: u64) {
        let entry = Entry {
            key: order_key(time, seq),
            slot: kind.slot(),
        };
        let at = self.pos[entry.slot];
        if at == NOT_QUEUED {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        } else {
            debug_assert!(
                matches!(kind, EvKind::ResourceFire(_)),
                "{kind:?}: a process never has two pending wakes"
            );
            // A fresh seq only ever raises the key, but the time may move
            // either way (a derate can speed a resource up).
            let old = self.heap[at].key;
            self.heap[at] = entry;
            if entry.key < old {
                self.sift_up(at);
            } else {
                self.sift_down(at);
            }
        }
    }

    /// Drops `kind`'s entry, if it has one.
    fn remove(&mut self, kind: EvKind) {
        let at = self.pos[kind.slot()];
        if at != NOT_QUEUED {
            self.take(at);
        }
    }

    /// The earliest entry's key, or `u128::MAX` on an empty queue.
    fn min_key(&self) -> u128 {
        self.heap.first().map_or(u128::MAX, |e| e.key)
    }

    /// Removes and returns the earliest entry.
    fn pop(&mut self) -> Option<(SimTime, EvKind)> {
        if self.heap.is_empty() {
            None
        } else {
            let e = self.take(0);
            Some((e.time(), EvKind::of_slot(e.slot)))
        }
    }

    /// Removes the entry at heap index `at`, refilling the hole with the
    /// last entry.
    fn take(&mut self, at: usize) -> Entry {
        let e = self.heap.swap_remove(at);
        self.pos[e.slot] = NOT_QUEUED;
        if at < self.heap.len() {
            if self.heap[at].key < e.key {
                self.sift_up(at);
            } else {
                self.sift_down(at);
            }
        }
        e
    }

    /// Moves the entry at `i` up to its place, shifting the parents it
    /// passes down into the hole; records every moved entry's position.
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key <= entry.key {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i].slot] = i;
            i = parent;
        }
        self.heap[i] = entry;
        self.pos[entry.slot] = i;
    }

    /// Moves the entry at `i` down to its place, shifting the smaller
    /// child up into the hole at each level.
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            // The smaller child by index arithmetic, not a branch.
            let child = if right < len {
                left + usize::from(self.heap[right].key < self.heap[left].key)
            } else {
                left
            };
            if entry.key <= self.heap[child].key {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i].slot] = i;
            i = child;
        }
        self.heap[i] = entry;
        self.pos[entry.slot] = i;
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

/// State shared between the kernel and every [`Ctx`]: the virtual
/// clock, the sequence and event counters, the hand-off slots of the one
/// process being polled, the mail and the resources. The delivery slot
/// is empty whenever the kernel has serviced a request.
struct Shared<M> {
    clock: Cell<SimTime>,
    /// The next insertion sequence number.
    seq: Cell<u64>,
    /// Events dispatched so far, those finished in place included.
    events: Cell<u64>,
    /// The smallest key the queue held when the polled process was
    /// resumed, or 0 when the process may not run ahead of anything. A
    /// primitive whose wake would sort below it finishes in place.
    horizon: Cell<u128>,
    /// The request the polled process yielded with.
    request: Cell<Option<Request>>,
    /// The message a resumed `recv` picks up.
    delivery: Cell<Option<M>>,
    mail: RefCell<Mail<M>>,
    resources: RefCell<Vec<SharedResource>>,
}

impl<M> Shared<M> {
    /// Takes the next insertion sequence number.
    fn take_seq(&self) -> u64 {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        seq
    }

    /// Finishes `request`, made by `pid`, inside the poll that made it
    /// when its wake would be the next event the kernel pops: a `Hold`,
    /// or a `Compute` on an idle resource, with no receiver woken in this
    /// poll still to schedule and a key below the horizon. It then does
    /// what pushing, popping and dispatching that wake would: takes its
    /// sequence number, counts one event, moves the clock to the wake's
    /// time and, for a compute, starts and finishes the lone job. Returns
    /// whether it did; a refused request goes to the kernel.
    fn finish_in_place(&self, pid: Pid, request: Request) -> bool {
        if !self.mail.borrow().woken.is_empty() {
            return false;
        }
        let (now, seq) = (self.clock.get(), self.seq.get());
        let below_horizon = |t: SimTime| order_key(t, seq) < self.horizon.get();
        let done = match request {
            Request::Hold(dt) => {
                let t = now + dt;
                if !below_horizon(t) {
                    return false;
                }
                t
            }
            Request::Compute { res, work } => {
                let mut resources = self.resources.borrow_mut();
                let resource = &mut resources[res.0];
                match resource.lone_completion(now, work) {
                    Some(t) if below_horizon(t) => {
                        resource.start_lone(now, pid, work);
                        resource.finish_lone(t);
                        t
                    }
                    _ => return false,
                }
            }
            Request::Recv { .. } => return false,
        };
        self.seq.set(seq + 1);
        self.events.set(self.events.get() + 1);
        self.clock.set(done);
        true
    }
}

/// Everything message passing touches, posted to and taken from in
/// place by the process being polled.
struct Mail<M> {
    boxes: Vec<Mailbox<M>>,
    /// Parked receivers a `send` has delivered to since the kernel last
    /// scheduled wakes, each with its message, in post order.
    woken: Vec<(Pid, M)>,
}

struct ProcessRecord<M> {
    name: Label,
    /// The process body; `None` once it has returned.
    future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    /// The message posted to this parked receiver, handed over when its
    /// wake event fires.
    delivery: Option<M>,
    /// The resource serving this process alone: its pending wake is the
    /// job's completion.
    alone_on: Option<ResourceId>,
}

/// Whether the delivery slot holds nothing (leaves the slot as it was).
fn is_empty<M>(slot: &Cell<Option<M>>) -> bool {
    let held = slot.take();
    let empty = held.is_none();
    slot.set(held);
    empty
}

/// Handle given to each process body for interacting with the simulation.
///
/// The primitives that take virtual time return futures: awaiting one
/// suspends the calling process and resumes it when the corresponding
/// event fires, or, when that event is the next one the kernel would
/// dispatch, finishes it in the same poll (see the module doc). A
/// process may only await these primitives (and futures built from
/// them); any other pending future is a programming error.
/// `M` is the one message type of the simulation's mailboxes.
pub struct Ctx<M> {
    shared: Rc<Shared<M>>,
    pid: Pid,
}

/// The future of a primitive that yields at most once: its first poll
/// finishes the request in place when it may (`Shared::finish_in_place`)
/// and is ready, or hands the request to the kernel, and then its second
/// poll is ready.
struct Yield<'a, M> {
    shared: &'a Shared<M>,
    pid: Pid,
    request: Option<Request>,
}

impl<M> Future for Yield<'_, M> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        match self.request.take() {
            Some(req) if !self.shared.finish_in_place(self.pid, req) => {
                self.shared.request.set(Some(req));
                Poll::Pending
            }
            _ => Poll::Ready(()),
        }
    }
}

/// The future of [`Ctx::recv`]: its first poll takes a waiting message
/// or, on an empty mailbox, yields `Recv`; the poll after the wake
/// takes the message from the delivery slot.
struct Recv<'a, M> {
    shared: &'a Shared<M>,
    mb: MailboxId,
    parked: bool,
}

impl<M> Future for Recv<'_, M> {
    type Output = M;

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<M> {
        let shared = self.shared;
        if self.parked {
            let msg = shared.delivery.take();
            return Poll::Ready(msg.expect("recv resumed without a delivery"));
        }
        let waiting = shared.mail.borrow_mut().boxes[self.mb.0].take();
        match waiting {
            Some(msg) => Poll::Ready(msg),
            None => {
                shared.request.set(Some(Request::Recv { mb: self.mb }));
                self.parked = true;
                Poll::Pending
            }
        }
    }
}

impl<M> Ctx<M> {
    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.shared.clock.get().secs()
    }

    fn yield_with(&self, request: Request) -> Yield<'_, M> {
        Yield {
            shared: &self.shared,
            pid: self.pid,
            request: Some(request),
        }
    }

    /// Suspends the process for `dt` virtual seconds.
    ///
    /// # Panics
    /// Panics if `dt` is negative or NaN.
    pub fn hold(&self, dt: f64) -> impl Future<Output = ()> + '_ {
        assert!(
            dt >= 0.0 && !dt.is_nan(),
            "hold duration must be >= 0, got {dt}"
        );
        self.yield_with(Request::Hold(dt))
    }

    /// Performs `work` work-units on a processor-sharing resource and
    /// returns when the work completes. With `n` concurrent jobs on a
    /// resource of speed `s`, each progresses at `s/n` — the elapsed
    /// virtual time therefore depends on contention, exactly like a
    /// time-sliced CPU or a shared network link.
    pub fn compute(&self, res: ResourceId, work: f64) -> impl Future<Output = ()> + '_ {
        self.yield_with(Request::Compute { res, work })
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

    /// Posts a message to `mb` in place; the sender does not yield.
    /// Delivery is instantaneous in virtual time (model transport cost
    /// with [`Ctx::transfer`]). A receiver parked on `mb` is woken at the
    /// current instant, after the sender yields or finishes.
    ///
    /// Every mailbox of a simulation carries its one message type `M`,
    /// so a message of another type does not compile:
    ///
    /// ```compile_fail
    /// use etm_sim::Simulation;
    ///
    /// let mut sim = Simulation::<u32>::new();
    /// let mb = sim.add_mailbox();
    /// sim.spawn("sender", move |ctx| async move {
    ///     ctx.send(mb, String::from("panel"));
    /// });
    /// ```
    pub fn send(&self, mb: MailboxId, msg: M) {
        let mut mail = self.shared.mail.borrow_mut();
        if let Some(woken) = mail.boxes[mb.0].post(msg) {
            mail.woken.push(woken);
        }
    }

    /// Receives the next message from `mb`: takes a waiting message in
    /// place, or parks in virtual time until one is posted.
    pub fn recv(&self, mb: MailboxId) -> impl Future<Output = M> + '_ {
        Recv {
            shared: &self.shared,
            mb,
            parked: false,
        }
    }
}

/// A discrete-event simulation: processes, resources, mailboxes and the
/// virtual clock. Build one, spawn processes, call [`Simulation::run`].
/// `M` is the message type every mailbox carries; a simulation that
/// passes no messages can use `()`.
///
/// A `Simulation` is single-shot: `run` consumes the event horizon and the
/// value cannot be reused for a second run.
pub struct Simulation<M> {
    shared: Rc<Shared<M>>,
    queue: EventQueue,
    processes: Vec<ProcessRecord<M>>,
    /// Reused buffer for the processes a resource completion wakes.
    completed: Vec<Pid>,
    polls: u64,
    ran: bool,
}

impl<M> Default for Simulation<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Simulation<M> {
    /// Creates an empty simulation at virtual time zero.
    pub fn new() -> Self {
        Self::with_capacity(0, 0, 0)
    }

    /// Creates an empty simulation with room for `processes` processes,
    /// `resources` resources and `mailboxes` mailboxes, so registering
    /// that many grows no table. Registering more is allowed.
    pub fn with_capacity(processes: usize, resources: usize, mailboxes: usize) -> Self {
        Simulation {
            shared: Rc::new(Shared {
                clock: Cell::new(SimTime::ZERO),
                seq: Cell::new(0),
                events: Cell::new(0),
                horizon: Cell::new(0),
                request: Cell::new(None),
                delivery: Cell::new(None),
                mail: RefCell::new(Mail {
                    boxes: Vec::with_capacity(mailboxes),
                    woken: Vec::new(),
                }),
                resources: RefCell::new(Vec::with_capacity(resources)),
            }),
            queue: EventQueue::with_capacity(processes, resources),
            processes: Vec::with_capacity(processes),
            completed: Vec::new(),
            polls: 0,
            ran: false,
        }
    }

    /// Registers a processor-sharing resource (CPU: `speed` = 1.0 for a
    /// unit-speed processor; link: `speed` = bytes per second). `name`
    /// is rendered only when read: in a panic message and as the
    /// resource's key in [`Simulation::stats`], where resources whose
    /// labels read alike share one key.
    pub fn add_shared_resource(&mut self, name: impl Into<Label>, speed: f64) -> ResourceId {
        let mut resources = self.shared.resources.borrow_mut();
        let id = ResourceId(resources.len());
        resources.push(SharedResource::new(name, speed));
        drop(resources);
        self.queue.register(EvKind::ResourceFire(id));
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
    /// work served so far; the completion scheduled under the old rate
    /// is recomputed in place. Processes cannot reach the
    /// `Simulation`, so a derate runs before [`Simulation::run`], when
    /// no job is in service.
    ///
    /// # Panics
    /// Panics if `slowdown` is not a finite positive factor.
    pub fn derate_resource(&mut self, id: ResourceId, slowdown: f64) {
        let now = self.now();
        {
            let res = &mut self.shared.resources.borrow_mut()[id.0];
            // `advance_to` also asserts that no job is served alone.
            res.advance_to(now);
            res.derate(slowdown);
        }
        self.reschedule_resource(id);
    }

    /// Registers a mailbox for message passing between processes.
    pub fn add_mailbox(&mut self) -> MailboxId {
        self.add_mailboxes(1).get(0)
    }

    /// Registers `count` mailboxes at once.
    pub fn add_mailboxes(&mut self, count: usize) -> MailboxBlock {
        let boxes = &mut self.shared.mail.borrow_mut().boxes;
        let first = boxes.len();
        boxes.extend((0..count).map(|_| Mailbox::default()));
        MailboxBlock { first, len: count }
    }

    /// Spawns a simulated process, starting at virtual time 0. `body`
    /// receives the process's [`Ctx`] and returns the future the kernel
    /// polls, typically an `async move` block. `name` is rendered only
    /// when read: in a [`DeadlockError`] and in panic messages.
    ///
    /// # Panics
    /// Panics if called after [`Simulation::run`].
    pub fn spawn<F, Fut>(&mut self, name: impl Into<Label>, body: F) -> Pid
    where
        F: FnOnce(Ctx<M>) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        assert!(!self.ran, "cannot spawn after the simulation has run");
        let pid = Pid(self.processes.len());
        let ctx = Ctx {
            shared: Rc::clone(&self.shared),
            pid,
        };
        self.processes.push(ProcessRecord {
            name: name.into(),
            future: Some(Box::pin(body(ctx))),
            delivery: None,
            alone_on: None,
        });
        self.queue.register(EvKind::WakeProcess(pid));
        // Start event at t = 0.
        self.push_event(SimTime::ZERO, EvKind::WakeProcess(pid));
        pid
    }

    fn push_event(&mut self, time: SimTime, kind: EvKind) {
        self.queue.schedule(kind, time, self.shared.take_seq());
    }

    fn now(&self) -> SimTime {
        self.shared.clock.get()
    }

    /// Reschedules the completion event for a resource after a membership
    /// or speed change: overwrites its queue entry with a fresh sequence
    /// number, or removes the entry once the resource is idle.
    fn reschedule_resource(&mut self, res: ResourceId) {
        let next = self.shared.resources.borrow()[res.0].next_completion();
        match next {
            Some(t) => {
                // Guard against float drift placing the completion
                // marginally in the past.
                let t = t.max(self.now());
                self.push_event(t, EvKind::ResourceFire(res));
            }
            None => self.queue.remove(EvKind::ResourceFire(res)),
        }
    }

    /// Polls `pid` once under `horizon` (see [`Shared::horizon`]),
    /// schedules the wakes of the receivers it delivered to, then
    /// services the request it yielded with, if any. A panic in the
    /// process body unwinds out of here.
    fn resume(&mut self, pid: Pid, horizon: u128) {
        let proc = &mut self.processes[pid.0];
        let Some(future) = proc.future.as_mut() else {
            return;
        };
        if let Some(msg) = proc.delivery.take() {
            self.shared.delivery.set(Some(msg));
        }
        self.shared.horizon.set(horizon);
        self.polls += 1;
        let finished = future
            .as_mut()
            .poll(&mut Context::from_waker(Waker::noop()))
            .is_ready();
        if finished {
            proc.future = None;
        }
        debug_assert!(
            is_empty(&self.shared.delivery),
            "process {} left its delivery untaken",
            proc.name
        );
        let request = self.shared.request.take();
        let now = self.now();
        for (waiter, msg) in self.shared.mail.borrow_mut().woken.drain(..) {
            self.processes[waiter.0].delivery = Some(msg);
            // Inlined `push_event`: the loop keeps `self.shared` borrowed.
            self.queue
                .schedule(EvKind::WakeProcess(waiter), now, self.shared.take_seq());
        }
        if finished {
            debug_assert!(request.is_none(), "a finished process yielded a request");
            return;
        }
        let Some(request) = request else {
            panic!(
                "process {} is pending on a future that is not a simulation primitive",
                self.processes[pid.0].name
            );
        };
        match request {
            Request::Hold(dt) => self.push_event(now + dt, EvKind::WakeProcess(pid)),
            Request::Compute { res, work } => {
                let mut resources = self.shared.resources.borrow_mut();
                let resource = &mut resources[res.0];
                if let Some(done) = resource.lone_completion(now, work) {
                    resource.start_lone(now, pid, work);
                    drop(resources);
                    self.processes[pid.0].alone_on = Some(res);
                    self.push_event(done, EvKind::WakeProcess(pid));
                    return;
                }
                if let Some(alone) = resource.share_lone() {
                    self.processes[alone.0].alone_on = None;
                    self.queue.remove(EvKind::WakeProcess(alone));
                }
                resource.advance_to(now);
                resource.add_job(pid, work);
                drop(resources);
                self.reschedule_resource(res);
            }
            Request::Recv { mb } => self.shared.mail.borrow_mut().boxes[mb.0].park(pid),
        }
    }

    /// Dispatches `pid`'s wake: completes the job it ran alone, if any,
    /// then resumes it.
    fn wake(&mut self, pid: Pid) {
        if let Some(res) = self.processes[pid.0].alone_on.take() {
            let now = self.now();
            self.shared.resources.borrow_mut()[res.0].finish_lone(now);
        }
        self.resume(pid, self.queue.min_key());
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
        while let Some((time, kind)) = self.queue.pop() {
            debug_assert!(time >= self.now(), "event in the past");
            self.shared.events.set(self.shared.events.get() + 1);
            self.shared.clock.set(time);
            match kind {
                EvKind::WakeProcess(pid) => self.wake(pid),
                EvKind::ResourceFire(res) => {
                    // The entry is the resource's only one, so the job set
                    // is unchanged since it was scheduled.
                    let now = self.now();
                    let mut done = std::mem::take(&mut self.completed);
                    {
                        let resource = &mut self.shared.resources.borrow_mut()[res.0];
                        resource.advance_to(now);
                        resource.take_completed(true, &mut done);
                    }
                    self.reschedule_resource(res);
                    for (i, &pid) in done.iter().enumerate() {
                        // Co-completers are resumed one by one at `now`:
                        // one resumed before the last may not run ahead
                        // of a peer still waiting to be polled.
                        let horizon = if i + 1 == done.len() {
                            self.queue.min_key()
                        } else {
                            0
                        };
                        self.resume(pid, horizon);
                    }
                    self.completed = done;
                }
            }
        }
        let blocked: Vec<String> = self
            .processes
            .iter()
            .filter(|p| p.future.is_some())
            .map(|p| p.name.to_string())
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

impl<M> Simulation<M> {
    /// Events the kernel has dispatched so far, a primitive finished in
    /// place counting as the wake it stands for.
    pub fn events(&self) -> u64 {
        self.shared.events.get()
    }

    /// Process polls the kernel has made so far: one per resumption of
    /// a live process.
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Post-run statistics: final time, event count, per-resource usage.
    ///
    /// Meaningful after [`Simulation::run`]; resources are advanced to
    /// the final clock so busy time is complete.
    pub fn stats(&mut self) -> crate::stats::SimStats {
        let now = self.now();
        let mut resources = std::collections::BTreeMap::new();
        for r in self.shared.resources.borrow_mut().iter_mut() {
            r.advance_to(now);
            resources.insert(r.name().to_string(), r.stats);
        }
        crate::stats::SimStats {
            end_seconds: now.secs(),
            events: self.events(),
            polls: self.polls,
            resources,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue(procs: usize, resources: usize) -> EventQueue {
        let mut q = EventQueue::default();
        (0..procs).for_each(|p| q.register(EvKind::WakeProcess(Pid(p))));
        (0..resources).for_each(|r| q.register(EvKind::ResourceFire(ResourceId(r))));
        q
    }

    fn queued(q: &EventQueue, kind: EvKind) -> bool {
        q.pos[kind.slot()] != NOT_QUEUED
    }

    /// Heap order holds and every owner's recorded position points at
    /// its own entry.
    fn assert_invariant(q: &EventQueue) {
        for i in 1..q.heap.len() {
            assert!(
                q.heap[(i - 1) / 2].key <= q.heap[i].key,
                "heap order at {i}"
            );
        }
        for (i, e) in q.heap.iter().enumerate() {
            assert_eq!(q.pos[e.slot], i, "{:?} position", EvKind::of_slot(e.slot));
        }
        let queued = q.pos.iter().filter(|&&p| p != NOT_QUEUED).count();
        assert_eq!(queued, q.heap.len());
    }

    /// Pops the next event, which must be a wake, and dispatches it as
    /// [`Simulation::run`] does.
    fn step(sim: &mut Simulation<()>) -> Pid {
        let (time, kind) = sim.queue.pop().expect("an event is pending");
        let EvKind::WakeProcess(pid) = kind else {
            panic!("expected a wake, got {kind:?}");
        };
        sim.shared.clock.set(time);
        sim.wake(pid);
        pid
    }

    #[test]
    fn a_lone_job_is_its_process_wake_until_a_second_job_joins() {
        // Speed 2: a (4 units) starts alone at t=0; b (1 unit) joins at
        // t=0.5, when a has 3 left. Both run at rate 1 until b is done at
        // 1.5; a, the only job again with 2 left, is done at 2.5.
        let mut sim = Simulation::<()>::new();
        let cpu = sim.add_shared_resource("cpu", 2.0);
        let fire = EvKind::ResourceFire(cpu);
        let done = Rc::new(RefCell::new(Vec::new()));
        for (name, arrive, work) in [("a", 0.0, 4.0), ("b", 0.5, 1.0)] {
            let done = Rc::clone(&done);
            sim.spawn(name, move |ctx| async move {
                ctx.hold(arrive).await;
                ctx.compute(cpu, work).await;
                done.borrow_mut().push((name, ctx.now()));
            });
        }
        let (a, b) = (Pid(0), Pid(1));
        // The two start wakes, then a's zero hold ends and a computes.
        assert_eq!((step(&mut sim), step(&mut sim)), (a, b));
        assert_eq!(step(&mut sim), a);
        // a computes alone: its wake is the completion, and the CPU has
        // no entry.
        assert_eq!(sim.processes[a.0].alone_on, Some(cpu));
        assert!(!queued(&sim.queue, fire));
        let wake = sim.queue.heap[sim.queue.pos[EvKind::WakeProcess(a).slot()]];
        assert_eq!(wake.time(), SimTime::new(2.0));
        // b joins: a's wake is dropped and the CPU's entry carries the
        // shared completion.
        assert_eq!(step(&mut sim), b);
        assert_eq!(sim.processes[a.0].alone_on, None);
        assert!(!queued(&sim.queue, EvKind::WakeProcess(a)));
        assert!(queued(&sim.queue, fire));
        assert_eq!(sim.shared.resources.borrow()[cpu.0].load(), 2);
        assert_eq!(sim.run().unwrap(), 2.5);
        assert_eq!(*done.borrow(), [("b", 1.5), ("a", 2.5)]);
        let stats = sim.stats().resources["cpu"];
        assert_eq!(
            (stats.busy_seconds, stats.work_served, stats.jobs_completed),
            (2.5, 5.0, 2)
        );
    }

    #[test]
    fn an_in_place_finish_takes_the_sequence_number_its_wake_would_have() {
        // Two processes interleave: each compute finds its wake ahead of
        // the other's and finishes in place, each hold yields. Nothing is
        // rescheduled or dropped, so every key issued is one dispatched
        // event, and the counter ends where it did when each of these
        // wakes went through the queue.
        let mut sim = Simulation::<()>::new();
        let cpu = sim.add_shared_resource("cpu", 1.0);
        for arrive in [0.0, 0.5] {
            sim.spawn("p", move |ctx| async move {
                ctx.hold(arrive).await;
                ctx.compute(cpu, 0.25).await;
                ctx.hold(1.0).await;
            });
        }
        assert_eq!(sim.run().unwrap(), 1.75);
        assert_eq!((sim.events(), sim.polls()), (8, 6));
        assert_eq!(sim.shared.seq.get(), sim.events());
        assert_eq!(sim.stats().resources["cpu"].jobs_completed, 2);
    }

    #[test]
    fn order_key_sorts_by_time_then_seq_and_folds_negative_zero() {
        let t = |s: f64| SimTime::new(s);
        assert_eq!(order_key(t(-0.0), 3), order_key(t(0.0), 3));
        assert!(order_key(t(0.0), 9) < order_key(t(f64::MIN_POSITIVE), 0));
        assert!(order_key(t(1.0), 5) < order_key(t(1.0), 6));
        assert!(order_key(t(1.0), u64::MAX) < order_key(t(1.0 + f64::EPSILON), 0));
        assert!(order_key(t(2.5e9), 0) < order_key(t(f64::INFINITY), 0));
    }

    #[test]
    fn rescheduling_a_resource_overwrites_its_one_entry() {
        let mut q = queue(2, 1);
        let fire = EvKind::ResourceFire(ResourceId(0));
        q.schedule(EvKind::WakeProcess(Pid(0)), SimTime::new(2.0), 0);
        q.schedule(fire, SimTime::new(1.0), 1);
        q.schedule(EvKind::WakeProcess(Pid(1)), SimTime::new(3.0), 2);
        // Later (a new job slows the resource), then earlier (a speed-up).
        q.schedule(fire, SimTime::new(4.0), 3);
        assert_invariant(&q);
        assert_eq!(q.heap.len(), 3, "one entry per owner");
        q.schedule(fire, SimTime::new(0.5), 4);
        assert_invariant(&q);
        assert_eq!(q.heap.len(), 3);
        let order: Vec<EvKind> = std::iter::from_fn(|| q.pop().map(|(_, k)| k)).collect();
        assert_eq!(
            order,
            [
                fire,
                EvKind::WakeProcess(Pid(0)),
                EvKind::WakeProcess(Pid(1))
            ]
        );
        assert!(q.pos.iter().all(|&p| p == NOT_QUEUED));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two pending wakes")]
    fn a_second_pending_wake_is_caught() {
        let mut q = queue(1, 0);
        q.schedule(EvKind::WakeProcess(Pid(0)), SimTime::new(1.0), 0);
        q.schedule(EvKind::WakeProcess(Pid(0)), SimTime::new(2.0), 1);
    }

    #[test]
    fn an_idle_resource_leaves_the_queue() {
        let mut q = queue(1, 2);
        q.schedule(EvKind::ResourceFire(ResourceId(0)), SimTime::new(1.0), 0);
        q.schedule(EvKind::ResourceFire(ResourceId(1)), SimTime::new(2.0), 1);
        q.schedule(EvKind::WakeProcess(Pid(0)), SimTime::new(3.0), 2);
        q.remove(EvKind::ResourceFire(ResourceId(0)));
        q.remove(EvKind::ResourceFire(ResourceId(0))); // already gone: a no-op
        assert_invariant(&q);
        assert!(!queued(&q, EvKind::ResourceFire(ResourceId(0))));
        let (t, k) = q.pop().unwrap();
        assert_eq!(
            (t, k),
            (SimTime::new(2.0), EvKind::ResourceFire(ResourceId(1)))
        );
    }

    #[test]
    fn random_schedules_pop_in_key_order_like_a_sorted_model() {
        // A model with one `(key, owner)` per owner, checked against the
        // heap after every operation of a seeded random mix.
        let (procs, resources) = (6, 5);
        let mut q = queue(procs, resources);
        let mut model: Vec<(u128, EvKind)> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut seq = 0u64;
        let mut now = 0.0f64;
        for _ in 0..4000 {
            match next(4) {
                0 | 1 => {
                    let kind = if next(2) == 0 {
                        EvKind::WakeProcess(Pid(next(procs as u64) as usize))
                    } else {
                        EvKind::ResourceFire(ResourceId(next(resources as u64) as usize))
                    };
                    let pending = model.iter().any(|&(_, k)| k == kind);
                    if matches!(kind, EvKind::WakeProcess(_)) && pending {
                        continue; // a process has at most one pending wake
                    }
                    let time = SimTime::new(now + next(8) as f64 * 0.25);
                    model.retain(|&(_, k)| k != kind);
                    model.push((order_key(time, seq), kind));
                    q.schedule(kind, time, seq);
                    seq += 1;
                }
                2 => {
                    let kind = EvKind::ResourceFire(ResourceId(next(resources as u64) as usize));
                    model.retain(|&(_, k)| k != kind);
                    q.remove(kind);
                }
                _ => {
                    model.sort_by_key(|&(key, _)| key);
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    let got = q.pop();
                    assert_eq!(got.map(|(_, k)| k), want.map(|(_, k)| k));
                    if let Some((t, _)) = got {
                        assert!(t.secs() >= now, "pops never go back in time");
                        now = t.secs();
                    }
                }
            }
            assert_invariant(&q);
            assert_eq!(q.heap.len(), model.len());
        }
    }
}
