//! Discrete-event-backed communicator: messages carry byte counts and
//! sending charges virtual time against the shared CPU/NIC resources.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use etm_cluster::{ClusterSpec, CommLibProfile, KindId, NetworkSpec, Placement, ProcSlot};
use etm_sim::{Ctx, Label, MailboxBlock, MailboxId, ResourceId, Simulation};

use crate::Comm;

/// A timed message: no payload, just its size on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimMsg {
    /// Message size in bytes.
    pub bytes: f64,
}

impl SimMsg {
    /// A message of `bytes` bytes.
    pub fn of(bytes: f64) -> Self {
        SimMsg { bytes }
    }
}

/// The simulation a [`SimFabric`] runs on: every mailbox carries a
/// message's tag and its [`SimMsg`].
pub type FabricSim = Simulation<(u32, SimMsg)>;

/// Where one rank runs.
#[derive(Clone, Copy)]
struct Seat {
    node: usize,
    /// The CPU resource, shared with co-resident ranks (speed 1.0: one
    /// second of CPU work per virtual second when uncontended).
    cpu: ResourceId,
    /// The node's NIC resource (speed = bandwidth in bytes/s).
    nic: ResourceId,
}

struct FabricShared {
    /// One seat per rank.
    seats: Vec<Seat>,
    /// The mailbox from `from` to `to` is `mailboxes.get(from * size + to)`.
    mailboxes: MailboxBlock,
    profile: CommLibProfile,
    network: NetworkSpec,
}

/// The communication fabric of one simulated run: resources + mailboxes
/// for all ranks. Build it once per [`Simulation`], then hand each rank
/// its [`SimCommSeed`].
pub struct SimFabric {
    shared: Rc<FabricShared>,
}

impl SimFabric {
    /// Registers CPUs, NICs and mailboxes for `placement` in `sim`.
    ///
    /// One CPU resource is created per *used* (node, cpu) pair — ranks
    /// sharing a CPU share its processor-sharing resource, which is how
    /// multiprocessing contention arises. One NIC resource is created per
    /// used node. Each is registered at the first rank that uses it,
    /// labelled `nic:{node}` or `cpu:{node}:{cpu}` with the node's index
    /// in `spec`, so every resource's key in [`Simulation::stats`] is
    /// its own.
    pub fn build(sim: &mut FabricSim, spec: &ClusterSpec, placement: &Placement) -> SimFabric {
        let size = placement.len();
        let mut seats: Vec<Seat> = Vec::with_capacity(size);
        for (rank, slot) in placement.slots.iter().enumerate() {
            let earlier = &placement.slots[..rank];
            let nic = match earlier.iter().position(|s| s.node == slot.node) {
                Some(j) => seats[j].nic,
                None => sim
                    .add_shared_resource(Label::indexed("nic:", slot.node), spec.network.bandwidth),
            };
            let on_cpu = |s: &ProcSlot| s.node == slot.node && s.cpu == slot.cpu;
            let cpu = match earlier.iter().position(on_cpu) {
                Some(j) => seats[j].cpu,
                None => {
                    sim.add_shared_resource(Label::indexed_pair("cpu:", slot.node, slot.cpu), 1.0)
                }
            };
            seats.push(Seat {
                node: slot.node,
                cpu,
                nic,
            });
        }
        let mailboxes = sim.add_mailboxes(size * size);
        SimFabric {
            shared: Rc::new(FabricShared {
                seats,
                mailboxes,
                profile: spec.comm_lib,
                network: spec.network,
            }),
        }
    }

    /// Derates the CPU resources of every rank placed on a PE of
    /// `kind`: each affected processor-sharing CPU serves `slowdown`×
    /// slower for the rest of the run. This is the execution-side
    /// straggler model — the slowdown propagates through contention and
    /// communication overlap inside the discrete-event kernel instead
    /// of being a post-hoc scale on measured phase times. CPUs shared
    /// by several ranks are derated once.
    ///
    /// # Panics
    /// Panics if `slowdown` is not a finite positive factor, even when
    /// no rank runs on `kind`.
    pub fn derate_kind_cpus(
        &self,
        sim: &mut FabricSim,
        placement: &Placement,
        kind: KindId,
        slowdown: f64,
    ) {
        assert!(
            slowdown.is_finite() && slowdown > 0.0,
            "slowdown must be a finite positive factor, got {slowdown}"
        );
        let seats = &self.shared.seats;
        for (rank, slot) in placement.slots.iter().enumerate() {
            let cpu = seats[rank].cpu;
            // A shared CPU is derated at the first rank on it.
            if slot.kind == kind && seats[..rank].iter().all(|s| s.cpu != cpu) {
                sim.derate_resource(cpu, slowdown);
            }
        }
    }

    /// Derates every used NIC resource by `slowdown` — the transient
    /// cluster-wide network degradation model (a flaky switch, a
    /// saturated uplink).
    ///
    /// # Panics
    /// Panics if `slowdown` is not a finite positive factor.
    pub fn derate_nics(&self, sim: &mut FabricSim, slowdown: f64) {
        let seats = &self.shared.seats;
        for (rank, seat) in seats.iter().enumerate() {
            // A node's NIC is derated at the first rank on the node.
            if seats[..rank].iter().all(|s| s.nic != seat.nic) {
                sim.derate_resource(seat.nic, slowdown);
            }
        }
    }

    /// The seed for `rank`, to be moved into that rank's spawned process.
    pub fn seed(&self, rank: usize) -> SimCommSeed {
        assert!(rank < self.shared.seats.len(), "rank out of range");
        SimCommSeed {
            rank,
            shared: Rc::clone(&self.shared),
        }
    }
}

/// Runs one SPMD program on the simulated fabric: the one launcher
/// every timed run goes through.
///
/// Builds a fresh [`Simulation`], sized up front for the placement's
/// ranks, used CPUs and NICs and its ranks² mailboxes, and the
/// [`SimFabric`] for `placement`, hands both to `derate` before any
/// rank starts, then spawns one process per `placement.slots` entry, in
/// slot order. Rank `r`'s process is labelled `{name}{r}`; the label is
/// written out only in the deadlock panic, so a run that succeeds
/// formats no name. `body` receives the rank's bound [`SimComm`]
/// and its slot, and returns the future the process runs. Spawn order
/// fixes process ids, which break ties between simultaneous events, so
/// it is part of every virtual time this returns.
///
/// Returns each rank's result in rank order, the makespan, and the
/// kernel's event and poll counts.
///
/// # Panics
/// Panics if the simulation deadlocks (a bug in the body's
/// communication schedule), or if a rank body panics.
pub fn run_sim_ranks<T, F, Fut>(
    spec: &ClusterSpec,
    placement: &Placement,
    name: &'static str,
    derate: impl FnOnce(&mut FabricSim, &SimFabric),
    mut body: F,
) -> SimRanks<T>
where
    T: 'static,
    F: FnMut(SimComm, &ProcSlot) -> Fut,
    Fut: Future<Output = T> + 'static,
{
    let size = placement.len();
    let resources = placement.cpus_used() + placement.used_nodes().count();
    let mut sim = Simulation::with_capacity(size, resources, size * size);
    let fabric = SimFabric::build(&mut sim, spec, placement);
    derate(&mut sim, &fabric);
    let results: Rc<[Cell<Option<T>>]> = (0..size).map(|_| Cell::new(None)).collect();
    for slot in &placement.slots {
        let rank = slot.rank;
        let seed = fabric.seed(rank);
        let results = Rc::clone(&results);
        sim.spawn(Label::indexed(name, rank), |ctx| {
            let run = body(seed.bind(ctx), slot);
            async move { results[rank].set(Some(run.await)) }
        });
    }
    let makespan = sim.run().unwrap_or_else(|e| panic!("{e}"));
    let outs = results
        .iter()
        .map(|r| r.take().expect("every rank reports"))
        .collect();
    SimRanks {
        outs,
        makespan,
        events: sim.events(),
        polls: sim.polls(),
    }
}

/// What one [`run_sim_ranks`] launch returns.
#[derive(Clone, Debug)]
pub struct SimRanks<T> {
    /// Each rank's result, in rank order.
    pub outs: Vec<T>,
    /// Virtual seconds until the last rank finished.
    pub makespan: f64,
    /// Events the kernel dispatched.
    pub events: u64,
    /// Process polls the kernel made.
    pub polls: u64,
}

/// Per-rank half-built communicator; bind it to the process's [`Ctx`]
/// in the spawned process body.
pub struct SimCommSeed {
    rank: usize,
    shared: Rc<FabricShared>,
}

impl SimCommSeed {
    /// Binds the seed to the executing process's context.
    pub fn bind(self, ctx: Ctx<(u32, SimMsg)>) -> SimComm {
        SimComm {
            ctx,
            rank: self.rank,
            seat: self.shared.seats[self.rank],
            shared: self.shared,
        }
    }
}

/// A rank's endpoint on the simulated fabric.
pub struct SimComm {
    ctx: Ctx<(u32, SimMsg)>,
    rank: usize,
    seat: Seat,
    shared: Rc<FabricShared>,
}

impl SimComm {
    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.ctx.now()
    }

    /// The CPU resource this rank runs on (shared with co-resident
    /// ranks).
    pub(crate) fn cpu(&self) -> ResourceId {
        self.seat.cpu
    }

    /// Performs `seconds` of uncontended-equivalent CPU work (elongated
    /// by processor sharing if co-resident ranks compute simultaneously).
    pub fn compute(&self, seconds: f64) -> impl Future<Output = ()> + '_ {
        self.ctx.compute(self.cpu(), seconds)
    }

    /// Advances virtual time without consuming any resource.
    pub fn idle(&self, seconds: f64) -> impl Future<Output = ()> + '_ {
        self.ctx.hold(seconds)
    }

    /// Whether `other` is on the same node (intra-node path).
    pub(crate) fn same_node(&self, other: usize) -> bool {
        self.seat.node == self.shared.seats[other].node
    }

    fn mailbox(&self, from: usize, to: usize) -> MailboxId {
        self.shared
            .mailboxes
            .get(from * self.shared.seats.len() + to)
    }
}

impl Comm for SimComm {
    type Msg = SimMsg;

    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.seats.len()
    }

    /// Charges the transfer cost to the sender, then posts the message.
    ///
    /// * self-send: free (in-process hand-off);
    /// * intra-node: library latency + a CPU-bound copy at the comm
    ///   library's throughput for this message size — co-resident
    ///   processes contend for the CPU, reproducing the MPICH-1.2.1
    ///   multiprocessing collapse;
    /// * inter-node: network latency + NIC occupancy at wire bandwidth —
    ///   concurrent transfers from one node contend for its NIC.
    async fn send(&self, to: usize, tag: u32, msg: SimMsg) {
        if to != self.rank {
            if self.same_node(to) {
                let copy = if msg.bytes > 0.0 {
                    msg.bytes / self.shared.profile.intra_throughput(msg.bytes)
                } else {
                    0.0
                };
                self.ctx.hold(self.shared.profile.intra_latency).await;
                if copy > 0.0 {
                    self.ctx.compute(self.cpu(), copy).await;
                }
            } else {
                self.ctx.hold(self.shared.network.latency).await;
                if msg.bytes > 0.0 {
                    self.ctx.compute(self.seat.nic, msg.bytes).await;
                }
            }
        }
        self.ctx.send(self.mailbox(self.rank, to), (tag, msg));
    }

    /// Receives and pays the receiver-side cost: an inter-node message
    /// must also cross *this* node's NIC and protocol stack, so the
    /// receiver occupies its own NIC for the message size (store-and-
    /// forward; concurrent inbound transfers to one node contend).
    async fn recv(&self, from: usize, tag: u32) -> SimMsg {
        let (got_tag, msg) = self.ctx.recv(self.mailbox(from, self.rank)).await;
        assert_eq!(
            got_tag, tag,
            "rank {}: expected tag {tag} from {from}, got {got_tag}",
            self.rank
        );
        if from != self.rank && !self.same_node(from) && msg.bytes > 0.0 {
            self.ctx.compute(self.seat.nic, msg.bytes).await;
        }
        msg
    }
}
