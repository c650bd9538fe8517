//! The numeric and the timed runs of each application send the same
//! messages.
//!
//! Both HPL runs are the one rank body, [`hpl_rank`], with a different
//! [`RankWork`](etm_hpl::rank::RankWork); both stencil runs are
//! [`stencil_rank`] with a different
//! [`SweepWork`](etm_stencil::rank::SweepWork). This gate checks what a
//! body cannot check itself: that the two works make it send the same
//! sequence of `(peer, tag, bytes)` from every rank. A timed payload
//! whose byte count drifts from the numeric one, or a send only one
//! backend makes, fails it. The sequences are recorded by a [`Comm`]
//! wrapper around each backend's communicator.

use std::cell::RefCell;
use std::future::Future;

use etm_cluster::spec::paper_cluster;
use etm_cluster::{CommLibProfile, Configuration, PerfModel, Placement};
use etm_hpl::numeric::NumericWork;
use etm_hpl::rank::hpl_rank;
use etm_hpl::simulate::TimedWork;
use etm_hpl::{BcastAlgo, BlockCyclic, ColumnAssignment, HplParams, WeightedDist};
use etm_mpisim::{block_on, run_sim_ranks, run_thread_ranks, Comm, SimMsg, ThreadMsg};
use etm_stencil::numeric::NumericSweep;
use etm_stencil::rank::stencil_rank;
use etm_stencil::simulate::{SweepPrices, TimedSweep};

/// One send: destination rank, tag and payload bytes.
type Sent = (usize, u32, f64);

/// Delegates to `inner`, logging every send with its payload's bytes.
struct Recording<'a, C: Comm> {
    inner: &'a C,
    bytes: fn(&C::Msg) -> f64,
    sends: RefCell<Vec<Sent>>,
}

impl<'a, C: Comm> Recording<'a, C> {
    fn new(inner: &'a C, bytes: fn(&C::Msg) -> f64) -> Self {
        Recording {
            inner,
            bytes,
            sends: RefCell::new(Vec::new()),
        }
    }
}

impl<C: Comm> Comm for Recording<'_, C> {
    type Msg = C::Msg;

    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: usize, tag: u32, msg: C::Msg) -> impl Future<Output = ()> {
        self.sends.borrow_mut().push((to, tag, (self.bytes)(&msg)));
        self.inner.send(to, tag, msg)
    }

    fn recv(&self, from: usize, tag: u32) -> impl Future<Output = C::Msg> {
        self.inner.recv(from, tag)
    }
}

/// Bytes a thread message carries.
fn thread_bytes(m: &ThreadMsg) -> f64 {
    8.0 * (m.data.len() + m.ints.len()) as f64
}

/// A paper-cluster configuration of `p` ranks, mixing kinds, nodes and
/// multiprocessing.
fn config_of(p: usize) -> Configuration {
    match p {
        1 => Configuration::p1m1_p2m2(1, 1, 0, 0),
        2 => Configuration::p1m1_p2m2(1, 1, 1, 1),
        3 => Configuration::p1m1_p2m2(1, 1, 2, 1),
        4 => Configuration::p1m1_p2m2(1, 2, 2, 1),
        5 => Configuration::p1m1_p2m2(1, 1, 4, 1),
        _ => unreachable!("the gate covers P = 1..=5"),
    }
}

fn numeric_sends<D: ColumnAssignment + Sync>(
    params: &HplParams,
    p: usize,
    dist: &D,
) -> Vec<Vec<Sent>> {
    run_thread_ranks(p, |comm| {
        let rec = Recording::new(&comm, thread_bytes);
        let mut work = NumericWork::new(comm.rank(), params, dist);
        block_on(hpl_rank(&rec, dist, params.bcast, &mut work));
        rec.sends.into_inner()
    })
}

fn timed_sends<D: ColumnAssignment + Clone + 'static>(
    params: &HplParams,
    p: usize,
    dist: &D,
) -> Vec<Vec<Sent>> {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let placement = Placement::new(&spec, &config_of(p)).expect("valid configuration");
    assert_eq!(placement.len(), p);
    let pm = PerfModel::new(&spec, params.n, p);
    let params = *params;
    let run = run_sim_ranks(
        &spec,
        &placement,
        "gate",
        |_, _| {},
        |comm, slot| {
            let oc = pm.node_overcommit(&placement, slot.node, params.nb);
            let cost = pm.rank_prices(slot.kind, placement.procs_on_cpu(slot), oc, params.nb);
            let dist = dist.clone();
            async move {
                let rec = Recording::new(&comm, |m: &SimMsg| m.bytes);
                let mut work = TimedWork::new(&comm, cost, params.n);
                hpl_rank(&rec, &dist, params.bcast, &mut work).await;
                rec.sends.into_inner()
            }
        },
    );
    run.outs
}

/// Checks that both backends send the same sequence from every rank;
/// returns the number of sends.
fn assert_same_sends<D>(params: &HplParams, p: usize, dist: &D) -> usize
where
    D: ColumnAssignment + Clone + Sync + 'static,
{
    let what = format!("{params:?} P={p}");
    assert_same(
        &what,
        p,
        &numeric_sends(params, p, dist),
        &timed_sends(params, p, dist),
    )
}

/// Checks that `numeric` and `timed` hold the same sends for each of `p`
/// ranks; returns the number of sends.
fn assert_same(what: &str, p: usize, numeric: &[Vec<Sent>], timed: &[Vec<Sent>]) -> usize {
    assert_eq!((numeric.len(), timed.len()), (p, p));
    for (rank, (a, b)) in numeric.iter().zip(timed).enumerate() {
        assert_eq!(a, b, "{what}: rank {rank} sends differ");
    }
    numeric.iter().map(Vec::len).sum()
}

#[test]
fn numeric_and_timed_runs_send_the_same_messages() {
    // (N, NB): whole blocks, a partial last block, fewer blocks than
    // ranks (40 / 20: ranks 2.. own nothing) and a prime order.
    let shapes = [(48, 8), (50, 16), (40, 20), (61, 7)];
    let mut idle_ranks = 0;
    for (n, nb) in shapes {
        for p in 1..=5 {
            for algo in [BcastAlgo::Ring, BcastAlgo::Binomial] {
                let params = HplParams::order(n).with_nb(nb).with_bcast(algo);
                let dist = BlockCyclic::new(n, nb, p);
                let sends = assert_same_sends(&params, p, &dist);
                assert_eq!(sends == 0, p == 1, "N={n} NB={nb} P={p}: {sends} sends");
                idle_ranks += p.saturating_sub(n.div_ceil(nb));
            }
        }
    }
    assert!(idle_ranks > 0, "some case must have ranks without blocks");
}

#[test]
fn weighted_runs_send_the_same_messages() {
    // The speed-weighted deal: rank 0 owns runs of consecutive blocks.
    let params = HplParams::order(90).with_nb(8);
    let dist = WeightedDist::new(params.n, params.nb, &[3.0, 1.0, 1.0, 1.0, 1.0]);
    assert!(assert_same_sends(&params, 5, &dist) > 0);
}

fn stencil_numeric_sends(n: usize, iters: usize, p: usize) -> Vec<Vec<Sent>> {
    run_thread_ranks(p, |comm| {
        let rec = Recording::new(&comm, thread_bytes);
        let mut work = NumericSweep::new(n, p, comm.rank());
        block_on(stencil_rank(&rec, iters, &mut work));
        rec.sends.into_inner()
    })
}

fn stencil_timed_sends(n: usize, iters: usize, p: usize) -> Vec<Vec<Sent>> {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let placement = Placement::new(&spec, &config_of(p)).expect("valid configuration");
    assert_eq!(placement.len(), p);
    let pm = PerfModel::new(&spec, n, p);
    let run = run_sim_ranks(
        &spec,
        &placement,
        "gate",
        |_, _| {},
        |comm, slot| {
            let prices = SweepPrices::new(&pm, &placement, slot, n);
            async move {
                let rec = Recording::new(&comm, |m: &SimMsg| m.bytes);
                let mut work = TimedSweep::new(&comm, prices);
                stencil_rank(&rec, iters, &mut work).await;
                rec.sends.into_inner()
            }
        },
    );
    run.outs
}

#[test]
fn numeric_and_timed_stencils_send_the_same_messages() {
    for p in 1..=5 {
        // (N, iters): strips of equal height only at some P, one-row
        // strips (P = N), and no iteration at all.
        for (n, iters) in [(12, 3), (13, 2), (p, 2), (10, 0)] {
            let what = format!("stencil N={n} iters={iters} P={p}");
            let numeric = stencil_numeric_sends(n, iters, p);
            let timed = stencil_timed_sends(n, iters, p);
            let sends = assert_same(&what, p, &numeric, &timed);
            // Per iteration, P − 1 each of rows sent up, rows sent
            // down, changes gathered and broadcast hops.
            assert_eq!(sends, iters * 4 * (p - 1), "{what}");
        }
    }
}
