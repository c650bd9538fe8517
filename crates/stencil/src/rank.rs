//! The one stencil rank program, run by both the numeric and the timed
//! stencil.
//!
//! [`stencil_rank`] is the control flow of one row-strip rank for every
//! Jacobi iteration: the halo exchange (send the strip's top row up and
//! its bottom row down, then receive the rows from above and below), the
//! sync stall, the sweep, and the convergence all-reduce (a gather of one
//! value to rank 0 and a ring broadcast of the maximum back). It sends
//! and receives through any [`Comm`] and leaves the work to a
//! [`SweepWork`]: [`NumericSweep`](crate::numeric::NumericSweep) does
//! the arithmetic and is untimed,
//! [`TimedSweep`](crate::simulate::TimedSweep) charges calibrated
//! virtual time. The body reads the work's clock around every phase, so
//! waiting for a neighbour's row counts toward `halo`.

use std::future::Future;

use etm_mpisim::coll::{gather, ring_bcast};
use etm_mpisim::Comm;

/// Tag of a strip's top row, sent up to rank `me − 1`.
const HALO_UP: u32 = 0x57E1;
/// Tag of a strip's bottom row, sent down to rank `me + 1`.
const HALO_DOWN: u32 = 0x57E2;

/// Rows `start..end` (global) owned by `rank` out of `p` in a balanced
/// row-strip partition of the `n` rows.
pub(crate) fn strip(n: usize, p: usize, rank: usize) -> (usize, usize) {
    let base = n / p;
    let extra = n % p;
    let start = rank * base + rank.min(extra);
    let end = start + base + usize::from(rank < extra);
    (start, end)
}

/// A strip's neighbour: the rank above (`me − 1`) or below (`me + 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// Rank `me − 1`, which owns the rows above.
    Up,
    /// Rank `me + 1`, which owns the rows below.
    Down,
}

/// Per-rank phase times of a stencil run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StencilTimes {
    /// Sweep computation (memory-bound).
    pub compute: f64,
    /// Halo exchanges with neighbours, sync stall included.
    pub halo: f64,
    /// Convergence all-reduce.
    pub reduce: f64,
}

impl StencilTimes {
    /// Computation time for the estimation models.
    pub(crate) fn ta(&self) -> f64 {
        self.compute
    }

    /// Communication time for the estimation models.
    pub(crate) fn tc(&self) -> f64 {
        self.halo + self.reduce
    }
}

/// The work of [`stencil_rank`]'s phases on one backend. The body calls
/// each method at the point the iteration reaches it and times the
/// phases with [`now`](SweepWork::now).
pub trait SweepWork {
    /// What a message carries on this backend.
    type Msg;

    /// Seconds on this rank's clock.
    fn now(&self) -> f64;

    /// The strip's edge row on `side`, for that neighbour's halo.
    fn edge_row(&self, side: Side) -> Self::Msg;

    /// Keeps the neighbour's edge row as the halo row on `side`.
    fn fill_halo(&mut self, side: Side, row: Self::Msg);

    /// What a rank pays after the halo exchange to get its CPU back.
    fn sync_stall(&mut self) -> impl Future<Output = ()>;

    /// One Jacobi sweep over the strip.
    fn sweep(&mut self) -> impl Future<Output = ()>;

    /// The strip's share of the all-reduce: its largest change in the
    /// last sweep.
    fn local_change(&self) -> Self::Msg;

    /// On rank 0: the largest of every rank's change, `changes` in rank
    /// order.
    fn max_change(&self, changes: Vec<Self::Msg>) -> Self::Msg;

    /// Keeps the all-reduce's result, the last sweep's largest change
    /// over the whole grid.
    fn set_residual(&mut self, residual: Self::Msg);
}

/// Runs `$e`, adding the seconds it takes on `$work`'s clock to `$phase`.
macro_rules! timed {
    ($work:ident, $phase:expr, $e:expr) => {{
        let t0 = $work.now();
        let out = $e;
        $phase += $work.now() - t0;
        out
    }};
}

/// Runs one rank of `iters` Jacobi iterations over the row strips of
/// `comm`'s ranks. Returns the rank's phase times.
pub async fn stencil_rank<C, W>(comm: &C, iters: usize, work: &mut W) -> StencilTimes
where
    C: Comm,
    W: SweepWork<Msg = C::Msg>,
{
    let (me, p) = (comm.rank(), comm.size());
    let mut ph = StencilTimes::default();
    for _ in 0..iters {
        // Send both edges, then receive both halos; boundary strips skip
        // the side they have no neighbour on.
        timed!(work, ph.halo, {
            if me > 0 {
                comm.send(me - 1, HALO_UP, work.edge_row(Side::Up)).await;
            }
            if me < p - 1 {
                comm.send(me + 1, HALO_DOWN, work.edge_row(Side::Down))
                    .await;
            }
            if me > 0 {
                let row = comm.recv(me - 1, HALO_DOWN).await;
                work.fill_halo(Side::Up, row);
            }
            if me < p - 1 {
                let row = comm.recv(me + 1, HALO_UP).await;
                work.fill_halo(Side::Down, row);
            }
            work.sync_stall().await;
        });
        timed!(work, ph.compute, work.sweep().await);
        timed!(work, ph.reduce, {
            let changes = gather(comm, 0, work.local_change()).await;
            let max = changes.map(|changes| work.max_change(changes));
            let residual = ring_bcast(comm, 0, max).await;
            work.set_residual(residual);
        });
    }
    ph
}
