//! The one HPL rank program, run by both the numeric and the timed HPL.
//!
//! [`hpl_rank`] is the control flow of a 1 × P rank: for every column
//! block, `rfact` on the owner, the panel broadcast, `laswp`, the forward
//! solve of the replicated right-hand side and the trailing update; then
//! the backward-substitution token chain over the block owners and the
//! broadcast of the solution. It sends and receives through any
//! [`Comm`] and leaves the work of each phase to a [`RankWork`]:
//! [`NumericWork`](crate::numeric::NumericWork) does the arithmetic on
//! the rank's columns and is untimed,
//! [`TimedWork`](crate::simulate::TimedWork) charges calibrated virtual
//! time. Phase attribution follows `-DHPL_DETAILED_TIMING`: the body
//! reads the work's clock around every phase, so waiting inside a
//! broadcast counts toward `bcast`.

use std::future::Future;

use etm_mpisim::coll::{binomial_bcast, ring_bcast};
use etm_mpisim::Comm;

use crate::dist::{ColumnAssignment, TrailingCols};
use crate::params::BcastAlgo;
use crate::phases::PhaseTimes;

/// Tag of the backward-substitution token.
const UPTRSV_TAG: u32 = 0x0770;

/// One column block as the panel loop reaches it.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    /// First global column (and diagonal row) of the block.
    pub(crate) start: usize,
    /// Block width.
    pub(crate) w: usize,
    /// Rows from the diagonal down, `N − start`: the panel's height.
    pub(crate) rows: usize,
    /// Columns this rank owns to the right of the block.
    pub(crate) tcols: usize,
}

/// The work of each phase of [`hpl_rank`] on one backend. The body calls
/// each method at the point HPL does it and times the call with
/// [`now`](RankWork::now).
pub trait RankWork {
    /// What a message carries on this backend.
    type Msg;

    /// Seconds on this rank's clock.
    fn now(&self) -> f64;

    /// Factors the panel (`dgetf2`), on its owner only.
    fn pfact(&mut self, b: &Block) -> impl Future<Output = ()>;

    /// Records the panel's pivot rows, on its owner only, and returns
    /// the message to broadcast: the factored panel and its pivots.
    fn mxswp(&mut self, b: &Block) -> impl Future<Output = Self::Msg>;

    /// What a rank pays after a broadcast to get its CPU back.
    fn sync_stall(&mut self) -> impl Future<Output = ()>;

    /// Applies the broadcast panel's pivots to the rank's trailing
    /// columns and the right-hand side, and keeps the panel for
    /// [`forward`](RankWork::forward) and [`update`](RankWork::update).
    fn laswp(&mut self, b: &Block, panel: Self::Msg) -> impl Future<Output = ()>;

    /// Forward-solves the replicated right-hand side with the panel.
    fn forward(&mut self, b: &Block) -> impl Future<Output = ()>;

    /// Updates the rank's trailing columns (`dtrsm` + `dgemm`); called
    /// only when `b.tcols > 0`.
    fn update(&mut self, b: &Block) -> impl Future<Output = ()>;

    /// Takes the backward-substitution token: the one received, or, at
    /// the last block, `None` for this rank's own forward-solved
    /// right-hand side.
    fn take_token(&mut self, token: Option<Self::Msg>);

    /// Solves the diagonal block at `start` of width `w` against the
    /// token and eliminates it from the rows above.
    fn backsolve(&mut self, start: usize, w: usize) -> impl Future<Output = ()>;

    /// Hands the token on: to the next block owner, or, after block 0,
    /// as the solution to broadcast.
    fn pass_token(&mut self) -> Self::Msg;
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

async fn bcast<C: Comm>(comm: &C, algo: BcastAlgo, root: usize, msg: Option<C::Msg>) -> C::Msg {
    match algo {
        BcastAlgo::Ring => ring_bcast(comm, root, msg).await,
        BcastAlgo::Binomial => binomial_bcast(comm, root, msg).await,
    }
}

/// Runs one rank of the distributed solve of `dist`'s matrix, panels
/// broadcast with `algo`. Returns the rank's phase times and the
/// broadcast solution.
pub async fn hpl_rank<C, D, W>(
    comm: &C,
    dist: &D,
    algo: BcastAlgo,
    work: &mut W,
) -> (PhaseTimes, C::Msg)
where
    C: Comm,
    D: ColumnAssignment,
    W: RankWork<Msg = C::Msg>,
{
    let me = comm.rank();
    let nc = dist.num_blocks();
    let mut ph = PhaseTimes::default();
    let mut trailing = TrailingCols::new(dist, me);

    for k in 0..nc {
        let owner = dist.owner(k);
        let start = dist.block_start(k);
        let b = Block {
            start,
            w: dist.block_width(k),
            rows: dist.n() - start,
            tcols: trailing.pass(dist, k),
        };
        let payload = if me == owner {
            timed!(work, ph.pfact, work.pfact(&b).await);
            Some(timed!(work, ph.mxswp, work.mxswp(&b).await))
        } else {
            None
        };
        let panel = timed!(work, ph.bcast, {
            let panel = bcast(comm, algo, owner, payload).await;
            work.sync_stall().await;
            panel
        });
        timed!(work, ph.laswp, work.laswp(&b, panel).await);
        // The forward solve is redundant on every rank.
        timed!(work, ph.uptrsv, work.forward(&b).await);
        if b.tcols > 0 {
            timed!(work, ph.update, work.update(&b).await);
        }
    }

    // Backward substitution: the token passes down the block owners and
    // stays local between blocks of one owner.
    timed!(work, ph.uptrsv, {
        let mut holding = false;
        for k in (0..nc).rev().filter(|&k| dist.owner(k) == me) {
            if !holding {
                let token = if k == nc - 1 {
                    None
                } else {
                    Some(comm.recv(dist.owner(k + 1), UPTRSV_TAG).await)
                };
                work.take_token(token);
                holding = true;
            }
            work.backsolve(dist.block_start(k), dist.block_width(k))
                .await;
            if k > 0 && dist.owner(k - 1) != me {
                let token = work.pass_token();
                comm.send(dist.owner(k - 1), UPTRSV_TAG, token).await;
                holding = false;
            }
        }
    });

    // The owner of block 0 broadcasts the solution.
    let root = dist.owner(0);
    let payload = (me == root).then(|| work.pass_token());
    let x = timed!(work, ph.bcast, ring_bcast(comm, root, payload).await);
    (ph, x)
}
