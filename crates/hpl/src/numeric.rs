//! The *numeric* HPL: a real distributed-memory LU solve over the thread
//! backend, with every rank owning its 1-D block-cyclic columns.
//!
//! [`NumericWork`] is the arithmetic of [`hpl_rank`]'s phases: `dgetf2`
//! on the panel, row interchanges, `dtrsv`/`dgemv` on the replicated
//! right-hand side, `dtrsm` + `dgemm` on the trailing columns and the
//! pipelined backward substitution. The timed HPL runs the same body
//! with calibrated charges in place of the arithmetic, so the scaled
//! residual checked here is the residual of the control flow the
//! simulation times; `crates/hpl/tests/send_sequence.rs` checks that
//! both backends send the same messages.

use etm_linalg::blas2::{dgemv, dtrsv, Diagonal, Triangle};
use etm_linalg::blas3::{dgemm, dtrsm_left};
use etm_linalg::gen::{hpl_element, hpl_matrix, hpl_rhs};
use etm_linalg::lu::dgetf2;
use etm_linalg::verify::{residual, Residual};
use etm_linalg::Matrix;
use etm_mpisim::{block_on, run_thread_ranks, Comm, ThreadMsg};

use crate::dist::{BlockCyclic, ColumnAssignment};
use crate::params::HplParams;
use crate::rank::{hpl_rank, Block, RankWork};

/// Result of a numeric run.
#[derive(Debug, Clone)]
pub struct NumericResult {
    /// The computed solution of `A·x = b`.
    pub x: Vec<f64>,
    /// HPL scaled-residual verification.
    pub residual: Residual,
}

/// One rank's data for the numeric solve: its columns of the HPL test
/// matrix and the replicated right-hand side.
pub struct NumericWork {
    /// Global column index of each local column, ascending.
    gcols: Vec<usize>,
    /// Local columns (N rows × `gcols.len()`).
    local: Matrix,
    /// Replicated right-hand side, forward-solved in place; then the
    /// backward-substitution token, the partially solved vector.
    y: Vec<f64>,
    /// The current panel: factored on its owner, then as broadcast.
    panel: Matrix,
    /// Panel-relative pivot rows of the panel just factored.
    pivots: Vec<usize>,
}

impl NumericWork {
    /// Rank `me`'s share of `params`' system under `dist`.
    pub fn new(me: usize, params: &HplParams, dist: &impl ColumnAssignment) -> Self {
        let gcols: Vec<usize> = (0..dist.num_blocks())
            .filter(|&b| dist.owner(b) == me)
            .flat_map(|b| dist.block_start(b)..dist.block_start(b) + dist.block_width(b))
            .collect();
        let local = Matrix::from_fn(params.n, gcols.len(), |i, lj| {
            hpl_element(params.seed, i, gcols[lj])
        });
        NumericWork {
            gcols,
            local,
            y: hpl_rhs(params.n, params.seed),
            panel: Matrix::zeros(0, 0),
            pivots: Vec::new(),
        }
    }

    /// Local index of global column `gcol`.
    fn local_col(&self, gcol: usize) -> usize {
        self.gcols.partition_point(|&g| g < gcol)
    }
}

impl RankWork for NumericWork {
    type Msg = ThreadMsg;

    /// The numeric run is untimed: nothing reads its phase times.
    fn now(&self) -> f64 {
        0.0
    }

    async fn pfact(&mut self, b: &Block) {
        let lstart = self.local_col(b.start);
        let mut panel = self.local.submatrix(b.start, lstart, b.rows, b.w);
        dgetf2(&mut panel, &mut self.pivots).expect("HPL test matrices are non-singular");
        self.local.set_submatrix(b.start, lstart, &panel);
        self.panel = panel;
    }

    async fn mxswp(&mut self, b: &Block) -> ThreadMsg {
        ThreadMsg {
            // `laswp` replaces the kept panel with the broadcast copy,
            // so the buffer moves into the message.
            data: std::mem::replace(&mut self.panel, Matrix::zeros(0, 0)).into_col_major(),
            ints: self.pivots.iter().map(|&r| b.start + r).collect(),
        }
    }

    async fn sync_stall(&mut self) {}

    async fn laswp(&mut self, b: &Block, panel: ThreadMsg) {
        let end = self.gcols.len();
        let tstart = end - b.tcols;
        for (j, &piv) in panel.ints.iter().enumerate() {
            let r = b.start + j;
            if piv != r {
                self.local.swap_rows_in_cols(r, piv, tstart, end);
                self.y.swap(r, piv);
            }
        }
        self.panel = Matrix::from_col_major(b.rows, b.w, panel.data);
    }

    /// `y1 := L11⁻¹ y1; y2 -= L21 · y1`.
    async fn forward(&mut self, b: &Block) {
        let l11 = self.panel.submatrix(0, 0, b.w, b.w);
        let (y1, y2) = self.y[b.start..].split_at_mut(b.w);
        dtrsv(Triangle::Lower, Diagonal::Unit, &l11, y1);
        if b.rows > b.w {
            let l21 = self.panel.submatrix(b.w, 0, b.rows - b.w, b.w);
            dgemv(-1.0, &l21, y1, 1.0, y2);
        }
    }

    /// `U12 := L11⁻¹ A12; A22 -= L21 · U12` on the trailing columns.
    async fn update(&mut self, b: &Block) {
        let (tstart, w) = (self.gcols.len() - b.tcols, b.w);
        let l11 = self.panel.submatrix(0, 0, w, w);
        let mut a12 = self.local.submatrix(b.start, tstart, w, b.tcols);
        dtrsm_left(Triangle::Lower, Diagonal::Unit, 1.0, &l11, &mut a12);
        self.local.set_submatrix(b.start, tstart, &a12);
        if b.rows > w {
            let l21 = self.panel.submatrix(w, 0, b.rows - w, w);
            let mut a22 = self
                .local
                .submatrix(b.start + w, tstart, b.rows - w, b.tcols);
            dgemm(-1.0, &l21, &a12, 1.0, &mut a22);
            self.local.set_submatrix(b.start + w, tstart, &a22);
        }
    }

    fn take_token(&mut self, token: Option<ThreadMsg>) {
        if let Some(z) = token {
            self.y = z.data;
        }
    }

    /// Solves `U_kk · x_k = z_k`, then `z[..start] -= U(..start, k) · x_k`.
    async fn backsolve(&mut self, start: usize, w: usize) {
        let lstart = self.local_col(start);
        let (above, xk) = self.y.split_at_mut(start);
        let ukk = self.local.submatrix(start, lstart, w, w);
        dtrsv(Triangle::Upper, Diagonal::NonUnit, &ukk, &mut xk[..w]);
        if start > 0 {
            let u_above = self.local.submatrix(0, lstart, start, w);
            dgemv(-1.0, &u_above, &xk[..w], 1.0, above);
        }
    }

    fn pass_token(&mut self) -> ThreadMsg {
        ThreadMsg::floats(std::mem::take(&mut self.y))
    }
}

/// Runs the numeric distributed HPL on `p` ranks (threads) and verifies
/// the solution.
///
/// # Panics
/// Panics if `p == 0` or if a rank thread panics.
pub fn run_numeric(params: &HplParams, p: usize) -> NumericResult {
    assert!(p > 0);
    let dist = BlockCyclic::new(params.n, params.nb, p);
    // Every rank ends holding the broadcast solution; keep the last.
    let mut xs = run_thread_ranks(p, |comm| {
        let mut work = NumericWork::new(comm.rank(), params, &dist);
        block_on(hpl_rank(&comm, &dist, params.bcast, &mut work)).1
    });
    let x = xs.pop().expect("at least one rank").data;
    let a = hpl_matrix(params.n, params.seed);
    let b = hpl_rhs(params.n, params.seed);
    let res = residual(&a, &x, &b);
    NumericResult { x, residual: res }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BcastAlgo;
    use etm_linalg::solve::dgesv;

    #[test]
    fn single_rank_matches_direct_solver() {
        let params = HplParams::order(64).with_nb(16).with_seed(3);
        let r = run_numeric(&params, 1);
        assert!(r.residual.passes(), "scaled {}", r.residual.scaled);
        let a = hpl_matrix(64, 3);
        let b = hpl_rhs(64, 3);
        let direct = dgesv(&a, &b, 16).unwrap();
        for (got, want) in r.x.iter().zip(&direct) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn multi_rank_solves_correctly() {
        for p in [2usize, 3, 4, 5] {
            let params = HplParams::order(96).with_nb(16).with_seed(p as u64);
            let r = run_numeric(&params, p);
            assert!(
                r.residual.passes(),
                "p={p}: scaled residual {}",
                r.residual.scaled
            );
        }
    }

    #[test]
    fn distribution_invariance() {
        // The computed solution must not depend on P or NB.
        let params = HplParams::order(80).with_nb(8).with_seed(11);
        let x1 = run_numeric(&params, 1).x;
        let x3 = run_numeric(&params.with_nb(32), 3).x;
        for (a, b) in x1.iter().zip(&x3) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn binomial_bcast_variant_works() {
        let params = HplParams::order(72)
            .with_nb(12)
            .with_bcast(BcastAlgo::Binomial)
            .with_seed(5);
        let r = run_numeric(&params, 4);
        assert!(r.residual.passes());
    }

    #[test]
    fn more_ranks_than_blocks_is_fine() {
        // 2 blocks, 5 ranks: ranks 2-4 own nothing.
        let params = HplParams::order(40).with_nb(20).with_seed(8);
        let r = run_numeric(&params, 5);
        assert!(r.residual.passes());
    }

    #[test]
    fn partial_last_block_handled() {
        let params = HplParams::order(50).with_nb(16).with_seed(9);
        let r = run_numeric(&params, 3);
        assert!(r.residual.passes());
    }
}
