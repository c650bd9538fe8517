//! The *numeric* HPL: a real distributed-memory LU solve over the thread
//! backend, with every rank owning its 1-D block-cyclic columns.
//!
//! This is functionally the algorithm HPL executes on a 1 × P grid:
//! right-looking panels, partial pivoting local to the panel owner,
//! ring/binomial panel broadcast, row interchanges, dtrsm + dgemm trailing
//! update, and a pipelined backward substitution. The solution is checked
//! with HPL's scaled residual, proving that the control flow whose timing
//! the simulation charges is a correct LU solver.

use std::time::Instant;

use etm_linalg::blas2::{dgemv, Diagonal, Triangle};
use etm_linalg::blas3::{dgemm, dtrsm_left};
use etm_linalg::gen::{hpl_element, hpl_matrix, hpl_rhs};
use etm_linalg::lu::dgetf2;
use etm_linalg::verify::{residual, Residual};
use etm_linalg::Matrix;
use etm_mpisim::coll::{binomial_bcast, ring_bcast};
use etm_mpisim::{block_on, run_thread_ranks, Comm, ThreadComm, ThreadMsg};

use crate::dist::BlockCyclic;
use crate::params::{BcastAlgo, HplParams};
use crate::phases::PhaseTimes;

/// Result of a numeric run.
#[derive(Debug, Clone)]
pub struct NumericResult {
    /// The computed solution of `A·x = b`.
    pub x: Vec<f64>,
    /// Per-rank phase times (real wall clock, for curiosity — the *model*
    /// uses the simulated timings).
    pub phases: Vec<PhaseTimes>,
    /// HPL scaled-residual verification.
    pub residual: Residual,
    /// Wall-clock seconds for the distributed solve.
    pub wall_seconds: f64,
}

/// Per-rank state for the distributed solve.
struct Rank {
    dist: BlockCyclic,
    /// Local columns (n rows × cols_of(me)), ascending global order.
    local: Matrix,
    /// Global column index of each local column.
    gcols: Vec<usize>,
    /// Replicated right-hand side, forward-solved in place.
    y: Vec<f64>,
    phases: PhaseTimes,
}

impl Rank {
    fn new(me: usize, params: &HplParams, p: usize) -> Self {
        let _ = me;
        let dist = BlockCyclic::new(params.n, params.nb, p);
        let gcols: Vec<usize> = dist
            .blocks_of(me)
            .into_iter()
            .flat_map(|b| {
                (dist.block_start(b)..dist.block_start(b) + dist.block_width(b)).collect::<Vec<_>>()
            })
            .collect();
        let n = params.n;
        let seed = params.seed;
        let mut local = Matrix::zeros(n, gcols.len());
        for (lj, &gj) in gcols.iter().enumerate() {
            for i in 0..n {
                local[(i, lj)] = hpl_element(seed, i, gj);
            }
        }
        Rank {
            dist,
            local,
            gcols,
            y: hpl_rhs(n, seed),
            phases: PhaseTimes::default(),
        }
    }

    /// Index of the first local column with global index ≥ `gcol`.
    fn first_local_at_or_after(&self, gcol: usize) -> usize {
        self.gcols.partition_point(|&g| g < gcol)
    }
}

fn bcast_panel(
    comm: &ThreadComm,
    algo: BcastAlgo,
    root: usize,
    msg: Option<ThreadMsg>,
) -> ThreadMsg {
    match algo {
        BcastAlgo::Ring => block_on(ring_bcast(comm, root, msg)),
        BcastAlgo::Binomial => block_on(binomial_bcast(comm, root, msg)),
    }
}

/// Executes one rank of the distributed solve; returns the full solution
/// (replicated at the end) and this rank's phase times.
fn run_rank(comm: ThreadComm, params: HplParams) -> (Vec<f64>, PhaseTimes) {
    let p = comm.size();
    let me = comm.rank();
    let mut st = Rank::new(me, &params, p);
    let n = params.n;
    let nc = st.dist.num_blocks();

    for k in 0..nc {
        let owner = st.dist.owner(k);
        let start = st.dist.block_start(k);
        let w = st.dist.block_width(k);
        let rows = n - start;

        // --- rfact (pfact + mxswp) on the owner, then bcast to all.
        let payload = if me == owner {
            let t0 = Instant::now();
            let lstart = st.first_local_at_or_after(start);
            debug_assert_eq!(st.gcols[lstart], start);
            let mut panel = st.local.submatrix(start, lstart, rows, w);
            let mut ppiv = Vec::new();
            dgetf2(&mut panel, &mut ppiv).expect("HPL test matrices are non-singular");
            st.local.set_submatrix(start, lstart, &panel);
            st.phases.pfact += t0.elapsed().as_secs_f64();
            // mxswp: record the pivot rows (global indices).
            let t1 = Instant::now();
            let gpiv: Vec<usize> = ppiv.iter().map(|&r| start + r).collect();
            st.phases.mxswp += t1.elapsed().as_secs_f64();
            Some(ThreadMsg {
                data: panel.as_slice().to_vec(),
                ints: gpiv,
            })
        } else {
            None
        };
        let t_b = Instant::now();
        let msg = bcast_panel(&comm, params.bcast, owner, payload);
        st.phases.bcast += t_b.elapsed().as_secs_f64();
        let panel = Matrix::from_col_major(rows, w, msg.data);
        let gpiv = msg.ints;

        // --- laswp: apply this panel's pivots to my trailing columns and
        // the replicated rhs.
        let t_l = Instant::now();
        let tstart = st.first_local_at_or_after(start + w);
        let tcols = st.gcols.len() - tstart;
        for (j, &piv) in gpiv.iter().enumerate() {
            let r = start + j;
            if piv != r {
                st.local.swap_rows_in_cols(r, piv, tstart, st.gcols.len());
                st.y.swap(r, piv);
            }
        }
        st.phases.laswp += t_l.elapsed().as_secs_f64();

        // --- forward solve on the replicated rhs (redundant on all
        // ranks): y1 := L11⁻¹ y1; y2 -= L21 · y1.
        let t_f = Instant::now();
        {
            let l11 = panel.submatrix(0, 0, w, w);
            let (y1, y2) = {
                let (a, rest) = st.y[start..].split_at_mut(w);
                (a, rest)
            };
            etm_linalg::blas2::dtrsv(Triangle::Lower, Diagonal::Unit, &l11, y1);
            if rows > w {
                let l21 = panel.submatrix(w, 0, rows - w, w);
                dgemv(-1.0, &l21, y1, 1.0, y2);
            }
        }
        st.phases.uptrsv += t_f.elapsed().as_secs_f64();

        // --- update: U12 := L11⁻¹ A12; A22 -= L21 · U12 on my trailing
        // columns.
        if tcols > 0 {
            let t_u = Instant::now();
            let l11 = panel.submatrix(0, 0, w, w);
            let mut a12 = st.local.submatrix(start, tstart, w, tcols);
            dtrsm_left(Triangle::Lower, Diagonal::Unit, 1.0, &l11, &mut a12);
            st.local.set_submatrix(start, tstart, &a12);
            if rows > w {
                let l21 = panel.submatrix(w, 0, rows - w, w);
                let mut a22 = st.local.submatrix(start + w, tstart, rows - w, tcols);
                dgemm(-1.0, &l21, &a12, 1.0, &mut a22);
                st.local.set_submatrix(start + w, tstart, &a22);
            }
            st.phases.update += t_u.elapsed().as_secs_f64();
        }
    }

    // --- uptrsv: pipelined backward substitution. The token carries the
    // partially solved vector; each block owner solves its diagonal block
    // and eliminates its columns from the rows above.
    let t_s = Instant::now();
    const UPTRSV_TAG: u32 = 0x0770;
    let mut token: Option<Vec<f64>> = None;
    for k in (0..nc).rev() {
        let owner = st.dist.owner(k);
        if me != owner {
            continue;
        }
        let mut z = match token.take() {
            Some(z) => z,
            None => {
                if k == nc - 1 {
                    st.y.clone()
                } else {
                    let from = st.dist.owner(k + 1);
                    if from == me {
                        unreachable!("token stays local between owned blocks");
                    }
                    block_on(comm.recv(from, UPTRSV_TAG)).data
                }
            }
        };
        let start = st.dist.block_start(k);
        let w = st.dist.block_width(k);
        let lstart = st.first_local_at_or_after(start);
        // Solve U_kk · x_k = z_k.
        let ukk = st.local.submatrix(start, lstart, w, w);
        etm_linalg::blas2::dtrsv(
            Triangle::Upper,
            Diagonal::NonUnit,
            &ukk,
            &mut z[start..start + w],
        );
        // Eliminate: z[0..start] -= U(0..start, block k) · x_k.
        if start > 0 {
            let u_above = st.local.submatrix(0, lstart, start, w);
            let xk = z[start..start + w].to_vec();
            let (above, rest) = z.split_at_mut(start);
            let _ = rest;
            dgemv(-1.0, &u_above, &xk, 1.0, above);
        }
        if k > 0 {
            let next = st.dist.owner(k - 1);
            if next == me {
                token = Some(z);
            } else {
                block_on(comm.send(next, UPTRSV_TAG, ThreadMsg::floats(z)));
            }
        } else {
            token = Some(z);
        }
    }
    // Owner of block 0 now holds the full solution; broadcast it.
    let root = st.dist.owner(0);
    let payload = if me == root {
        Some(ThreadMsg::floats(token.expect("block-0 owner holds x")))
    } else {
        None
    };
    let x = block_on(ring_bcast(&comm, root, payload)).data;
    st.phases.uptrsv += t_s.elapsed().as_secs_f64();

    (x, st.phases)
}

/// Runs the numeric distributed HPL on `p` ranks (threads) and verifies
/// the solution.
///
/// # Panics
/// Panics if `p == 0` or if a rank thread panics.
pub fn run_numeric(params: &HplParams, p: usize) -> NumericResult {
    assert!(p > 0);
    let t0 = Instant::now();
    // Every rank ends holding the broadcast solution; keep the last.
    let (mut xs, phases): (Vec<Vec<f64>>, Vec<PhaseTimes>) =
        run_thread_ranks(p, |c| run_rank(c, *params))
            .into_iter()
            .unzip();
    let wall_seconds = t0.elapsed().as_secs_f64();
    let x = xs.pop().expect("at least one rank");
    let a = hpl_matrix(params.n, params.seed);
    let b = hpl_rhs(params.n, params.seed);
    let res = residual(&a, &x, &b);
    NumericResult {
        x,
        phases,
        residual: res,
        wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn phases_accumulate_nonnegative_time() {
        let params = HplParams::order(64).with_nb(16).with_seed(1);
        let r = run_numeric(&params, 2);
        assert_eq!(r.phases.len(), 2);
        for ph in &r.phases {
            assert!(ph.ta() >= 0.0 && ph.tc() >= 0.0);
            assert!(ph.total() > 0.0, "some time must be accounted");
        }
    }
}
