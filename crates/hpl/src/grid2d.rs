//! 2-D process grids (§3.1: "though we examine only the case of a 1-by-P
//! process grid in this study, our scheme is universally applicable to
//! any other process grid").
//!
//! This module extends the timed simulation to an `R × C` grid — the
//! layout real HPL installations use — so the estimation pipeline can be
//! exercised on grid shapes the paper left to future work. The cost
//! structure follows HPL's 2-D algorithm:
//!
//! * the panel is distributed over a process *column*: pivot search needs
//!   a column all-reduce per eliminated column (`mxswp` becomes real
//!   communication, unlike the 1-D case);
//! * the factored panel is broadcast along process *rows*;
//! * row interchanges (`laswp`) move pivot rows between process rows;
//! * the `U12` strip is broadcast down process *columns* before the
//!   trailing dgemm.
//!
//! Compute charges reuse the calibrated
//! [`PerfModel`](etm_cluster::PerfModel); communication goes
//! through the same DES fabric as the 1-D simulation, with row/column
//! collectives running on [`SubComm`] views.

use etm_cluster::{ClusterSpec, Configuration, Placement, RankPrices};
use etm_mpisim::coll::{gather, ring_bcast};
use etm_mpisim::{Comm, SimComm, SimMsg, SubComm};

use crate::dist::{BlockCyclic, ColumnAssignment, TrailingCols};
use crate::params::HplParams;
use crate::phases::PhaseTimes;
use crate::simulate::{simulate_ranks, ExecutionPerturbation, SimulatedRun};

/// Shape of the process grid (`rows × cols = P`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridShape {
    /// Process rows R.
    pub rows: usize,
    /// Process columns C.
    pub cols: usize,
}

impl GridShape {
    /// A 1 × P grid — the paper's layout.
    pub fn one_by(p: usize) -> Self {
        GridShape { rows: 1, cols: p }
    }

    /// Total processes.
    pub(crate) fn len(&self) -> usize {
        self.rows * self.cols
    }
}

/// One rank's timed execution on an `R × C` grid.
async fn run_rank_grid(
    comm: &SimComm,
    params: &HplParams,
    grid: GridShape,
    cost: &RankPrices,
) -> PhaseTimes {
    let me = comm.rank();
    let (r_me, c_me) = (me / grid.cols, me % grid.cols);
    let n = params.n;
    // Column blocks are dealt over process columns; row blocks over
    // process rows.
    let col_dist = BlockCyclic::new(n, params.nb, grid.cols);
    let row_dist = BlockCyclic::new(n, params.nb, grid.rows);
    let nc = col_dist.num_blocks();
    let mut ph = PhaseTimes::default();

    // Row and column sub-communicators (parent ranks are row-major).
    let row_members: Vec<usize> = (0..grid.cols).map(|c| r_me * grid.cols + c).collect();
    let col_members: Vec<usize> = (0..grid.rows).map(|r| r * grid.cols + c_me).collect();
    let row_comm = SubComm::new(comm, row_members);
    let col_comm = SubComm::new(comm, col_members);
    let mut trailing = TrailingCols::new(&col_dist, c_me);

    for k in 0..nc {
        let start = col_dist.block_start(k);
        let w = col_dist.block_width(k);
        let rows_left = n - start;
        let owner_col = col_dist.owner(k);
        let owner_row = row_dist.owner(k); // diagonal block's process row
                                           // My shares of the trailing matrix.
        let my_rows = rows_left / grid.rows + usize::from(rows_left % grid.rows > r_me);
        let my_tcols = trailing.pass(&col_dist, k);

        // --- rfact: the owning process column factors the panel
        // cooperatively; each member holds ~rows_left/R of it.
        if c_me == owner_col {
            let t0 = comm.now();
            // BLAS-2 work on my slice of the panel.
            let mut flops = 0.0;
            for j in 0..w {
                let below = (rows_left.saturating_sub(j)) as f64 / grid.rows as f64;
                flops += below * (2.0 + 2.0 * (w - j - 1) as f64);
            }
            comm.compute(cost.panel(flops)).await;
            ph.pfact += comm.now() - t0;

            // mxswp: per eliminated column, a pivot all-reduce over the
            // process column (gather 16 B to the top, broadcast back).
            let t1 = comm.now();
            if grid.rows > 1 {
                for _ in 0..w {
                    let mine = SimMsg::of(16.0);
                    let _ = gather(&col_comm, 0, mine).await;
                    let payload = (col_comm.rank() == 0).then(|| SimMsg::of(16.0));
                    let _ = ring_bcast(&col_comm, 0, payload).await;
                }
            } else {
                comm.compute(cost.memop(16.0 * w as f64)).await;
            }
            ph.mxswp += comm.now() - t1;
        }

        // --- panel broadcast along my process row from the owner column.
        let t_b = comm.now();
        let panel_bytes = 8.0 * (my_rows.max(1) * w) as f64 + 8.0 * w as f64;
        let root = owner_col; // row-subcomm index == column index
        let payload = (c_me == owner_col).then(|| SimMsg::of(panel_bytes));
        let _ = ring_bcast(&row_comm, root, payload).await;
        let stall = cost.sync_stall();
        if stall > 0.0 {
            comm.idle(stall).await;
        }
        ph.bcast += comm.now() - t_b;

        // --- laswp: pivot-map broadcast down the column plus the row
        // exchanges; with R > 1 about half the swapped rows cross process
        // rows.
        if my_tcols > 0 {
            let t_l = comm.now();
            let local_bytes = 2.0 * (w * my_tcols) as f64 * 8.0;
            comm.compute(cost.memop(local_bytes)).await;
            if grid.rows > 1 {
                let map_payload = (col_comm.rank() == 0).then(|| SimMsg::of(8.0 * w as f64));
                let _ = ring_bcast(&col_comm, 0, map_payload).await;
                // Remote half of the row exchanges, pipelined through the
                // column: charge one column transfer of my share.
                comm.send(
                    col_comm.to_parent((col_comm.rank() + 1) % grid.rows),
                    0x1A5_0000 + (k as u32 & 0xFFFF),
                    SimMsg::of(local_bytes / 2.0),
                )
                .await;
                let _ = comm
                    .recv(
                        col_comm.to_parent((col_comm.rank() + grid.rows - 1) % grid.rows),
                        0x1A5_0000 + (k as u32 & 0xFFFF),
                    )
                    .await;
            }
            ph.laswp += comm.now() - t_l;
        }

        // --- U12 broadcast down the columns from the diagonal row, then
        // the trailing update.
        if my_tcols > 0 {
            let t_u = comm.now();
            if grid.rows > 1 {
                let u12_bytes = 8.0 * (w * my_tcols) as f64;
                let payload = (r_me == owner_row).then(|| SimMsg::of(u12_bytes));
                let _ = ring_bcast(&col_comm, owner_row, payload).await;
            }
            let trsm = (w * w * my_tcols) as f64 / grid.rows as f64;
            let gemm_rows = rows_left.saturating_sub(w) as f64 / grid.rows as f64;
            let gemm = 2.0 * gemm_rows * (w * my_tcols) as f64;
            comm.compute(cost.gemm(trsm + gemm)).await;
            ph.update += comm.now() - t_u;
        }
    }

    // --- uptrsv (coarse): distributed backward substitution, O(N²/P)
    // compute per rank plus a solution broadcast across the grid.
    let t_s = comm.now();
    let flops = (n as f64) * (n as f64) / grid.len() as f64;
    comm.compute(cost.panel(flops)).await;
    let x_bytes = 8.0 * n as f64;
    let row_payload = (c_me == 0).then(|| SimMsg::of(x_bytes));
    let _ = ring_bcast(&row_comm, 0, row_payload).await;
    let col_payload = (r_me == 0).then(|| SimMsg::of(x_bytes));
    let _ = ring_bcast(&col_comm, 0, col_payload).await;
    ph.uptrsv += comm.now() - t_s;

    ph
}

/// Simulates an HPL run on a 2-D process grid.
///
/// # Panics
/// Panics if the grid size does not match the configuration's process
/// count, or if the configuration is invalid for the cluster.
pub fn simulate_hpl_grid(
    spec: &ClusterSpec,
    config: &Configuration,
    params: &HplParams,
    grid: GridShape,
) -> SimulatedRun {
    let placement = Placement::new(spec, config).expect("invalid configuration");
    assert_eq!(
        grid.len(),
        placement.len(),
        "grid {}x{} needs exactly {} processes, placement has {}",
        grid.rows,
        grid.cols,
        grid.len(),
        placement.len()
    );
    let run_params = *params;
    simulate_ranks(
        spec,
        &placement,
        params,
        "hpl2d-rank",
        &ExecutionPerturbation::default(),
        |comm, cost| async move { run_rank_grid(&comm, &run_params, grid, &cost).await },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate_hpl;
    use etm_cluster::commlib::CommLibProfile;
    use etm_cluster::spec::paper_cluster;

    fn spec() -> ClusterSpec {
        paper_cluster(CommLibProfile::mpich122())
    }

    /// Phase totals of the slowest rank per field.
    fn max_phases(run: &SimulatedRun) -> PhaseTimes {
        run.phases
            .iter()
            .fold(PhaseTimes::default(), |acc, p| acc.max(p))
    }

    #[test]
    fn grid_shapes() {
        assert_eq!(GridShape::one_by(8), GridShape { rows: 1, cols: 8 });
        assert_eq!(GridShape::one_by(8).len(), 8);
        assert_eq!(GridShape { rows: 3, cols: 4 }.len(), 12);
    }

    #[test]
    fn one_by_p_grid_close_to_1d_simulation() {
        // The 2-D path with R = 1 models the same algorithm as the 1-D
        // simulation (modulo the coarser uptrsv): totals within 25%.
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(0, 0, 8, 1);
        let params = HplParams::order(1600);
        let t1d = simulate_hpl(&s, &cfg, &params).wall_seconds;
        let t2d = simulate_hpl_grid(&s, &cfg, &params, GridShape::one_by(8)).wall_seconds;
        let rel = ((t2d - t1d) / t1d).abs();
        assert!(rel < 0.25, "1x8 grid {t2d} vs 1-D {t1d} (rel {rel:.3})");
    }

    #[test]
    fn square_grid_reduces_broadcast_pressure() {
        // With 8 P-IIs at a comm-heavy size, a 2x4 grid's row broadcasts
        // move half the panel bytes of the 1x8 ring: bcast time drops.
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(0, 0, 8, 1);
        let params = HplParams::order(2400);
        let flat = simulate_hpl_grid(&s, &cfg, &params, GridShape::one_by(8));
        let square = simulate_hpl_grid(&s, &cfg, &params, GridShape { rows: 2, cols: 4 });
        let bcast_flat = max_phases(&flat).bcast;
        let bcast_square = max_phases(&square).bcast;
        assert!(
            bcast_square < bcast_flat,
            "2x4 bcast {bcast_square} should undercut 1x8 {bcast_flat}"
        );
        // And mxswp becomes real communication on the 2-row grid.
        assert!(max_phases(&square).mxswp > max_phases(&flat).mxswp);
    }

    #[test]
    fn grid_size_must_match_processes() {
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(0, 0, 8, 1);
        let result = std::panic::catch_unwind(|| {
            simulate_hpl_grid(
                &s,
                &cfg,
                &HplParams::order(400),
                GridShape { rows: 3, cols: 3 },
            )
        });
        assert!(result.is_err(), "3x3 grid on 8 processes must panic");
    }

    #[test]
    fn grid_runs_are_deterministic() {
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(1, 2, 4, 1);
        let params = HplParams::order(1200);
        let g = GridShape { rows: 2, cols: 3 };
        let a = simulate_hpl_grid(&s, &cfg, &params, g);
        let b = simulate_hpl_grid(&s, &cfg, &params, g);
        assert_eq!(a.wall_seconds.to_bits(), b.wall_seconds.to_bits());
    }

    #[test]
    fn all_phases_populated_on_2d_grid() {
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(0, 0, 8, 1);
        let run = simulate_hpl_grid(
            &s,
            &cfg,
            &HplParams::order(1600),
            GridShape { rows: 2, cols: 4 },
        );
        let mx = max_phases(&run);
        assert!(mx.pfact > 0.0);
        assert!(mx.mxswp > 0.0, "2-D pivot search communicates");
        assert!(mx.bcast > 0.0);
        assert!(mx.laswp > 0.0, "2-D laswp communicates");
        assert!(mx.update > 0.0);
        assert!(mx.uptrsv > 0.0);
    }
}
