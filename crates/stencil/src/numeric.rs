//! Numeric 2-D Jacobi: real arithmetic, distributed by row strips over
//! the thread-backed communicator, validated against a serial sweep.
//!
//! [`NumericSweep`] is the arithmetic of [`stencil_rank`]'s phases: the
//! strip's edge rows travel as real halo rows, the sweep computes the
//! 5-point average, and the all-reduce carries each strip's largest
//! change. The timed stencil runs the same body with calibrated charges
//! in place of the arithmetic, so the grid checked here comes from the
//! control flow the simulation times; `crates/hpl/tests/send_sequence.rs`
//! checks that both backends send the same messages.

use etm_mpisim::coll::gather;
use etm_mpisim::{block_on, run_thread_ranks, Comm, ThreadMsg};

use crate::rank::{stencil_rank, strip, Side, SweepWork};

/// Result of a numeric stencil run.
#[derive(Debug, Clone)]
pub struct NumericStencil {
    /// Final grid (row-major, `n × n`), gathered on return.
    pub grid: Vec<f64>,
    /// The last sweep's largest change over the grid, as the
    /// convergence all-reduce delivered it; `0.0` when `iters == 0`.
    pub residual: f64,
}

/// Serial reference: `iters` Jacobi sweeps of the 5-point stencil over an
/// `n × n` grid with fixed (Dirichlet) boundary.
pub fn serial_jacobi(n: usize, iters: usize, init: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    let mut cur: Vec<f64> = (0..n * n).map(|i| init(i / n, i % n)).collect();
    let mut next = cur.clone();
    for _ in 0..iters {
        for r in 1..n - 1 {
            for c in 1..n - 1 {
                next[r * n + c] = 0.25
                    * (cur[(r - 1) * n + c]
                        + cur[(r + 1) * n + c]
                        + cur[r * n + c - 1]
                        + cur[r * n + c + 1]);
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// One rank's strip of the numeric Jacobi: its rows of the grid between
/// a halo row above and one below.
pub struct NumericSweep {
    /// Grid side length.
    n: usize,
    /// First global row of the strip.
    start: usize,
    /// Rows in the strip.
    rows: usize,
    /// The strip and its halo rows, `(rows + 2) × n` row-major: row 0 is
    /// the halo from above, row `rows + 1` the halo from below.
    cur: Vec<f64>,
    /// The sweep's output, laid out as `cur`.
    next: Vec<f64>,
    /// The strip's largest `|next − cur|` in the last sweep.
    change: f64,
    /// The last sweep's largest change over the grid.
    residual: f64,
}

impl NumericSweep {
    /// Rank `me`'s strip of the `n × n` grid split over `p` ranks, at the
    /// initial values: 1 on the grid's boundary, 0 inside.
    pub fn new(n: usize, p: usize, me: usize) -> Self {
        let (start, end) = strip(n, p, me);
        let rows = end - start;
        let mut cur = vec![0.0; (rows + 2) * n];
        for lr in 0..rows {
            let r = start + lr;
            for c in 0..n {
                if r == 0 || c == 0 || r == n - 1 || c == n - 1 {
                    cur[(lr + 1) * n + c] = 1.0;
                }
            }
        }
        NumericSweep {
            n,
            start,
            rows,
            next: cur.clone(),
            cur,
            change: 0.0,
            residual: 0.0,
        }
    }
}

impl SweepWork for NumericSweep {
    type Msg = ThreadMsg;

    /// The numeric run is untimed: nothing reads its phase times.
    fn now(&self) -> f64 {
        0.0
    }

    fn edge_row(&self, side: Side) -> ThreadMsg {
        let lr = match side {
            Side::Up => 1,
            Side::Down => self.rows,
        };
        ThreadMsg::floats(self.cur[lr * self.n..(lr + 1) * self.n].to_vec())
    }

    fn fill_halo(&mut self, side: Side, row: ThreadMsg) {
        let lr = match side {
            Side::Up => 0,
            Side::Down => self.rows + 1,
        };
        self.cur[lr * self.n..(lr + 1) * self.n].copy_from_slice(&row.data);
    }

    async fn sync_stall(&mut self) {}

    /// Sweeps the strip's interior; the grid's boundary rows and columns
    /// stay fixed.
    async fn sweep(&mut self) {
        let (n, cur, next) = (self.n, &self.cur, &mut self.next);
        let mut change = 0.0f64;
        for lr in 0..self.rows {
            let g = self.start + lr;
            let row = (lr + 1) * n;
            if g == 0 || g == n - 1 {
                next[row..row + n].copy_from_slice(&cur[row..row + n]);
                continue;
            }
            next[row] = cur[row];
            next[row + n - 1] = cur[row + n - 1];
            for c in 1..n - 1 {
                next[row + c] = 0.25
                    * (cur[row - n + c] + cur[row + n + c] + cur[row + c - 1] + cur[row + c + 1]);
                change = change.max((next[row + c] - cur[row + c]).abs());
            }
        }
        self.change = change;
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    fn local_change(&self) -> ThreadMsg {
        ThreadMsg::floats(vec![self.change])
    }

    fn max_change(&self, changes: Vec<ThreadMsg>) -> ThreadMsg {
        let max = changes.iter().map(|m| m.data[0]).fold(0.0, f64::max);
        ThreadMsg::floats(vec![max])
    }

    fn set_residual(&mut self, residual: ThreadMsg) {
        self.residual = residual.data[0];
    }
}

/// Runs the distributed Jacobi on `p` thread-ranks and gathers the grid.
///
/// # Panics
/// Panics if `p == 0`, `p > n`, or a rank thread panics.
pub fn run_numeric_stencil(n: usize, iters: usize, p: usize) -> NumericStencil {
    assert!(p > 0 && p <= n, "need 0 < p <= n");
    run_thread_ranks(p, |comm| {
        let mut work = NumericSweep::new(n, p, comm.rank());
        block_on(stencil_rank(&comm, iters, &mut work));
        let rows = ThreadMsg::floats(work.cur[n..(work.rows + 1) * n].to_vec());
        // Strips are contiguous in rank order: rank 0 concatenates them.
        block_on(gather(&comm, 0, rows)).map(|strips| NumericStencil {
            grid: strips.into_iter().flat_map(|m| m.data).collect(),
            residual: work.residual,
        })
    })
    .into_iter()
    .next()
    .flatten()
    .expect("rank 0 gathers")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boundary_init(n: usize) -> impl Fn(usize, usize) -> f64 {
        move |r, c| {
            if r == 0 || c == 0 || r == n - 1 || c == n - 1 {
                1.0
            } else {
                0.0
            }
        }
    }

    #[test]
    fn strips_partition_rows_exactly() {
        for (n, p) in [(10usize, 3usize), (16, 4), (7, 7), (100, 6)] {
            let mut covered = 0;
            for rank in 0..p {
                let (s, e) = strip(n, p, rank);
                assert!(s <= e && e <= n);
                covered += e - s;
                if rank > 0 {
                    let (_, prev_end) = strip(n, p, rank - 1);
                    assert_eq!(prev_end, s, "strips must be contiguous");
                }
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn distributed_matches_serial() {
        // The distributed sweep adds in the serial sweep's order, so the
        // grids agree bit for bit, down to one-row strips (P = N).
        let n = 24;
        let iters = 15;
        let reference = serial_jacobi(n, iters, boundary_init(n));
        for p in [1usize, 2, 3, 5, n] {
            let dist = run_numeric_stencil(n, iters, p);
            assert_eq!(dist.grid.len(), n * n);
            for (i, (a, b)) in reference.iter().zip(&dist.grid).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "p={p}: cell {i}: serial {a} vs distributed {b}"
                );
            }
        }
    }

    #[test]
    fn residual_is_the_last_sweeps_largest_change() {
        let n = 24;
        let iters = 15;
        let last = serial_jacobi(n, iters, boundary_init(n));
        let before = serial_jacobi(n, iters - 1, boundary_init(n));
        let want = last
            .iter()
            .zip(&before)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(want > 0.0);
        for p in [1usize, 2, 3, 5] {
            let got = run_numeric_stencil(n, iters, p).residual;
            assert_eq!(got.to_bits(), want.to_bits(), "p={p}: {got} vs {want}");
        }
    }

    #[test]
    fn heat_diffuses_inward() {
        let n = 16;
        let r = run_numeric_stencil(n, 50, 4);
        // Center starts at 0 and warms toward the boundary value 1.
        let center = r.grid[(n / 2) * n + n / 2];
        assert!(center > 0.05 && center < 1.0, "center {center}");
        // Monotone toward boundary along a row.
        let row = n / 2;
        assert!(r.grid[row * n + 1] > r.grid[row * n + n / 2]);
    }

    #[test]
    fn zero_iterations_returns_initial_grid() {
        let n = 8;
        let r = run_numeric_stencil(n, 0, 2);
        assert_eq!(r.grid[0], 1.0);
        assert_eq!(r.grid[(n / 2) * n + n / 2], 0.0);
        assert_eq!(r.residual, 0.0);
    }
}
