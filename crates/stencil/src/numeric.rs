//! Numeric 2-D Jacobi: real arithmetic, distributed by row strips over
//! the thread-backed communicator, validated against a serial sweep.

use etm_mpisim::{block_on, run_thread_ranks, Comm, ThreadComm, ThreadMsg};

/// Result of a numeric stencil run.
#[derive(Debug, Clone)]
pub struct NumericStencil {
    /// Final grid (row-major, `n × n`), gathered on return.
    pub grid: Vec<f64>,
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

/// Rows `start..end` (global) owned by `rank` out of `p` in a balanced
/// row-strip partition of the `n` rows.
pub(crate) fn strip(n: usize, p: usize, rank: usize) -> (usize, usize) {
    let base = n / p;
    let extra = n % p;
    let start = rank * base + rank.min(extra);
    let end = start + base + usize::from(rank < extra);
    (start, end)
}

const HALO_UP: u32 = 0x57E1;
const HALO_DOWN: u32 = 0x57E2;
const GATHER: u32 = 0x57E3;

fn run_rank(comm: ThreadComm, n: usize, iters: usize) -> Option<Vec<f64>> {
    let p = comm.size();
    let me = comm.rank();
    let (start, end) = strip(n, p, me);
    let rows = end - start;
    let init = |r: usize, c: usize| {
        if r == 0 || c == 0 || r == n - 1 || c == n - 1 {
            1.0
        } else {
            0.0
        }
    };
    // Local rows plus two halo rows.
    let mut cur = vec![0.0; (rows + 2) * n];
    let mut next = cur.clone();
    for lr in 0..rows {
        for c in 0..n {
            cur[(lr + 1) * n + c] = init(start + lr, c);
        }
    }
    for _ in 0..iters {
        // Halo exchange with neighbours (boundary strips skip one side).
        if me > 0 {
            block_on(comm.send(me - 1, HALO_UP, ThreadMsg::floats(cur[n..2 * n].to_vec())));
        }
        if me < p - 1 {
            block_on(comm.send(
                me + 1,
                HALO_DOWN,
                ThreadMsg::floats(cur[rows * n..(rows + 1) * n].to_vec()),
            ));
        }
        if me > 0 {
            let up = block_on(comm.recv(me - 1, HALO_DOWN)).data;
            cur[..n].copy_from_slice(&up);
        }
        if me < p - 1 {
            let down = block_on(comm.recv(me + 1, HALO_UP)).data;
            cur[(rows + 1) * n..].copy_from_slice(&down);
        }
        // Sweep interior of my strip (global boundary rows/cols fixed).
        for lr in 0..rows {
            let g = start + lr;
            if g == 0 || g == n - 1 {
                next[(lr + 1) * n..(lr + 2) * n].copy_from_slice(&cur[(lr + 1) * n..(lr + 2) * n]);
                continue;
            }
            let row = (lr + 1) * n;
            next[row] = cur[row];
            next[row + n - 1] = cur[row + n - 1];
            for c in 1..n - 1 {
                next[row + c] = 0.25
                    * (cur[row - n + c] + cur[row + n + c] + cur[row + c - 1] + cur[row + c + 1]);
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    // Gather strips on rank 0.
    if me == 0 {
        let mut full = vec![0.0; n * n];
        full[..rows * n].copy_from_slice(&cur[n..(rows + 1) * n]);
        for r in 1..p {
            let msg = block_on(comm.recv(r, GATHER)).data;
            let (rs, _) = strip(n, p, r);
            full[rs * n..rs * n + msg.len()].copy_from_slice(&msg);
        }
        Some(full)
    } else {
        block_on(comm.send(
            0,
            GATHER,
            ThreadMsg::floats(cur[n..(rows + 1) * n].to_vec()),
        ));
        None
    }
}

/// Runs the distributed Jacobi on `p` thread-ranks and gathers the grid.
///
/// # Panics
/// Panics if `p == 0`, `p > n`, or a rank thread panics.
pub fn run_numeric_stencil(n: usize, iters: usize, p: usize) -> NumericStencil {
    assert!(p > 0 && p <= n, "need 0 < p <= n");
    let grid = run_thread_ranks(p, |c| run_rank(c, n, iters))
        .into_iter()
        .next()
        .flatten();
    NumericStencil {
        grid: grid.expect("rank 0 gathers"),
    }
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
        let n = 24;
        let iters = 15;
        let reference = serial_jacobi(n, iters, boundary_init(n));
        for p in [1usize, 2, 3, 5] {
            let dist = run_numeric_stencil(n, iters, p);
            for (i, (a, b)) in reference.iter().zip(&dist.grid).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "p={p}: cell {i}: serial {a} vs distributed {b}"
                );
            }
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
    }
}
