//! LU factorization with partial pivoting: unblocked `dgetf2`, blocked
//! right-looking `dgetrf` (the exact algorithm HPL distributes), and the
//! `dlaswp` row-interchange kernel.

use crate::blas1::idamax;
use crate::blas2::{Diagonal, Triangle};
use crate::blas3::{dgemm, dtrsm_left};
use crate::Matrix;

/// Error from LU factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuError {
    /// The matrix is numerically singular: no usable pivot in this column.
    Singular {
        /// The column where factorization broke down.
        column: usize,
    },
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::Singular { column } => {
                write!(f, "matrix is singular at column {column}")
            }
        }
    }
}

impl std::error::Error for LuError {}

/// Unblocked LU with partial pivoting on a rectangular `m × n` panel
/// (`m ≥ n`), LAPACK's `dgetf2`. On return the panel holds `L` (unit
/// lower, below diagonal) and `U` (upper); `pivots[k]` is the row swapped
/// into position `k` at step `k` (absolute row index within the panel).
///
/// # Errors
/// [`LuError::Singular`] when a pivot column is exactly zero.
pub fn dgetf2(a: &mut Matrix, pivots: &mut Vec<usize>) -> Result<(), LuError> {
    let m = a.rows();
    let n = a.cols();
    assert!(m >= n, "dgetf2 panel must be tall: {m} x {n}");
    pivots.clear();
    for k in 0..n {
        // Pivot search in column k, rows k..m.
        let col = a.col(k);
        let rel = idamax(&col[k..]).expect("non-empty pivot column");
        let piv = k + rel;
        if a[(piv, k)] == 0.0 {
            return Err(LuError::Singular { column: k });
        }
        pivots.push(piv);
        if piv != k {
            a.swap_rows(k, piv);
        }
        // Scale multipliers and apply the rank-1 update to the trailing
        // panel columns.
        let akk = a[(k, k)];
        for i in (k + 1)..m {
            a[(i, k)] /= akk;
        }
        for j in (k + 1)..n {
            let akj = a[(k, j)];
            if akj != 0.0 {
                for i in (k + 1)..m {
                    let l = a[(i, k)];
                    a[(i, j)] -= l * akj;
                }
            }
        }
    }
    Ok(())
}

/// Applies a sequence of row interchanges (LAPACK `dlaswp`): for each
/// `k`, swap row `offset + k` with row `pivots[k]` (absolute indices),
/// in order. This is the `laswp` item of the paper's timing breakdown.
pub(crate) fn dlaswp(a: &mut Matrix, offset: usize, pivots: &[usize]) {
    for (k, &p) in pivots.iter().enumerate() {
        let r = offset + k;
        if p != r {
            a.swap_rows(r, p);
        }
    }
}

/// Blocked right-looking LU with partial pivoting (LAPACK `dgetrf`,
/// the algorithm HPL parallelizes). Factors `A = P·L·U` in place with
/// block size `nb`; returns the absolute pivot rows per elimination step.
///
/// # Errors
/// [`LuError::Singular`] if a panel factorization breaks down.
///
/// # Panics
/// Panics if `A` is not square or `nb == 0`.
pub fn dgetrf(a: &mut Matrix, nb: usize) -> Result<Vec<usize>, LuError> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "dgetrf expects a square matrix");
    assert!(nb > 0, "block size must be positive");
    let mut pivots = Vec::with_capacity(n);
    let mut k0 = 0;
    while k0 < n {
        let kb = nb.min(n - k0);
        // --- rfact: factor the current panel A[k0.., k0..k0+kb].
        let mut panel = a.submatrix(k0, k0, n - k0, kb);
        let mut ppiv = Vec::new();
        dgetf2(&mut panel, &mut ppiv).map_err(|LuError::Singular { column }| {
            LuError::Singular {
                column: k0 + column,
            }
        })?;
        a.set_submatrix(k0, k0, &panel);
        // Convert panel-relative pivots to absolute rows and apply the
        // swaps to the columns *outside* the panel (laswp left + right).
        for (k, &p_rel) in ppiv.iter().enumerate() {
            let r = k0 + k;
            let p = k0 + p_rel;
            pivots.push(p);
            if p != r {
                // The panel itself was already swapped inside dgetf2;
                // swap the remaining columns.
                for j in (0..k0).chain(k0 + kb..n) {
                    let tmp = a[(r, j)];
                    a[(r, j)] = a[(p, j)];
                    a[(p, j)] = tmp;
                }
            }
        }
        let rest0 = k0 + kb;
        if rest0 < n {
            // --- update: U12 := L11⁻¹ · A12 (dtrsm), then
            //     A22 := A22 − L21 · U12 (dgemm).
            let l11 = a.submatrix(k0, k0, kb, kb);
            let mut u12 = a.submatrix(k0, rest0, kb, n - rest0);
            dtrsm_left(Triangle::Lower, Diagonal::Unit, 1.0, &l11, &mut u12);
            a.set_submatrix(k0, rest0, &u12);

            let l21 = a.submatrix(rest0, k0, n - rest0, kb);
            let mut a22 = a.submatrix(rest0, rest0, n - rest0, n - rest0);
            dgemm(-1.0, &l21, &u12, 1.0, &mut a22);
            a.set_submatrix(rest0, rest0, &a22);
        }
        k0 += kb;
    }
    Ok(pivots)
}

/// Reconstructs `P·A` from LU factors for verification: returns `L·U`
/// where `L`/`U` are unpacked from the factored matrix.
pub fn lu_reconstruct(factored: &Matrix) -> Matrix {
    let n = factored.rows();
    let mut l = Matrix::identity(n);
    let mut u = Matrix::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            if i > j {
                l[(i, j)] = factored[(i, j)];
            } else {
                u[(i, j)] = factored[(i, j)];
            }
        }
    }
    let mut prod = Matrix::zeros(n, n);
    dgemm(1.0, &l, &u, 0.0, &mut prod);
    prod
}

/// Applies the pivot sequence to a fresh copy of `A`, producing `P·A`.
pub fn apply_pivots(a: &Matrix, pivots: &[usize]) -> Matrix {
    let mut pa = a.clone();
    dlaswp(&mut pa, 0, pivots);
    pa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{hpl_matrix, seeded_matrix};

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        for j in 0..a.cols() {
            for i in 0..a.rows() {
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() < tol,
                    "({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn getf2_small_known_case() {
        // A = [[0, 1], [2, 3]]: pivot swaps rows; L = [[1,0],[0,1]] after
        // swap, U = [[2,3],[0,1]].
        let mut a = Matrix::from_col_major(2, 2, vec![0.0, 2.0, 1.0, 3.0]);
        let mut piv = Vec::new();
        dgetf2(&mut a, &mut piv).unwrap();
        assert_eq!(piv, vec![1, 1]);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(0, 1)], 3.0);
        assert_eq!(a[(1, 0)], 0.0);
        assert_eq!(a[(1, 1)], 1.0);
    }

    #[test]
    fn getf2_reconstructs_pa() {
        let a0 = seeded_matrix(8, 8, 21);
        let mut a = a0.clone();
        let mut piv = Vec::new();
        dgetf2(&mut a, &mut piv).unwrap();
        let pa = apply_pivots(&a0, &piv);
        let lu = lu_reconstruct(&a);
        assert_close(&pa, &lu, 1e-12);
    }

    #[test]
    fn getrf_matches_getf2_result() {
        // Blocked and unblocked factorizations of the same matrix must
        // agree (same pivot choices, same factors).
        let a0 = hpl_matrix(24, 5);
        let mut ub = a0.clone();
        let mut piv_ub = Vec::new();
        dgetf2(&mut ub, &mut piv_ub).unwrap();
        let mut bl = a0.clone();
        let piv_bl = dgetrf(&mut bl, 8).unwrap();
        assert_eq!(piv_ub, piv_bl);
        assert_close(&ub, &bl, 1e-11);
    }

    #[test]
    fn getrf_reconstructs_pa_various_block_sizes() {
        let n = 32;
        let a0 = hpl_matrix(n, 9);
        for nb in [1, 4, 7, 32, 100] {
            let mut a = a0.clone();
            let piv = dgetrf(&mut a, nb).unwrap();
            let pa = apply_pivots(&a0, &piv);
            let lu = lu_reconstruct(&a);
            assert_close(&pa, &lu, 1e-10);
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0; // column 1 is all zero
        let r = dgetrf(&mut a, 2);
        assert!(matches!(r, Err(LuError::Singular { .. })));
    }

    #[test]
    fn dlaswp_applies_in_order() {
        let mut a = Matrix::from_fn(3, 1, |i, _| i as f64);
        // Step 0: swap row 0 with row 2 -> [2,1,0];
        // step 1: swap row 1 with row 2 -> [2,0,1].
        dlaswp(&mut a, 0, &[2, 2]);
        assert_eq!(a.col(0), &[2.0, 0.0, 1.0]);
    }

    #[test]
    fn pivoting_bounds_multipliers() {
        // Partial pivoting guarantees |L| <= 1.
        let mut a = hpl_matrix(40, 123);
        dgetrf(&mut a, 8).unwrap();
        for j in 0..40 {
            for i in (j + 1)..40 {
                assert!(a[(i, j)].abs() <= 1.0 + 1e-12, "L[{i},{j}] = {}", a[(i, j)]);
            }
        }
    }
}
