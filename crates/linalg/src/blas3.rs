//! BLAS level-3: matrix-matrix operations.
//!
//! `dgemm` dominates HPL's update phase (the paper's `update` item is
//! ~100× `rfact`/`uptrsv` at N = 9600), so it gets two implementations:
//! a naive reference used by tests and a cache-blocked sequential kernel.

use crate::blas2::{Diagonal, Triangle};
use crate::Matrix;

/// Block size for the cache-blocked kernel. 64×64 f64 panels (32 KiB)
/// sit comfortably in L1 on every target this runs on.
const BLOCK: usize = 64;

/// Naive triple-loop `C := alpha·A·B + beta·C`. Reference implementation
/// for correctness tests; O(mnk) with no blocking.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn dgemm_naive(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    check_dims(a, b, c);
    for j in 0..c.cols() {
        for i in 0..c.rows() {
            let mut s = 0.0;
            for k in 0..a.cols() {
                s += a[(i, k)] * b[(k, j)];
            }
            c[(i, j)] = alpha * s + beta * c[(i, j)];
        }
    }
}

fn check_dims(a: &Matrix, b: &Matrix, c: &Matrix) {
    assert_eq!(a.cols(), b.rows(), "dgemm: inner dimensions");
    assert_eq!(c.rows(), a.rows(), "dgemm: C rows");
    assert_eq!(c.cols(), b.cols(), "dgemm: C cols");
}

/// Cache-blocked sequential `C := alpha·A·B + beta·C`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn dgemm(alpha: f64, a: &Matrix, b: &Matrix, beta: f64, c: &mut Matrix) {
    check_dims(a, b, c);
    let (m, n) = (c.rows(), c.cols());
    let kk = a.cols();
    let c = &mut c.as_mut_slice()[..m * n];
    if beta != 1.0 {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }
    // Blocked j-k-i loops: for each k-block, stream A's columns once while
    // updating C's columns (sequence of fused daxpys on contiguous
    // column-major data).
    let mut k0 = 0;
    while k0 < kk {
        let kb = BLOCK.min(kk - k0);
        for j in 0..n {
            let cj = &mut c[j * m..(j + 1) * m];
            for k in k0..k0 + kb {
                let bkj = alpha * b[(k, j)];
                if bkj != 0.0 {
                    let ak = a.col(k);
                    for (ci, &aik) in cj.iter_mut().zip(ak) {
                        *ci += aik * bkj;
                    }
                }
            }
        }
        k0 += kb;
    }
}

/// Solves `A·X = alpha·B` in place (left-side dtrsm): `B` is overwritten
/// by `X`, with `A` an `m × m` triangular matrix and `B` `m × n`.
///
/// # Panics
/// Panics on dimension mismatch or a zero diagonal with
/// [`Diagonal::NonUnit`].
pub fn dtrsm_left(tri: Triangle, diag: Diagonal, alpha: f64, a: &Matrix, b: &mut Matrix) {
    let m = a.rows();
    assert_eq!(a.cols(), m, "dtrsm: A must be square");
    assert_eq!(b.rows(), m, "dtrsm: B rows");
    let n = b.cols();
    for j in 0..n {
        let col = b.col_mut(j);
        if alpha != 1.0 {
            for v in col.iter_mut() {
                *v *= alpha;
            }
        }
        match tri {
            Triangle::Lower => {
                for k in 0..m {
                    let x = match diag {
                        Diagonal::Unit => col[k],
                        Diagonal::NonUnit => {
                            let d = a[(k, k)];
                            assert!(d != 0.0, "dtrsm: zero diagonal at {k}");
                            col[k] / d
                        }
                    };
                    col[k] = x;
                    if x != 0.0 {
                        for i in (k + 1)..m {
                            col[i] -= a[(i, k)] * x;
                        }
                    }
                }
            }
            Triangle::Upper => {
                for k in (0..m).rev() {
                    let x = match diag {
                        Diagonal::Unit => col[k],
                        Diagonal::NonUnit => {
                            let d = a[(k, k)];
                            assert!(d != 0.0, "dtrsm: zero diagonal at {k}");
                            col[k] / d
                        }
                    };
                    col[k] = x;
                    if x != 0.0 {
                        for i in 0..k {
                            col[i] -= a[(i, k)] * x;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::seeded_matrix;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for j in 0..a.cols() {
            for i in 0..a.rows() {
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() < tol,
                    "mismatch at ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn blocked_matches_naive() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 3),
            (64, 64, 64),
            (100, 33, 70),
        ] {
            let a = seeded_matrix(m, k, 1);
            let b = seeded_matrix(k, n, 2);
            let mut c1 = seeded_matrix(m, n, 3);
            let mut c2 = c1.clone();
            dgemm_naive(1.3, &a, &b, 0.7, &mut c1);
            dgemm(1.3, &a, &b, 0.7, &mut c2);
            assert_close(&c1, &c2, 1e-10 * (k as f64));
        }
    }

    #[test]
    fn gemm_identity_is_noop() {
        let a = seeded_matrix(6, 6, 7);
        let id = Matrix::identity(6);
        let mut c = Matrix::zeros(6, 6);
        dgemm(1.0, &a, &id, 0.0, &mut c);
        assert_close(&a, &c, 1e-14);
    }

    #[test]
    fn dtrsm_lower_unit_inverts_multiplication() {
        // X random, L lower-unit: B := L·X, then dtrsm must recover X.
        let m = 12;
        let n = 5;
        let mut l = seeded_matrix(m, m, 8);
        for j in 0..m {
            for i in 0..j {
                l[(i, j)] = 0.0;
            }
            l[(j, j)] = 1.0;
        }
        let x = seeded_matrix(m, n, 9);
        let mut b = Matrix::zeros(m, n);
        dgemm(1.0, &l, &x, 0.0, &mut b);
        dtrsm_left(Triangle::Lower, Diagonal::Unit, 1.0, &l, &mut b);
        assert_close(&x, &b, 1e-9);
    }

    #[test]
    fn dtrsm_upper_nonunit_inverts_multiplication() {
        let m = 10;
        let n = 4;
        let mut u = seeded_matrix(m, m, 10);
        for j in 0..m {
            for i in (j + 1)..m {
                u[(i, j)] = 0.0;
            }
            u[(j, j)] = 3.0 + j as f64; // well away from zero
        }
        let x = seeded_matrix(m, n, 11);
        let mut b = Matrix::zeros(m, n);
        dgemm(1.0, &u, &x, 0.0, &mut b);
        dtrsm_left(Triangle::Upper, Diagonal::NonUnit, 1.0, &u, &mut b);
        assert_close(&x, &b, 1e-9);
    }

    #[test]
    fn dtrsm_alpha_scales_rhs() {
        let id = Matrix::identity(3);
        let mut b = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let expect = Matrix::from_fn(3, 2, |i, j| 2.0 * (i + j) as f64);
        dtrsm_left(Triangle::Lower, Diagonal::NonUnit, 2.0, &id, &mut b);
        assert_close(&expect, &b, 1e-14);
    }

    #[test]
    fn empty_dimensions_are_fine() {
        let a = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 0);
        let mut c = Matrix::zeros(0, 0);
        dgemm(1.0, &a, &b, 0.0, &mut c);
    }
}
