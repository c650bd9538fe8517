//! BLAS level-2: matrix-vector operations.

use crate::Matrix;

/// `y := alpha·A·x + beta·y` (no-transpose dgemv).
///
/// # Panics
/// Panics on dimension mismatch.
pub fn dgemv(alpha: f64, a: &Matrix, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), a.cols(), "dgemv: x length");
    assert_eq!(y.len(), a.rows(), "dgemv: y length");
    if beta != 1.0 {
        for v in y.iter_mut() {
            *v *= beta;
        }
    }
    for (j, &xj) in x.iter().enumerate() {
        let ax = alpha * xj;
        if ax != 0.0 {
            for (yi, &aij) in y.iter_mut().zip(a.col(j)) {
                *yi += aij * ax;
            }
        }
    }
}

/// Which triangle of the coefficient matrix participates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Triangle {
    /// Lower triangular.
    Lower,
    /// Upper triangular.
    Upper,
}

/// Whether the triangular matrix has an implicit unit diagonal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Diagonal {
    /// Use the stored diagonal entries.
    NonUnit,
    /// Assume ones on the diagonal (LU's `L` factor).
    Unit,
}

/// Solves the triangular system `A·x = b` in place (`b` becomes `x`),
/// no-transpose dtrsv.
///
/// # Panics
/// Panics if `A` is not square, on length mismatch, or (for
/// [`Diagonal::NonUnit`]) on an exactly zero diagonal entry.
pub fn dtrsv(tri: Triangle, diag: Diagonal, a: &Matrix, b: &mut [f64]) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "dtrsv: matrix must be square");
    assert_eq!(b.len(), n, "dtrsv: rhs length");
    match tri {
        Triangle::Lower => {
            for i in 0..n {
                let mut s = b[i];
                for k in 0..i {
                    s -= a[(i, k)] * b[k];
                }
                b[i] = match diag {
                    Diagonal::Unit => s,
                    Diagonal::NonUnit => {
                        let d = a[(i, i)];
                        assert!(d != 0.0, "dtrsv: zero diagonal at {i}");
                        s / d
                    }
                };
            }
        }
        Triangle::Upper => {
            for i in (0..n).rev() {
                let mut s = b[i];
                for k in (i + 1)..n {
                    s -= a[(i, k)] * b[k];
                }
                b[i] = match diag {
                    Diagonal::Unit => s,
                    Diagonal::NonUnit => {
                        let d = a[(i, i)];
                        assert!(d != 0.0, "dtrsv: zero diagonal at {i}");
                        s / d
                    }
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgemv_matches_manual() {
        // A = [[1,2],[3,4]], x = [5,6]: A·x = [17, 39].
        let a = Matrix::from_col_major(2, 2, vec![1.0, 3.0, 2.0, 4.0]);
        let mut y = vec![1.0, 1.0];
        dgemv(1.0, &a, &[5.0, 6.0], 0.0, &mut y);
        assert_eq!(y, vec![17.0, 39.0]);
        // With alpha=2, beta=1 accumulating into previous y.
        let mut y2 = vec![1.0, 1.0];
        dgemv(2.0, &a, &[5.0, 6.0], 1.0, &mut y2);
        assert_eq!(y2, vec![35.0, 79.0]);
    }

    #[test]
    fn dtrsv_lower_unit() {
        // L = [[1,0],[2,1]] (unit diag), b = [3, 8] -> x = [3, 2].
        let l = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 0.0, 1.0]);
        let mut b = vec![3.0, 8.0];
        dtrsv(Triangle::Lower, Diagonal::Unit, &l, &mut b);
        assert_eq!(b, vec![3.0, 2.0]);
    }

    #[test]
    fn dtrsv_upper_nonunit() {
        // U = [[2,1],[0,4]], b = [6, 8] -> x = [2, 2].
        let u = Matrix::from_col_major(2, 2, vec![2.0, 0.0, 1.0, 4.0]);
        let mut b = vec![6.0, 8.0];
        dtrsv(Triangle::Upper, Diagonal::NonUnit, &u, &mut b);
        assert_eq!(b, vec![2.0, 2.0]);
    }

    #[test]
    fn dtrsv_solves_random_triangular_system() {
        // Construct L with dominant diagonal, check L·x = b round trip.
        let n = 8;
        let l = Matrix::from_fn(n, n, |i, j| {
            if j > i {
                0.0
            } else if i == j {
                4.0 + i as f64
            } else {
                ((i * 7 + j * 3) % 5) as f64 / 5.0
            }
        });
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let mut b = l.mul_vec(&x_true);
        dtrsv(Triangle::Lower, Diagonal::NonUnit, &l, &mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "zero diagonal")]
    fn dtrsv_rejects_singular_nonunit() {
        let u = Matrix::zeros(2, 2);
        let mut b = vec![1.0, 1.0];
        dtrsv(Triangle::Upper, Diagonal::NonUnit, &u, &mut b);
    }
}
