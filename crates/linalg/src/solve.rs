//! Solving linear systems from LU factors (LAPACK `dgetrs`) and the
//! one-shot driver `dgesv`.

use crate::blas2::{dtrsv, Diagonal, Triangle};
use crate::lu::{dgetrf, LuError};
use crate::Matrix;

/// Solves `A·x = b` given the in-place LU factors and pivot sequence from
/// [`dgetrf`](crate::lu::dgetrf). `b` is overwritten with `x`.
///
/// # Panics
/// Panics on dimension mismatch.
pub(crate) fn dgetrs(factored: &Matrix, pivots: &[usize], b: &mut [f64]) {
    let n = factored.rows();
    assert_eq!(factored.cols(), n);
    assert_eq!(b.len(), n, "rhs length");
    assert_eq!(pivots.len(), n, "pivot length");
    // Apply P to b.
    for (k, &p) in pivots.iter().enumerate() {
        if p != k {
            b.swap(k, p);
        }
    }
    // L·y = P·b (unit lower), then U·x = y.
    dtrsv(Triangle::Lower, Diagonal::Unit, factored, b);
    dtrsv(Triangle::Upper, Diagonal::NonUnit, factored, b);
}

/// One-shot dense solver: factors a copy of `A` (block size `nb`) and
/// solves for `b`, returning `x`.
///
/// # Errors
/// [`LuError::Singular`] if the factorization breaks down.
pub fn dgesv(a: &Matrix, b: &[f64], nb: usize) -> Result<Vec<f64>, LuError> {
    let mut f = a.clone();
    let piv = dgetrf(&mut f, nb)?;
    let mut x = b.to_vec();
    dgetrs(&f, &piv, &mut x);
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{hpl_matrix, hpl_rhs, seeded_vector};

    #[test]
    fn solves_known_system() {
        // [[2,1],[1,3]] x = [5, 10] -> x = [1, 3].
        let a = Matrix::from_col_major(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = dgesv(&a, &[5.0, 10.0], 1).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn residual_small_for_random_systems() {
        for n in [1usize, 2, 10, 50] {
            let a = hpl_matrix(n, n as u64);
            let b = hpl_rhs(n, n as u64);
            let x = dgesv(&a, &b, 8).unwrap();
            let ax = a.mul_vec(&x);
            let resid = ax
                .iter()
                .zip(&b)
                .map(|(p, q)| (p - q).abs())
                .fold(0.0, f64::max);
            assert!(resid < 1e-9 * (n as f64), "n={n}: residual {resid}");
        }
    }

    #[test]
    fn recovers_planted_solution() {
        let n = 30;
        let a = hpl_matrix(n, 77);
        let x_true = seeded_vector(n, 78);
        let b = a.mul_vec(&x_true);
        let x = dgesv(&a, &b, 4).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn singular_system_errors() {
        let a = Matrix::zeros(3, 3);
        assert!(dgesv(&a, &[1.0, 2.0, 3.0], 2).is_err());
    }
}
