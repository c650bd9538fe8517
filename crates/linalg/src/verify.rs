//! HPL-style solution verification.
//!
//! HPL accepts a run when the scaled residual
//! `‖Ax − b‖∞ / (ε · (‖A‖∞·‖x‖∞ + ‖b‖∞) · N)` is below a threshold
//! (canonically 16). The same check gates the numeric runs in `etm-hpl`.

use crate::Matrix;

/// Threshold HPL uses to declare a factorization numerically correct.
pub(crate) const HPL_THRESHOLD: f64 = 16.0;

/// The scaled residual of a candidate solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Residual {
    /// `‖Ax − b‖∞`.
    pub(crate) raw: f64,
    /// The HPL scaled residual.
    pub scaled: f64,
}

impl Residual {
    /// Whether the solution passes the HPL acceptance test.
    pub fn passes(&self) -> bool {
        self.scaled < HPL_THRESHOLD
    }
}

/// Computes the HPL residual for `x` as a solution of `A·x = b`.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> Residual {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(x.len(), n);
    assert_eq!(b.len(), n);
    let ax = a.mul_vec(x);
    let raw = ax
        .iter()
        .zip(b)
        .map(|(p, q)| (p - q).abs())
        .fold(0.0, f64::max);
    let norm_a = a.norm_inf();
    let norm_x = x.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let norm_b = b.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let denom = f64::EPSILON * (norm_a * norm_x + norm_b) * (n.max(1) as f64);
    let scaled = if denom == 0.0 {
        if raw == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        raw / denom
    };
    Residual { raw, scaled }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{hpl_matrix, hpl_rhs};
    use crate::solve::dgesv;

    #[test]
    fn exact_solution_passes() {
        let a = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let r = residual(&a, &b, &b);
        assert_eq!(r.raw, 0.0);
        assert!(r.passes());
    }

    #[test]
    fn lu_solution_passes_hpl_test() {
        let n = 60;
        let a = hpl_matrix(n, 5);
        let b = hpl_rhs(n, 5);
        let x = dgesv(&a, &b, 8).unwrap();
        let r = residual(&a, &x, &b);
        assert!(r.passes(), "scaled residual {}", r.scaled);
    }

    #[test]
    fn garbage_solution_fails() {
        let n = 20;
        let a = hpl_matrix(n, 6);
        let b = hpl_rhs(n, 6);
        let junk = vec![1.0; n];
        let r = residual(&a, &junk, &b);
        assert!(!r.passes(), "scaled residual {}", r.scaled);
    }

    #[test]
    fn zero_system_zero_solution() {
        let a = Matrix::zeros(3, 3);
        let r = residual(&a, &[0.0; 3], &[0.0; 3]);
        assert_eq!(r.scaled, 0.0);
        assert!(r.passes());
    }
}
