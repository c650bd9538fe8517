//! The least-squares driver — the `gsl_multifit_linear` analogue — and
//! its error type.

use std::borrow::BorrowMut;
use std::fmt;

use crate::qr::{apply_qt, factor};

/// Errors from least-squares fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsqError {
    /// Fewer observations than coefficients: the system is underdetermined.
    Underdetermined {
        /// Number of observations supplied.
        rows: usize,
        /// Number of coefficients requested.
        cols: usize,
    },
    /// Numerically collinear regressors: `R[j][j] ≈ 0` at this column.
    RankDeficient {
        /// Index of the offending column.
        column: usize,
    },
    /// Observation vector length does not match the design matrix.
    DimensionMismatch {
        /// Expected number of observations (design-matrix rows).
        expected: usize,
        /// Provided observation count.
        got: usize,
    },
}

impl fmt::Display for LsqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LsqError::Underdetermined { rows, cols } => write!(
                f,
                "underdetermined least-squares problem: {rows} observations for {cols} coefficients"
            ),
            LsqError::RankDeficient { column } => {
                write!(f, "rank-deficient design matrix at column {column}")
            }
            LsqError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} observations, got {got}")
            }
        }
    }
}

impl std::error::Error for LsqError {}

/// Fits `y ≈ X·c` by ordinary least squares, one observation per row of
/// `rows` and one regressor per column — the analogue of GSL's
/// `gsl_multifit_linear(X, y, c, …)` minus the covariance and χ².
///
/// Both arguments are scratch: `rows` is overwritten with the QR factors
/// and `y` with `Qᵀy`. This is [`FactoredDesign::factor`] followed by one
/// [`FactoredDesign::solve`].
///
/// # Errors
/// In this order: [`LsqError::DimensionMismatch`] when `y` and `rows`
/// differ in length; [`LsqError::Underdetermined`] with fewer rows than
/// columns; [`LsqError::RankDeficient`] when a diagonal entry of `R` is
/// numerically zero (collinear regressors), reporting the last such
/// column.
pub fn lstsq<const C: usize>(rows: &mut [[f64; C]], y: &mut [f64]) -> Result<[f64; C], LsqError> {
    if y.len() != rows.len() {
        return Err(LsqError::DimensionMismatch {
            expected: rows.len(),
            got: y.len(),
        });
    }
    FactoredDesign::factor(rows)?.solve(y)
}

/// A design matrix factored once, to be solved against any number of
/// observation vectors: fits that share their regressors (every N-T
/// model measured at the same problem sizes) pay for one Householder
/// factorization between them.
///
/// `R` is the row storage the factors overwrite — `&mut [[f64; C]]` to
/// factor the caller's rows in place, `Vec<[f64; C]>` to own them. A
/// solve reads the factors and nothing else, so every solve returns
/// bit for bit what [`lstsq`] returns on a fresh copy of the rows.
#[derive(Clone, Debug)]
pub struct FactoredDesign<R, const C: usize> {
    rows: R,
    tau: [f64; C],
    /// Rank tolerance: a diagonal entry of `R` at or below it counts as
    /// numerically zero.
    tol: f64,
}

impl<R: BorrowMut<[[f64; C]]>, const C: usize> FactoredDesign<R, C> {
    /// Factors `rows` (one observation per row) in place and sets the
    /// rank tolerance from the resulting `R`.
    ///
    /// # Errors
    /// [`LsqError::Underdetermined`] with fewer rows than columns. A
    /// rank-deficient design factors; each solve reports it.
    pub fn factor(mut rows: R) -> Result<Self, LsqError> {
        let m = rows.borrow().len();
        if m < C {
            return Err(LsqError::Underdetermined { rows: m, cols: C });
        }
        let tau = factor(rows.borrow_mut());
        let r = rows.borrow();
        // Relative rank tolerance in the spirit of LAPACK: based on the
        // largest diagonal magnitude.
        let rmax = (0..C).map(|j| r[j][j].abs()).fold(0.0_f64, f64::max);
        let tol = rmax * (m.max(C) as f64) * f64::EPSILON;
        Ok(FactoredDesign { rows, tau, tol })
    }

    /// Solves the factored design against `y` (scratch: overwritten with
    /// `Qᵀy`).
    ///
    /// # Errors
    /// In this order: [`LsqError::DimensionMismatch`] when `y` does not
    /// have one entry per row; [`LsqError::RankDeficient`] at the last
    /// numerically zero diagonal entry of `R`.
    pub fn solve(&self, y: &mut [f64]) -> Result<[f64; C], LsqError> {
        let rows = self.rows.borrow();
        if y.len() != rows.len() {
            return Err(LsqError::DimensionMismatch {
                expected: rows.len(),
                got: y.len(),
            });
        }
        apply_qt(rows, &self.tau, y);
        let mut c = [0.0; C];
        for j in (0..C).rev() {
            let rjj = rows[j][j];
            if rjj.abs() <= self.tol {
                return Err(LsqError::RankDeficient { column: j });
            }
            let mut s = y[j];
            for k in (j + 1)..C {
                s -= rows[j][k] * c[k];
            }
            c[j] = s / rjj;
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    /// `row · c` for every row.
    fn predict<const C: usize>(rows: &[[f64; C]], c: &[f64; C]) -> Vec<f64> {
        rows.iter()
            .map(|r| r.iter().zip(c).map(|(x, k)| x * k).sum())
            .collect()
    }

    /// Coefficient of determination `1 − SS_res / SS_tot`.
    fn r_squared(y: &[f64], pred: &[f64]) -> f64 {
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        let ss_tot: f64 = y.iter().map(|v| (v - mean) * (v - mean)).sum();
        let ss_res: f64 = y.iter().zip(pred).map(|(v, p)| (v - p) * (v - p)).sum();
        1.0 - ss_res / ss_tot
    }

    #[test]
    fn perfect_fit_has_unit_r_squared() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let rows: Vec<[f64; 2]> = xs.iter().map(|&x| [x, 1.0]).collect();
        let y: Vec<f64> = xs.iter().map(|&x| 2.0 * x - 1.0).collect();
        let c = lstsq(&mut rows.clone(), &mut y.clone()).unwrap();
        let pred = predict(&rows, &c);
        let residual_ss: f64 = y.iter().zip(&pred).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!(r_squared(&y, &pred) > 1.0 - 1e-12);
        assert!(residual_ss < 1e-20);
        assert_eq!(y.len() - c.len(), 2);
    }

    #[test]
    fn noisy_fit_recovers_coefficients_approximately() {
        // Deterministic pseudo-noise, amplitude << signal.
        let xs: Vec<f64> = (1..40).map(|i| i as f64).collect();
        let rows: Vec<[f64; 2]> = xs.iter().map(|&x| [x, 1.0]).collect();
        let y: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 5.0 * x + 2.0 + 0.01 * ((i * 2654435761) % 100) as f64 / 100.0)
            .collect();
        let c = lstsq(&mut rows.clone(), &mut y.clone()).unwrap();
        assert!((c[0] - 5.0).abs() < 1e-3);
        assert!((c[1] - 2.0).abs() < 2e-2);
        assert!(r_squared(&y, &predict(&rows, &c)) > 0.999);
    }

    #[test]
    fn dimension_mismatch_detected() {
        assert!(matches!(
            lstsq(&mut [[1.0], [2.0]], &mut [1.0]),
            Err(LsqError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn error_display_is_informative() {
        let e = LsqError::Underdetermined { rows: 2, cols: 5 };
        assert!(e.to_string().contains("underdetermined"));
        let e = LsqError::RankDeficient { column: 3 };
        assert!(e.to_string().contains("column 3"));
    }
}
