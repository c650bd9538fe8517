//! # etm-lsq — linear least squares
//!
//! The paper extracts every model coefficient (`k0`–`k11`) with GSL's
//! `gsl_multifit_linear()`. This crate is the from-scratch Rust analogue:
//! a dense [`DesignMatrix`], Householder-QR factorization, the
//! [`multifit_linear`] driver with goodness-of-fit statistics, polynomial
//! convenience fits, and the 1-D [`LinearTransform`] used by the paper's
//! §4.1 estimation adjustment.
//!
//! ## Example: recovering `Tc(N) = k4·N² + k5·N + k6`
//!
//! ```
//! use etm_lsq::{DesignMatrix, multifit_linear};
//!
//! let ns = [400.0, 800.0, 1200.0, 1600.0f64];
//! // Ground truth: k4 = 2e-7, k5 = 3e-4, k6 = 0.05.
//! let ys: Vec<f64> = ns.iter().map(|n| 2e-7 * n * n + 3e-4 * n + 0.05).collect();
//! let x = DesignMatrix::from_rows(&ns.map(|n| vec![n * n, n, 1.0]));
//! let fit = multifit_linear(&x, &ys).unwrap();
//! assert!((fit.coeffs[0] - 2e-7).abs() < 1e-12);
//! assert!((fit.coeffs[1] - 3e-4).abs() < 1e-9);
//! assert!((fit.coeffs[2] - 0.05).abs() < 1e-6);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod design;
mod multifit;
mod poly;
mod qr;
mod stats;
mod transform;

pub use design::DesignMatrix;
pub use multifit::{multifit_linear, multifit_linear_ridge, LinearFit, LsqError};
pub use poly::{eval_poly, fit_poly, PolyFit};
pub use qr::{condition_estimate, QrFactors};
pub use stats::{mean, r_squared, rmse};
pub use transform::LinearTransform;
