//! # etm-lsq — linear least squares
//!
//! The paper extracts every model coefficient (`k0`–`k11`) with GSL's
//! `gsl_multifit_linear()`. This crate is the from-scratch Rust analogue:
//! one in-place Householder-QR kernel over fixed-width rows (one row per
//! observation, one column per regressor). [`FactoredDesign`] factors a
//! design once and solves it against any number of observation vectors;
//! [`lstsq`] is that factorization with a single solve, and
//! [`condition_estimate`] is what the model-validity audit reads from the
//! same factorization.
//!
//! ## Example: recovering `Tc(N) = k4·N² + k5·N + k6`
//!
//! ```
//! use etm_lsq::lstsq;
//!
//! let ns = [400.0, 800.0, 1200.0, 1600.0f64];
//! // Ground truth: k4 = 2e-7, k5 = 3e-4, k6 = 0.05.
//! let mut ys: Vec<f64> = ns.iter().map(|n| 2e-7 * n * n + 3e-4 * n + 0.05).collect();
//! let mut rows: Vec<[f64; 3]> = ns.iter().map(|&n| [n * n, n, 1.0]).collect();
//! let k = lstsq(&mut rows, &mut ys).unwrap();
//! assert!((k[0] - 2e-7).abs() < 1e-12);
//! assert!((k[1] - 3e-4).abs() < 1e-9);
//! assert!((k[2] - 0.05).abs() < 1e-6);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod multifit;
mod qr;

pub use multifit::{lstsq, FactoredDesign, LsqError};
pub use qr::condition_estimate;
