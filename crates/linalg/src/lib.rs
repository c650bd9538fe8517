//! # etm-linalg — dense linear algebra substrate
//!
//! A from-scratch, column-major BLAS/LAPACK subset standing in for the
//! ATLAS library the paper links HPL against. It provides exactly what a
//! right-looking, partially-pivoted LU factorization needs:
//!
//! * [`Matrix`] — column-major dense storage (BLAS convention);
//! * BLAS-1: `idamax`, the pivot search;
//! * BLAS-2 ([`blas2`]): `dgemv`, `dtrsv`;
//! * BLAS-3 ([`blas3`]): `dgemm` (blocked; `par_dgemm` splits it over
//!   `etm_support::pool`) and `dtrsm`;
//! * LAPACK-style LU ([`lu`]): `dgetf2`, blocked `dgetrf` and `dlaswp`,
//!   and solvers ([`solve`]): `dgetrs`;
//! * HPL-style verification ([`verify`]): the scaled residual
//!   `‖Ax − b‖∞ / (ε · ‖A‖₁ · N)` accept test;
//! * deterministic matrix generators ([`gen`]).
//!
//! The numeric HPL in `etm-hpl` runs real factorizations on top of this
//! crate, which is how the reproduction validates that the *algorithm*
//! whose execution time is being modelled is the genuine article.

mod blas1;
pub mod blas2;
pub mod blas3;
pub mod gen;
pub mod lu;
mod matrix;
pub mod solve;
pub mod verify;

pub use matrix::Matrix;
