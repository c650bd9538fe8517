//! # hetero-etm
//!
//! Execution-time estimation and configuration optimization for
//! heterogeneous clusters — a full reproduction of Kishimoto & Ichikawa,
//! *"An Execution-Time Estimation Model for Heterogeneous Clusters"*,
//! IPDPS 2004.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`sim`] — deterministic discrete-event simulation engine.
//! * [`cluster`] — heterogeneous cluster description and cost models.
//! * [`mpisim`] — MPI-like message passing (thread and simulated backends).
//! * [`linalg`] — dense linear algebra substrate (BLAS/LAPACK subset).
//! * [`hpl`] — High-Performance-Linpack analogue with detailed phase timing.
//! * [`lsq`] — linear least-squares fitting (GSL `gsl_multifit_linear` analogue).
//! * [`core`] — the paper's contribution: N-T / P-T models, binning,
//!   composition, adjustment, estimation pipeline.
//! * [`search`] — configuration-space optimizers (exhaustive + exact anytime search).
//! * [`stencil`] — a second application (2-D Jacobi) proving the pipeline
//!   is application-agnostic (the paper's §5 future work).
//!
//! See the `examples/` directory for runnable scenarios and `DESIGN.md`
//! for the system inventory and per-experiment index.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use etm_cluster as cluster;
pub use etm_core as core;
pub use etm_hpl as hpl;
pub use etm_linalg as linalg;
pub use etm_lsq as lsq;
pub use etm_mpisim as mpisim;
pub use etm_search as search;
pub use etm_sim as sim;
pub use etm_stencil as stencil;
pub use etm_support as support;
