//! # etm-hpl — the High-Performance Linpack analogue
//!
//! HPL solves a dense `N × N` system by right-looking LU factorization
//! with partial pivoting over a block-cyclic process grid. The paper runs
//! it unmodified on a heterogeneous cluster with a **1 × P grid** (1-D
//! block-cyclic column distribution) and models its execution time from
//! the detailed timing breakdown of Fig. 4:
//!
//! ```text
//! total ┬ rfact  ┬ pfact   (panel factorization, compute)
//!       │        └ mxswp   (pivot bookkeeping, O(1) comm)
//!       ├ update ┬ laswp   (row interchanges, comm)
//!       │        └ dtrsm+dgemm (trailing-matrix compute)
//!       ├ uptrsv           (backward substitution)
//!       └ bcast            (panel broadcast, comm)
//! ```
//!
//! Both halves of the reproduction run one rank program,
//! [`rank::hpl_rank`], generic over the communicator and over the work
//! each phase does:
//!
//! * [`numeric`] — a *real* distributed LU over
//!   [`ThreadComm`](etm_mpisim::ThreadComm): every rank owns its
//!   block-cyclic columns, panels are genuinely factored, broadcast and
//!   applied, and the solution is verified with HPL's scaled residual.
//! * [`simulate`] — the same body against the discrete-event fabric
//!   ([`SimComm`](etm_mpisim::SimComm)): arithmetic is replaced by
//!   calibrated virtual-time charges ([`PerfModel`](etm_cluster::PerfModel)),
//!   messages carry byte counts, and each rank accumulates per-phase
//!   times exactly as `-DHPL_DETAILED_TIMING` does. This is the paper's
//!   *measurement apparatus*, producing the `(N, P, Mᵢ) → (Ta, Tc)`
//!   samples the estimation models are fit to.
//!
//! `tests/send_sequence.rs` checks that the two send the same
//! `(peer, tag, bytes)` sequence from every rank. Two extensions change
//! only what each timed rank does: [`simulate_hpl_weighted`] deals the
//! columns in proportion to PE speed (the related work's rewritten HPL),
//! and [`simulate_hpl_grid`] runs its own rank body on an `R × C` process
//! grid. Every
//! numeric run goes through [`run_thread_ranks`](etm_mpisim::run_thread_ranks)
//! and every timed run through [`run_sim_ranks`](etm_mpisim::run_sim_ranks),
//! which spawn the ranks; this crate supplies only the rank bodies.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod grid2d;
pub mod numeric;
mod params;
mod phases;
pub mod rank;
pub mod simulate;
mod weighted;

pub use dist::{BlockCyclic, ColumnAssignment, WeightedDist};
pub use grid2d::{simulate_hpl_grid, GridShape};
pub use params::{BcastAlgo, HplParams};
pub use phases::PhaseTimes;
pub use simulate::{simulate_hpl, simulate_hpl_perturbed, ExecutionPerturbation, SimulatedRun};
pub use weighted::simulate_hpl_weighted;
