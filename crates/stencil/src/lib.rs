//! # etm-stencil — a second application for the estimation pipeline
//!
//! §5 of the paper: "This study examined one specific application (HPL),
//! but other parallel applications should be also examined. All these
//! tasks must be left to future studies." This crate takes that step: a
//! 2-D Jacobi stencil (5-point heat relaxation) with 1-D row-strip
//! decomposition and halo exchange — the canonical *memory- and
//! latency-bound* counterpoint to HPL's compute-bound LU.
//!
//! Like `etm-hpl` it comes in two flavours, each a rank body handed to
//! an `etm-mpisim` launcher:
//!
//! * [`numeric`] — real arithmetic over the thread-backed message
//!   passing, validated against a serial reference sweep;
//! * [`simulate_stencil`] — calibrated virtual-time execution on the
//!   discrete-event fabric, producing `(Ta, Tc)` samples that feed the
//!   *unchanged* `etm-core` estimation pipeline (the models never ask
//!   what application produced the measurements).
//!
//! The cost structure differs from HPL in exactly the ways that stress
//! the model: computation is O(N²·iters) (so the fitted `k0 ≈ 0`),
//! communication is O(N·iters) per process pair plus a per-iteration
//! all-reduce, and the balance is memory-bandwidth-, not flops-, bound.

pub mod numeric;
mod simulate;

pub use simulate::{simulate_stencil, StencilParams, StencilRun, StencilTimes};
