//! # etm-core — the execution-time estimation model
//!
//! The paper's contribution, reproduced in full:
//!
//! * [`NtModel`] (§3.2) — per configuration `(P, Mᵢ)`, computation time
//!   `Ta(N) = k0·N³ + k1·N² + k2·N + k3` and communication time
//!   `Tc(N) = k4·N² + k5·N + k6`, fit by linear least squares from
//!   measured runs (`gsl_multifit_linear` analogue in `etm-lsq`).
//! * [`PtModel`] (§3.3) — per `(kind, Mᵢ)`, N-T models across several `P`
//!   integrated into `Ta(N,P) = k7·TaRef(N)/P + k8` and
//!   `Tc(N,P) = k9·P·TcRef(N) + k10·TcRef(N)/P + k11`.
//! * **Binning** (§3.4) — [`pipeline::Estimator`] selects the N-T model
//!   when the configuration runs on a single PE (`P = Mᵢ`, no inter-PE
//!   communication) and the P-T model otherwise.
//! * **Model composition** (§3.5) — [`compose`] derives a PE kind's P-T
//!   model by scaling another kind's (the paper scales Pentium-II models
//!   by 0.27 / 0.85 to get Athlon models, having only one Athlon).
//! * **Adjustment** (§4.1) — [`adjust`] fits the provisional linear
//!   transformation at a reference configuration and applies it to
//!   estimates with `M₁ ≥ 3`.
//! * [`plan`] — the measurement campaigns of Tables 2, 5 and 8 (Basic,
//!   NL, NS) and the 62-configuration evaluation grid.
//! * [`pipeline`] — end-to-end: run the simulated measurements, fit every
//!   model, build the [`pipeline::Estimator`], pick the best configuration.
//! * [`grid`] — [`grid::KeyGrid`], the dense key-slot table behind the
//!   measurement database, the model bank and the P-T design memo.
//! * [`backend`] — the fitting seam: [`backend::ModelBackend`],
//!   implemented by the paper's pipeline as [`backend::PolyLsqBackend`]
//!   (tests substitute fakes through the trait).
//! * [`engine`] — the serving layer: immutable [`EngineSnapshot`]s behind
//!   `Arc`s, atomically swapped on refit, with incremental ingestion
//!   that refits only groups whose sample bits changed
//!   ([`engine::Engine::ingest`]).
//! * [`stream`] — streaming ingestion: [`stream::replay`] renders a
//!   campaign as timestamped [`stream::TrialBatch`]es (shuffled,
//!   duplicated, out-of-order on demand) and one in-process drain loop
//!   ([`stream::consume`]) feeds a slice of them through
//!   [`engine::Engine::ingest_batch`], publishing one snapshot per effective
//!   batch.
//! * [`faults`] — deterministic fault injection for the streaming
//!   layer: a seeded [`faults::FaultPlan`] corrupts, drops, truncates,
//!   or floods a replayed stream, and the engine's
//!   quarantine ladder ([`engine::QuarantinePolicy`],
//!   [`engine::EngineHealth`]) degrades to §3.5 composed fallbacks
//!   instead of crashing.
//! * `loopback` — the execution side of the predict → execute →
//!   learn loop: a seeded [`ExecutionFaultPlan`] crashes,
//!   straggles, degrades, loses, or poisons closed-loop executions of
//!   recommended configurations, and a per-configuration
//!   [`CircuitBreaker`] holds failing or flapping
//!   configurations out of the decision stream.
//! * [`validate`] — the model-validity audit: registered invariant
//!   checks (finite coefficients, non-negative predictions, basis
//!   conditioning) that `cargo xtask check` runs over a fitted bank.

pub mod adjust;
pub mod backend;
pub mod compose;
pub mod engine;
pub mod faults;
pub mod grid;
mod loopback;
pub mod measurement;
pub mod ntmodel;
pub mod pipeline;
pub mod plan;
pub mod ptmodel;
pub mod report;
pub mod stream;
pub mod validate;

pub use engine::EngineSnapshot;
pub use loopback::{
    config_key, BreakerPolicy, CircuitBreaker, ConfigKey, ExecutedStep, ExecutionError,
    ExecutionFaultLog, ExecutionFaultPlan, RetryPolicy, StepExecutor,
};
pub use measurement::{MeasurementDb, Sample, SampleKey};
pub use ntmodel::NtModel;
pub use pipeline::{EstimateTerms, ProcessCounts};
pub use plan::MeasurementPlan;
pub use ptmodel::{PtAt, PtModel};
