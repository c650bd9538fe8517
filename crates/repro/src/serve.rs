//! The serving-layer experiment: predictions/sec of one snapshot's
//! serving paths, gated on bit-identity with the model walk.
//!
//! [`serve_experiment`] pins one snapshot of a fitted campaign engine
//! and measures two ways of serving the §4 evaluation grid
//! (62 configurations × the plan's evaluation sizes):
//!
//! * **scalar** — the `ModelBank` walk
//!   ([`EngineSnapshot::estimate`](etm_core::engine::EngineSnapshot::estimate)),
//!   one request at a time;
//! * **batched** —
//!   [`EngineSnapshot::estimate_batch`](etm_core::engine::EngineSnapshot::estimate_batch),
//!   the whole grid per call (a loop over the same walk).
//!
//! Before any clock starts, every request is served through both paths
//! and compared *bitwise* (errors compared structurally): a single
//! mismatch fails the experiment.

use std::time::Instant;

use etm_cluster::Configuration;
use etm_core::plan::MeasurementPlan;

use crate::experiments::engine_for;
use crate::stream::evaluation_space;

/// Outcome of [`serve_experiment`]: the bit-identity audit and the
/// measured serving rates.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Configurations on the evaluation grid.
    pub configs: usize,
    /// Problem sizes per configuration.
    pub sizes: usize,
    /// Total requests per sweep (`configs × sizes`).
    pub requests: usize,
    /// Requests the model can estimate (the rest error identically on
    /// every path).
    pub estimable: usize,
    /// Requests where any path disagreed with the model walk.
    pub mismatches: usize,
    /// Scalar predictions per second, single-threaded.
    pub scalar_per_sec: f64,
    /// Batched predictions per second, single-threaded.
    pub batched_per_sec: f64,
}

impl ServeReport {
    /// Single-threaded speedup of the batched path over the scalar
    /// walk.
    pub fn speedup(&self) -> f64 {
        self.batched_per_sec / self.scalar_per_sec
    }

    /// Whether every request agreed bit-for-bit across both paths.
    pub fn bit_identical(&self) -> bool {
        self.mismatches == 0
    }
}

/// Runs each timed section for at least `window_s` wall-clock seconds.
fn throughput(window_s: f64, mut sweep: impl FnMut() -> usize) -> f64 {
    // One untimed sweep warms caches and pays lazy initialization.
    sweep();
    let start = Instant::now();
    let mut served = 0usize;
    loop {
        served += sweep();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= window_s {
            return served as f64 / elapsed;
        }
    }
}

/// Audits bit-identity of the scalar and batched paths on one pinned
/// snapshot and measures predictions/sec of each serving mode; each
/// timed section runs for about `window_s` seconds.
pub fn serve_experiment(plan: &MeasurementPlan, window_s: f64) -> ServeReport {
    let engine = engine_for(plan);
    let snapshot = engine.snapshot();
    let configs = evaluation_space().enumerate();
    let ns = plan.evaluation_ns.clone();
    let requests: Vec<(Configuration, usize)> = configs
        .iter()
        .flat_map(|c| ns.iter().map(move |&n| (c.clone(), n)))
        .collect();

    // The gate: every request through both paths, compared bitwise
    // before anything is timed.
    let batched = snapshot.estimate_batch(&requests);
    let mut estimable = 0usize;
    let mut mismatches = 0usize;
    for ((config, n), b) in requests.iter().zip(&batched) {
        let walked = snapshot.estimate(config, *n);
        let agree = match (&walked, b) {
            (Ok(x), Ok(y)) => {
                estimable += 1;
                x.to_bits() == y.to_bits()
            }
            _ => walked == *b,
        };
        if !agree {
            mismatches += 1;
        }
    }

    let scalar_per_sec = throughput(window_s, || {
        for (config, n) in &requests {
            let _ = std::hint::black_box(snapshot.estimate(config, *n));
        }
        requests.len()
    });
    let batched_per_sec = throughput(window_s, || {
        std::hint::black_box(snapshot.estimate_batch(&requests)).len()
    });

    ServeReport {
        configs: configs.len(),
        sizes: ns.len(),
        requests: requests.len(),
        estimable,
        mismatches,
        scalar_per_sec,
        batched_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short window keeps the test cheap; the audit itself is
    /// window-independent.
    #[test]
    fn serve_experiment_is_bit_identical_on_the_paper_grid() {
        let report = serve_experiment(&MeasurementPlan::basic(), 0.02);
        assert_eq!(report.configs, 62);
        assert!(report.sizes > 0);
        assert_eq!(report.requests, report.configs * report.sizes);
        assert!(report.estimable > 0, "the fitted grid must be estimable");
        assert!(report.bit_identical(), "{} mismatches", report.mismatches);
        assert!(report.scalar_per_sec > 0.0);
        assert!(report.batched_per_sec > 0.0);
    }
}
