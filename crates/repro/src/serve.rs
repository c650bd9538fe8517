//! The serving-layer experiment: predictions/sec of one snapshot's
//! model walk.
//!
//! [`serve_experiment`] pins one snapshot of a fitted campaign engine
//! and serves the §4 evaluation grid (62 configurations × the plan's
//! evaluation sizes) through the `ModelBank` walk
//! ([`EngineSnapshot::estimate`](etm_core::engine::EngineSnapshot::estimate)),
//! one request at a time.

use std::time::Instant;

use etm_cluster::Configuration;
use etm_core::plan::MeasurementPlan;

use crate::experiments::engine_for;
use crate::stream::evaluation_space;

/// Outcome of [`serve_experiment`]: the grid's shape and the measured
/// serving rate.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Configurations on the evaluation grid.
    pub configs: usize,
    /// Problem sizes per configuration.
    pub sizes: usize,
    /// Total requests per sweep (`configs × sizes`).
    pub requests: usize,
    /// Requests the model can estimate (the rest return an error).
    pub estimable: usize,
    /// Scalar predictions per second, single-threaded.
    pub scalar_per_sec: f64,
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

/// Measures predictions/sec of the model walk on one pinned snapshot
/// over the evaluation grid; the timed section runs for about
/// `window_s` seconds.
pub fn serve_experiment(plan: &MeasurementPlan, window_s: f64) -> ServeReport {
    let engine = engine_for(plan);
    let snapshot = engine.snapshot();
    let configs = evaluation_space().enumerate();
    let ns = plan.evaluation_ns.clone();
    let requests: Vec<(Configuration, usize)> = configs
        .iter()
        .flat_map(|c| ns.iter().map(move |&n| (c.clone(), n)))
        .collect();
    let estimable = requests
        .iter()
        .filter(|(config, n)| snapshot.estimate(config, *n).is_ok())
        .count();
    let scalar_per_sec = throughput(window_s, || {
        for (config, n) in &requests {
            let _ = std::hint::black_box(snapshot.estimate(config, *n));
        }
        requests.len()
    });
    ServeReport {
        configs: configs.len(),
        sizes: ns.len(),
        requests: requests.len(),
        estimable,
        scalar_per_sec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short window keeps the test cheap.
    #[test]
    fn serve_experiment_measures_the_paper_grid() {
        let report = serve_experiment(&MeasurementPlan::basic(), 0.02);
        assert_eq!(report.configs, 62);
        assert!(report.sizes > 0);
        assert_eq!(report.requests, report.configs * report.sizes);
        assert!(report.estimable > 0, "the fitted grid must be estimable");
        assert!(report.scalar_per_sec > 0.0);
    }
}
