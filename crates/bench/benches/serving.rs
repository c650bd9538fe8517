//! Serving-layer throughput: one pinned snapshot of the fitted Basic
//! campaign queried over the paper's §4 evaluation grid (62
//! configurations × the plan's evaluation sizes = 310 requests per
//! sweep) through the `ModelBank` walk, one request at a time
//! (`scalar_sweep`).

use etm_bench::Runner;
use etm_cluster::Configuration;
use etm_core::plan::MeasurementPlan;
use etm_repro::experiments::engine_for;
use etm_repro::stream::evaluation_space;

fn main() {
    let mut r = Runner::new("serving");
    let plan = MeasurementPlan::basic();
    let engine = engine_for(&plan);
    let snapshot = engine.snapshot();
    let configs = evaluation_space().enumerate();
    let ns = plan.evaluation_ns.clone();
    let requests: Vec<(Configuration, usize)> = configs
        .iter()
        .flat_map(|c| ns.iter().map(move |&n| (c.clone(), n)))
        .collect();

    r.bench("serving/scalar_sweep", || {
        let mut worst = 0.0f64;
        for (config, n) in &requests {
            if let Ok(t) = snapshot.estimate(config, *n) {
                worst = worst.max(t);
            }
        }
        worst
    });

    r.finish();
}
