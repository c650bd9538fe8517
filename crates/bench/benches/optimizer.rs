//! Optimizer paths over the paper's §4 evaluation grid (62
//! configurations) on one pinned snapshot of the fitted Basic
//! campaign, at the plan's largest evaluation size:
//!
//! * `exhaustive_best_config` — the exhaustive sweep (the §4
//!   baseline every pruned run is audited against), enumeration
//!   included;
//! * `sweep_62` — the same sweep over configurations enumerated once,
//!   outside the timed closure: the 62 estimates and their argmin
//!   alone, the same-run baseline the anytime rows are read against;
//! * `anytime_cold` — branch-and-bound to exhaustion, no warm start
//!   (bit-identical argmin, strictly fewer estimates);
//! * `anytime_warm` — the same search seeded with its own optimum,
//!   the steady-state re-optimization cost after a snapshot refresh;
//! * `anytime_energy_front` — the energy-priced run that also emits
//!   the time×energy Pareto front;
//! * `front_extract` — non-dominated filtering alone over the
//!   pre-estimated full grid (the pure selection cost, no model
//!   walks).

use etm_bench::Runner;
use etm_cluster::commlib::CommLibProfile;
use etm_cluster::energy::EnergyModel;
use etm_cluster::spec::paper_cluster;
use etm_cluster::Configuration;
use etm_core::plan::MeasurementPlan;
use etm_repro::experiments::engine_for;
use etm_repro::stream::evaluation_space;
use etm_search::{
    anytime_search, best_config, exhaustive, pareto_front_of, snapshot_objective, AnytimeOptions,
};

fn main() {
    let mut r = Runner::new("optimizer");
    let plan = MeasurementPlan::basic();
    let engine = engine_for(&plan);
    let snapshot = engine.snapshot();
    let space = evaluation_space();
    let n = *plan
        .evaluation_ns
        .iter()
        .max()
        .expect("plans have evaluation sizes");
    let energy = EnergyModel::from_spec(&paper_cluster(CommLibProfile::mpich122()));

    r.bench("optimizer/exhaustive_best_config", || {
        best_config(&snapshot, &space, n)
    });

    let configs = space.enumerate();
    r.bench("optimizer/sweep_62", || {
        exhaustive(&configs, snapshot_objective(&snapshot, n))
    });

    r.bench("optimizer/anytime_cold", || {
        anytime_search(&snapshot, &space, n, &AnytimeOptions::default())
    });

    let warm = anytime_search(&snapshot, &space, n, &AnytimeOptions::default())
        .best
        .expect("the fitted grid is estimable")
        .config;
    r.bench("optimizer/anytime_warm", || {
        anytime_search(
            &snapshot,
            &space,
            n,
            &AnytimeOptions {
                warm_start: Some(warm.clone()),
                ..AnytimeOptions::default()
            },
        )
    });

    r.bench("optimizer/anytime_energy_front", || {
        anytime_search(
            &snapshot,
            &space,
            n,
            &AnytimeOptions {
                energy: Some(energy.clone()),
                ..AnytimeOptions::default()
            },
        )
    });

    // Pre-estimate the whole grid once so `front_extract` times only
    // the non-dominated filtering.
    let points: Vec<(Configuration, f64, f64)> = space
        .enumerate()
        .into_iter()
        .filter_map(|cfg| {
            let t = snapshot.estimate(&cfg, n).ok()?;
            let parts = snapshot.estimator().estimate_raw_parts(&cfg, n).ok()?;
            let e = energy.joules(&cfg.uses, parts.ta, parts.tc);
            (t.is_finite() && e.is_finite()).then_some((cfg, t, e))
        })
        .collect();
    r.bench("optimizer/front_extract", || pareto_front_of(&points));

    r.finish();
}
