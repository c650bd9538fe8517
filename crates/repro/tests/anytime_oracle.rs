//! The anytime search prices its leaves from per-size tables, not from
//! the bank walk. This test runs it to exhaustion on the Basic snapshot
//! at every `N` in `400..=12000` step 37 — mostly off the evaluation
//! grid, as served queries are — both cold and warm-started from the
//! previous size's optimum, and requires that each run
//!
//! * returns the exhaustive §4 selection's configuration and time bits,
//! * covers the 62-configuration grid (`evaluated + pruned == 62`),
//! * reports every incumbent at exactly the walk's estimate of its
//!   configuration, which is what makes table-priced leaves the walk's.
//!
//! With an energy model, each run's time × energy front must equal the
//! brute-force front over the grid bit for bit: every configuration
//! priced by `EngineSnapshot::estimate` in time and, in joules, by the
//! raw split of the bank walk in `crates/core/tests/walk`.

use etm_cluster::commlib::CommLibProfile;
use etm_cluster::energy::EnergyModel;
use etm_cluster::spec::paper_cluster;
use etm_cluster::Configuration;
use etm_core::plan::MeasurementPlan;
use etm_core::EngineSnapshot;
use etm_repro::experiments::engine_for;
use etm_repro::stream::evaluation_space;
use etm_search::{anytime_search, best_config, AnytimeOptions, AnytimeReport};

#[path = "../../core/tests/walk/mod.rs"]
mod walk;

#[test]
fn exhausted_searches_equal_the_sweep_off_the_grid() {
    let engine = engine_for(&MeasurementPlan::basic());
    let snapshot = engine.snapshot();
    let space = evaluation_space();
    let mut previous = None;
    for n in (400..=12000).step_by(37) {
        let brute = best_config(&snapshot, &space, n).expect("the fitted grid is estimable");
        let cold = anytime_search(&snapshot, &space, n, &AnytimeOptions::default());
        let warm = anytime_search(
            &snapshot,
            &space,
            n,
            &AnytimeOptions {
                warm_start: Some(previous.unwrap_or_else(|| brute.config.clone())),
                ..AnytimeOptions::default()
            },
        );
        for (run, report) in [("cold", &cold), ("warm", &warm)] {
            check(&snapshot, n, run, report, &brute);
        }
        previous = Some(brute.config);
    }
}

fn check(
    snapshot: &etm_core::EngineSnapshot,
    n: usize,
    run: &str,
    report: &AnytimeReport,
    brute: &etm_search::SearchResult,
) {
    let best = report.best.as_ref().expect("estimable");
    assert_eq!(best.config, brute.config, "n={n} {run}: argmin");
    assert_eq!(
        best.time.to_bits(),
        brute.time.to_bits(),
        "n={n} {run}: argmin time"
    );
    assert_eq!(report.candidates, 62);
    assert_eq!(report.evaluated + report.pruned, 62, "n={n} {run}");
    assert!(report.exhausted, "n={n} {run}");
    for inc in &report.incumbents {
        let walked = snapshot.estimate(&inc.config, n).expect("estimable");
        assert_eq!(
            inc.time.to_bits(),
            walked.to_bits(),
            "n={n} {run}: incumbent {:?} priced off the walk",
            inc.config
        );
    }
}

#[test]
fn energy_fronts_equal_the_brute_force_front_off_the_grid() {
    let engine = engine_for(&MeasurementPlan::basic());
    let snapshot = engine.snapshot();
    let space = evaluation_space();
    let configs = space.enumerate();
    let energy = EnergyModel::from_spec(&paper_cluster(CommLibProfile::mpich122()));
    let mut previous = None;
    for n in (400..=12000).step_by(37) {
        let brute = brute_front(&snapshot, &configs, &energy, n);
        let opts = |warm_start| AnytimeOptions {
            warm_start,
            energy: Some(energy.clone()),
            ..AnytimeOptions::default()
        };
        let cold = anytime_search(&snapshot, &space, n, &opts(None));
        let warm = anytime_search(&snapshot, &space, n, &opts(previous.take()));
        for (run, report) in [("cold", &cold), ("warm", &warm)] {
            assert!(report.exhausted, "n={n} {run}");
            let front: Vec<_> = report
                .front
                .iter()
                .map(|p| (p.config.clone(), p.time.to_bits(), p.energy.to_bits()))
                .collect();
            assert_eq!(front, brute, "n={n} {run}: front");
        }
        previous = cold.best.map(|b| b.config);
    }
}

/// The non-dominated `(config, time bits, energy bits)` points of
/// `configs` at size `n`, ascending in time, then energy, then
/// enumeration order.
fn brute_front(
    snapshot: &EngineSnapshot,
    configs: &[Configuration],
    energy: &EnergyModel,
    n: usize,
) -> Vec<(Configuration, u64, u64)> {
    let mut points = Vec::new();
    for config in configs {
        let Ok(time) = snapshot.estimate(config, n) else {
            continue;
        };
        let parts = walk::raw_walk(snapshot.bank(), config, n).expect("the raw walk resolves");
        let joules = energy.joules(&config.uses, parts.ta, parts.tc);
        if time.is_finite() && joules.is_finite() {
            points.push((config, time, joules));
        }
    }
    let dominated = |&(_, t, e): &(&Configuration, f64, f64)| {
        points
            .iter()
            .any(|&(_, qt, qe)| qt <= t && qe <= e && (qt < t || qe < e))
    };
    let mut front: Vec<_> = points.iter().filter(|p| !dominated(p)).collect();
    front.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.2.total_cmp(&b.2)));
    front
        .into_iter()
        .map(|&(config, t, e)| (config.clone(), t.to_bits(), e.to_bits()))
        .collect()
}
