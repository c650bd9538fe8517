//! The anytime search prices its leaves from per-size models, not from
//! the bank walk, and bounds the last kind's leaves a run at a time.
//! These tests run it to exhaustion on the Basic snapshot at every `N`
//! in `400..=12000` step 37 — mostly off the evaluation grid, as served
//! queries are — both cold and warm-started from the previous size's
//! optimum, and require that each run
//!
//! * returns the exhaustive §4 selection's configuration and time bits,
//! * covers the 62-configuration grid (`evaluated + pruned == 62`),
//! * reports every incumbent at exactly the walk's estimate of its
//!   configuration, which is what makes model-priced leaves the walk's.
//!
//! With an energy model, each run's time × energy front must equal the
//! brute-force front over the grid bit for bit: every configuration
//! priced by `EngineSnapshot::estimate` in time and, in joules, by the
//! raw split of the bank walk in `crates/core/tests/walk`.
//!
//! The same checks run at fewer sizes on three larger spaces of the
//! paper's kinds (342, 1,350 and 5,382 configurations). The Basic
//! campaign prices their larger process counts by extrapolation, so
//! they test the search's exactness and accounting, never its
//! selection quality.

use etm_cluster::commlib::CommLibProfile;
use etm_cluster::energy::EnergyModel;
use etm_cluster::spec::{paper_cluster, scaled_paper_cluster};
use etm_cluster::Configuration;
use etm_core::plan::MeasurementPlan;
use etm_core::EngineSnapshot;
use etm_repro::experiments::engine_for;
use etm_repro::stream::{evaluation_space, scaled_space};
use etm_search::{anytime_search, best_config, AnytimeOptions, AnytimeReport, ConfigSpace};

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
            check(&snapshot, &space, n, run, report, &brute);
        }
        previous = Some(brute.config);
    }
}

/// The plan's evaluation sizes and a few off the grid.
fn sizes() -> Vec<usize> {
    let mut sizes = MeasurementPlan::basic().evaluation_ns;
    sizes.extend([400, 1111, 5555, 12000]);
    sizes
}

#[test]
fn exhausted_searches_equal_the_sweep_on_larger_spaces() {
    let engine = engine_for(&MeasurementPlan::basic());
    let snapshot = engine.snapshot();
    for (nodes, candidates) in [(4, 342), (16, 1350), (64, 5382)] {
        let space = scaled_space(nodes);
        let mut previous = None;
        for n in sizes() {
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
            assert_eq!(cold.candidates, candidates);
            for (run, report) in [("cold", &cold), ("warm", &warm)] {
                check(&snapshot, &space, n, run, report, &brute);
            }
            check_stops(&snapshot, &space, n, &cold);
            previous = Some(brute.config);
        }
    }
}

fn check(
    snapshot: &EngineSnapshot,
    space: &ConfigSpace,
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
    let candidates = space.enumerate().len();
    assert_eq!(report.candidates, candidates);
    assert_eq!(report.evaluated + report.pruned, candidates, "n={n} {run}");
    assert!(report.exhausted, "n={n} {run}");
    for inc in &report.incumbents {
        let config = space.config_at(inc.index);
        let walked = snapshot.estimate(&config, n).expect("estimable");
        assert_eq!(
            inc.time.to_bits(),
            walked.to_bits(),
            "n={n} {run}: incumbent {config:?} priced off the walk",
        );
    }
}

/// A cold walk stopped by its budget just before an incumbent's
/// evaluation has covered exactly the candidates enumerated before it:
/// whatever a run pruned past the stop is not counted.
fn check_stops(snapshot: &EngineSnapshot, space: &ConfigSpace, n: usize, cold: &AnytimeReport) {
    for inc in &cold.incumbents {
        let budget = inc.evaluations - 1;
        let stopped = anytime_search(
            snapshot,
            space,
            n,
            &AnytimeOptions {
                max_evaluations: Some(budget),
                ..AnytimeOptions::default()
            },
        );
        assert_eq!(stopped.evaluated, budget, "n={n}");
        assert_eq!(
            stopped.evaluated + stopped.pruned,
            inc.index,
            "n={n}: stopped before incumbent {}",
            inc.index
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

#[test]
fn energy_fronts_equal_the_brute_force_front_on_the_342_space() {
    let engine = engine_for(&MeasurementPlan::basic());
    let snapshot = engine.snapshot();
    let space = scaled_space(4);
    let configs = space.enumerate();
    let energy = EnergyModel::from_spec(&scaled_paper_cluster(4, CommLibProfile::mpich122()));
    let mut previous = None;
    for n in sizes() {
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

/// The search shaves a relative `1e-9` off each lower bound before it
/// prunes with it, so a certified range minimum, once shaved, must
/// never sit above the minimum a scan of the range finds: else a
/// candidate tied with the incumbent could be pruned. Checked over
/// every range of process counts the 1,350 space reaches, for every
/// P-T group of the Basic snapshot at each evaluation size.
#[test]
fn shaved_certified_minima_never_exceed_the_scanned_minima() {
    let plan = MeasurementPlan::basic();
    let engine = engine_for(&plan);
    let snapshot = engine.snapshot();
    let p_max = 6 + 32 * 6;
    let mut certified = 0usize;
    for (&(kind, m), pt) in &snapshot.bank().pt {
        for &n in &plan.evaluation_ns {
            let at = pt.at(n);
            for lo in m..=p_max {
                let mut scanned = f64::INFINITY;
                for hi in lo..=p_max {
                    scanned = scanned.min(at.total(hi));
                    let Some(min) = at.certified_min(lo, hi) else {
                        continue;
                    };
                    certified += 1;
                    let shaved = min - min.abs() * 1e-9;
                    assert!(
                        shaved <= scanned,
                        "kind {kind} m {m} n {n} P {lo}..={hi}: certified {min} above scanned {scanned}"
                    );
                }
            }
        }
    }
    assert!(certified > 0, "the Basic models must certify some ranges");
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
