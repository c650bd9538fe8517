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

use etm_core::plan::MeasurementPlan;
use etm_repro::experiments::engine_for;
use etm_repro::stream::evaluation_space;
use etm_search::{anytime_search, best_config, AnytimeOptions, AnytimeReport};

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
