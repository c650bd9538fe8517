//! The adjusted estimate folds the raw estimate and its §4.1 `M₁ = 1`
//! baseline in one walk over the configuration's uses. This test keeps
//! the two-walk formula it replaced — clone the configuration, dial the
//! fast kind back to one process per PE, walk the bank again — as an
//! oracle, and requires bit-identical results (and identical errors)
//! over the paper's whole evaluation space on the Basic snapshot. Both
//! walks are the bank walk of `crates/core/tests/walk`, so the oracle
//! does not call the fold it checks.

use etm_cluster::{Configuration, KindId};
use etm_core::pipeline::{Estimator, PipelineError};
use etm_core::plan::MeasurementPlan;
use etm_repro::experiments::estimator_for;
use etm_repro::stream::evaluation_space;

#[path = "../../core/tests/walk/mod.rs"]
mod walk;

/// The adjusted estimate as two walks: the raw estimate, then the raw
/// estimate of the `M₁ = 1` configuration, falling back to the raw one
/// when the bank cannot serve it.
fn two_walk(est: &Estimator, config: &Configuration, n: usize) -> Result<f64, PipelineError> {
    let raw = walk::raw_walk(&est.bank, config, n)?.total;
    if config.is_single_pe() {
        return Ok(raw);
    }
    let m1 = config.procs_per_pe(KindId(est.fast_kind));
    if m1 < est.adjustment.min_m1 {
        return Ok(raw);
    }
    let mut base = config.clone();
    for u in &mut base.uses {
        if u.kind.0 == est.fast_kind && u.pes > 0 {
            u.procs_per_pe = 1;
        }
    }
    let baseline = walk::raw_walk(&est.bank, &base, n).map_or(raw, |b| b.total);
    Ok(est.adjustment.apply(m1, raw, baseline))
}

/// Compares the one-walk estimate with the oracle on every configuration
/// of the evaluation space at every `ns`; returns how many estimates
/// were adjusted and how many failed.
fn assert_matches_oracle(est: &Estimator, ns: &[usize]) -> (usize, usize) {
    let (mut adjusted, mut failed) = (0, 0);
    for config in evaluation_space().enumerate() {
        for &n in ns {
            let got = est.estimate(&config, n);
            let want = two_walk(est, &config, n);
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(g.to_bits(), w.to_bits(), "{config:?} at N={n}");
                    let raw = walk::raw_walk(&est.bank, &config, n)
                        .expect("raw resolves")
                        .total;
                    adjusted += usize::from(g.to_bits() != raw.to_bits());
                }
                _ => {
                    assert_eq!(got, want, "{config:?} at N={n}");
                    failed += 1;
                }
            }
        }
    }
    (adjusted, failed)
}

#[test]
fn one_walk_adjusted_estimate_matches_the_two_walk_oracle() {
    let plan = MeasurementPlan::basic();
    let est = estimator_for(&plan);
    assert!(est.adjustment.min_m1 <= 6, "the Basic rule adjusts M1 >= 3");
    let mut ns: Vec<usize> = plan.construction_ns.clone();
    ns.extend(&plan.evaluation_ns);
    // Off the measured grid, below, between and above it.
    ns.extend([300, 1000, 2900, 5000, 9000, 12_800]);
    let (adjusted, failed) = assert_matches_oracle(&est, &ns);
    assert!(adjusted > 0, "some estimates must take the adjusted path");
    assert_eq!(failed, 0, "the Basic bank serves the whole space");

    // Without the fast kind's M = 1 group, every baseline of a
    // configuration using the fast kind is unresolvable and falls back
    // to the raw estimate; configurations at M1 = 1 fail outright.
    let mut pruned = est.clone();
    let fast_m1 = (pruned.fast_kind, 1);
    assert!(pruned.bank.pt.remove(&fast_m1).is_some());
    let (_, failed) = assert_matches_oracle(&pruned, &ns);
    assert!(failed > 0, "configurations at M1 = 1 lose their model");
}
