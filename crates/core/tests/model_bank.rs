//! Integration tests of the model bank on synthetic measurement
//! databases with known ground truth (no simulator in the loop, so the
//! model machinery is tested in isolation).

use etm_cluster::{Configuration, KindId};
use etm_core::adjust::AdjustmentRule;
use etm_core::measurement::{MeasurementDb, Sample, SampleKey};
use etm_core::pipeline::{Estimator, ModelBank, PipelineError};

/// Synthetic ground truth: kind 0 is 4x faster than kind 1; both follow
/// Ta = W(N)/(P·rate), Tc = c9·P·N² + c10·N²/P (+ tiny constant).
fn truth(kind: usize, n: usize, p: usize, m: usize) -> (f64, f64) {
    let x = n as f64;
    let rate = if kind == 0 { 1.0e9 } else { 0.25e9 };
    let w = 2.0 * x * x * x / 3.0;
    let mp = 1.0 + 0.05 * (m as f64 - 1.0);
    let ta = w / (p as f64 * rate) * mp * m as f64;
    let tc = 2e-10 * p as f64 * x * x + 5e-10 * x * x / p as f64 + 0.005;
    (ta, tc)
}

fn synthetic_db() -> MeasurementDb {
    let mut db = MeasurementDb::new();
    for &n in &[800usize, 1600, 3200, 6400] {
        // Kind 0: one PE, m in 1..4.
        for m in 1..=4usize {
            let key = SampleKey::new(KindId(0), 1, m);
            let (ta, tc) = truth(0, n, m, m);
            db.record(
                key,
                Sample {
                    n,
                    ta,
                    tc,
                    wall: ta + tc,
                    multi_node: false,
                },
            );
        }
        // Kind 1: pes in {1, 2, 4, 8}, m in 1..4.
        for &pes in &[1usize, 2, 4, 8] {
            for m in 1..=4usize {
                let key = SampleKey::new(KindId(1), pes, m);
                let p = pes * m;
                let (ta, tc) = truth(1, n, p, m);
                db.record(
                    key,
                    Sample {
                        n,
                        ta,
                        tc,
                        wall: ta + tc,
                        multi_node: pes > 2,
                    },
                );
            }
        }
    }
    db
}

#[test]
fn bank_fits_every_family() {
    let bank = ModelBank::fit(&synthetic_db()).expect("fit");
    // N-T models: 4 (kind 0) + 16 (kind 1) configurations.
    assert_eq!(bank.nt.len(), 20);
    // P-T models: kind 1 measured at 4 multiplicities; kind 0 composed.
    for m in 1..=4 {
        assert!(bank.pt.contains_key(&(1, m)), "missing measured (1,{m})");
        assert!(bank.pt.contains_key(&(0, m)), "missing composed (0,{m})");
    }
    assert_eq!(bank.composed_kinds, vec![0]);
}

#[test]
fn measured_pt_model_predicts_ground_truth() {
    let bank = ModelBank::fit(&synthetic_db()).expect("fit");
    let pt = &bank.pt[&(1, 1)];
    // Interpolation (P=6) and extrapolation (P=12) against ground truth.
    for (n, p) in [(3200usize, 6usize), (6400, 12), (9600, 10)] {
        let (ta, tc) = truth(1, n, p, 1);
        let rel_a = (pt.ta(n, p) - ta).abs() / ta;
        let rel_c = (pt.tc(n, p) - tc).abs() / tc.max(1e-9);
        assert!(rel_a < 0.05, "Ta N={n} P={p}: rel {rel_a}");
        assert!(rel_c < 0.15, "Tc N={n} P={p}: rel {rel_c}");
    }
}

#[test]
fn estimator_binning_selects_nt_for_single_pe() {
    let bank = ModelBank::fit(&synthetic_db()).expect("fit");
    let est = Estimator::unadjusted(bank);
    // Single-PE kind 1 with m=2 at a training size: must match the
    // recorded sample almost exactly (N-T interpolation).
    let (ta, tc) = truth(1, 3200, 2, 2);
    let got = est
        .estimate(&Configuration::p1m1_p2m2(0, 0, 1, 2), 3200)
        .expect("estimate");
    let want = ta + tc;
    assert!(
        ((got - want) / want).abs() < 1e-6,
        "single-PE binning: {got} vs {want}"
    );
}

#[test]
fn estimator_takes_slowest_kind() {
    let bank = ModelBank::fit(&synthetic_db()).expect("fit");
    let est = Estimator::unadjusted(bank);
    let hetero = Configuration::p1m1_p2m2(1, 1, 8, 1);
    let n = 3200;
    let total = est.estimate(&hetero, n).expect("estimate");
    let p = hetero.total_processes();
    let pt0 = &est.bank.pt[&(0, 1)];
    let pt1 = &est.bank.pt[&(1, 1)];
    let expected = pt0.total(n, p).max(pt1.total(n, p));
    assert!((total - expected).abs() < 1e-9);
}

#[test]
fn missing_multiplicity_reports_error() {
    let bank = ModelBank::fit(&synthetic_db()).expect("fit");
    let est = Estimator::unadjusted(bank);
    let cfg = Configuration::p1m1_p2m2(1, 6, 8, 1); // m=6 never measured
    assert!(matches!(
        est.estimate(&cfg, 3200),
        Err(PipelineError::MissingPt { kind: 0, m: 6 })
    ));
}

#[test]
fn adjustment_gates_on_multiplicity_and_multi_pe() {
    let bank = ModelBank::fit(&synthetic_db()).expect("fit");
    let mut est = Estimator::unadjusted(bank);
    est.adjustment = AdjustmentRule {
        min_m1: 3,
        scale: 0.5,
        base_coeff: 0.0,
    };
    let n = 3200;
    // Multi-PE with m1 = 3: adjusted (halved).
    let cfg3 = Configuration::p1m1_p2m2(1, 3, 8, 1);
    let raw3 = est.estimate_raw(&cfg3, n).unwrap();
    let adj3 = est.estimate(&cfg3, n).unwrap();
    assert!(adj3 < 0.9 * raw3, "adjustment must fire: {adj3} vs {raw3}");
    // Multi-PE with m1 = 2: untouched.
    let cfg2 = Configuration::p1m1_p2m2(1, 2, 8, 1);
    assert_eq!(
        est.estimate(&cfg2, n).unwrap(),
        est.estimate_raw(&cfg2, n).unwrap()
    );
    // Single-PE with m1 = 4: untouched (no communication to correct).
    let cfg_single = Configuration::p1m1_p2m2(1, 4, 0, 0);
    assert_eq!(
        est.estimate(&cfg_single, n).unwrap(),
        est.estimate_raw(&cfg_single, n).unwrap()
    );
}
