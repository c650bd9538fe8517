//! The paper's §4 speed claims, measured directly:
//!
//! * model construction "takes as little as 0.69 ms" (Basic, 54
//!   configurations) / "0.52 ms" (NL, 30 configurations);
//! * estimating all 62 evaluation configurations takes "35 ms" / "26.4
//!   ms" (on a 2003 AthlonXP 2600+; our numbers land far below on modern
//!   hardware, which preserves the claim's point: estimation is ~10⁶×
//!   cheaper than measurement).

use etm_bench::{black_box, Runner};
use etm_core::adjust::AdjustmentRule;
use etm_core::measurement::{MeasurementDb, Sample, SampleKey};
use etm_core::ntmodel::NtModel;
use etm_core::pipeline::{Estimator, ModelBank};
use etm_core::plan::evaluation_configs;
use etm_lsq::lstsq;

/// A synthetic but realistically-shaped measurement database with the
/// paper's full Basic grid (54 configurations × 9 sizes).
fn synthetic_db(sizes: &[usize], p2s: &[usize]) -> MeasurementDb {
    let mut db = MeasurementDb::new();
    let mut put = |key: SampleKey, n: usize| {
        let x = n as f64;
        let p = key.total_p() as f64;
        let speed = if key.kind == 0 { 1.2e9 } else { 0.25e9 };
        let ta = (2.0 * x * x * x / 3.0) / p / speed * (1.0 + 0.05 * (key.m as f64 - 1.0));
        let tc = 1e-9 * p * x * x + 5e-9 * x * x / p + 0.01;
        db.record(
            key,
            Sample {
                n,
                ta,
                tc,
                wall: ta + tc,
                multi_node: key.pes > 2 || key.kind == 0 && key.pes > 1,
            },
        );
    };
    for &n in sizes {
        for m1 in 1..=6 {
            put(SampleKey::new(etm_cluster::KindId(0), 1, m1), n);
        }
        for &p2 in p2s {
            for m2 in 1..=6 {
                put(SampleKey::new(etm_cluster::KindId(1), p2, m2), n);
            }
        }
    }
    db
}

fn model_construction_speed(r: &mut Runner) {
    // Basic: 9 sizes × 8 P2 values; NL/NS: 4 × 4.
    for (name, sizes, p2s) in [
        (
            "basic_54_configs",
            vec![400usize, 600, 800, 1200, 1600, 2400, 3200, 4800, 6400],
            vec![1usize, 2, 3, 4, 5, 6, 7, 8],
        ),
        (
            "nl_30_configs",
            vec![1600usize, 3200, 4800, 6400],
            vec![1usize, 2, 4, 8],
        ),
    ] {
        let db = synthetic_db(&sizes, &p2s);
        r.bench(&format!("model_construction_speed/{name}"), || {
            black_box(ModelBank::fit(&db).expect("fit"))
        });
    }
}

fn estimation_speed_62_configs(r: &mut Runner) {
    let db = synthetic_db(&[1600, 3200, 4800, 6400], &[1, 2, 4, 8]);
    let bank = ModelBank::fit(&db).expect("fit");
    let mut estimator = Estimator::unadjusted(bank);
    estimator.adjustment = AdjustmentRule {
        min_m1: 3,
        scale: 0.9,
        base_coeff: 0.05,
    };
    let configs = evaluation_configs();
    r.bench("estimation_speed_62_configs", || {
        let mut best = f64::INFINITY;
        for cfg in &configs {
            if let Ok(t) = estimator.estimate(cfg, black_box(6400)) {
                best = best.min(t);
            }
        }
        black_box(best)
    });
}

/// The engine's headline trade: a full-bank refit vs an incremental
/// ingest that dirties a single `(kind, m)` group of the Basic-sized
/// grid, timed as a same-run pair. The claim is a ≥3× win for ingest.
fn engine_refit_speed(r: &mut Runner) {
    use etm_core::backend::PolyLsqBackend;
    use etm_core::engine::Engine;

    let sizes = [400usize, 600, 800, 1200, 1600, 2400, 3200, 4800, 6400];
    let p2s = [1usize, 2, 3, 4, 5, 6, 7, 8];
    let db = synthetic_db(&sizes, &p2s);
    let key = SampleKey::new(etm_cluster::KindId(1), 4, 2);
    let base = db.samples(&key)[0];

    let full = Engine::new(Box::new(PolyLsqBackend::paper()), db.clone(), None).expect("fit");
    let engine = Engine::new(Box::new(PolyLsqBackend::paper()), db, None).expect("fit");
    let mut round = 0u64;
    r.pair(
        "engine_refit/ingest_single_group",
        "engine_refit/full_bank",
        || {
            // Nudge the sample every call so its bits always change and
            // every iteration pays for a real refit.
            round += 1;
            let mut s = base;
            s.ta *= 1.0 + 1e-9 * round as f64;
            black_box(engine.ingest(&[(key, s)]).expect("refit"))
        },
        || black_box(full.refit_full().expect("refit")),
        Some(INGEST_OVER_FULL),
    );
}

fn lsq_kernels(r: &mut Runner) {
    // The N-T fit: 9 observations, 4 + 3 coefficients.
    let samples: Vec<Sample> = [400usize, 600, 800, 1200, 1600, 2400, 3200, 4800, 6400]
        .iter()
        .map(|&n| {
            let x = n as f64;
            let ta = 1e-9 * x * x * x + 0.3;
            let tc = 1e-8 * x * x + 0.05;
            Sample {
                n,
                ta,
                tc,
                wall: ta + tc,
                multi_node: true,
            }
        })
        .collect();
    r.bench("lsq_kernels/nt_fit_9x4", || {
        black_box(NtModel::fit(&samples).expect("fit"))
    });
    // The P-T fit: 36 observations, 3 coefficients.
    let rows: Vec<[f64; 3]> = (0..36)
        .map(|i| {
            let p = 1.0 + (i % 6) as f64;
            let c0 = 1.0 + (i / 6) as f64;
            [p * c0, c0 / p, 1.0]
        })
        .collect();
    let yc: Vec<f64> = rows
        .iter()
        .map(|r| 0.2 * r[0] + 0.4 * r[1] + 0.05)
        .collect();
    r.bench("lsq_kernels/pt_fit_36x3", || {
        black_box(lstsq(&mut rows.clone(), &mut yc.clone()).expect("fit"))
    });
    // The §4.1 adjustment fit: 4 reference points against a constant
    // M₁ = 1 baseline.
    let est = [150.0, 210.0, 270.0, 330.0];
    let base = [100.0; 4];
    let meas = [107.0, 104.0, 105.0, 127.0];
    r.bench("lsq_kernels/adjustment_fit_4pts", || {
        black_box(AdjustmentRule::fit(3, &est, &base, &meas).expect("fit"))
    });
}

fn single_prediction_speed(r: &mut Runner) {
    let nt = NtModel {
        ka: [1e-9, 2e-7, 1e-4, 0.3],
        kc: [1e-8, 1e-5, 0.05],
    };
    r.bench("single_prediction/nt_total", || {
        black_box(nt.total(black_box(6400)))
    });
}

/// Bound on `engine_refit/ingest_single_group /
/// engine_refit/full_bank`, tighter than the ≥3× claim (1/3): the
/// median of the per-sample ratios measured 0.135–0.179 over 34 runs
/// pinned to one CPU and 34 unpinned on a shared 2-vCPU host, so 0.22
/// passes every run and fails a 2× slowdown of the ingest (≥ 0.270).
const INGEST_OVER_FULL: f64 = 0.22;

fn main() {
    let mut r = Runner::new("model_speed");
    model_construction_speed(&mut r);
    estimation_speed_62_configs(&mut r);
    engine_refit_speed(&mut r);
    lsq_kernels(&mut r);
    single_prediction_speed(&mut r);
    r.finish();
}
