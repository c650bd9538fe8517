//! The paper's §5 future work, executed: the estimation pipeline is
//! application-agnostic. Here the *same* `etm-core` machinery (N-T / P-T
//! models, binning, composition) is fit to measurements of a completely
//! different application — the memory-bound 2-D Jacobi stencil — and its
//! predictions are checked against the simulator.

use hetero_etm::cluster::spec::paper_cluster;
use hetero_etm::cluster::{CommLibProfile, Configuration, KindId, KindUse};
use hetero_etm::core::measurement::{MeasurementDb, Sample, SampleKey};
use hetero_etm::core::pipeline::{Estimator, ModelBank};
use hetero_etm::stencil::{simulate_stencil, StencilParams};

fn stencil_sample(spec: &hetero_etm::cluster::ClusterSpec, key: SampleKey, n: usize) -> Sample {
    let cfg = Configuration {
        uses: vec![KindUse {
            kind: key.kind_id(),
            pes: key.pes,
            procs_per_pe: key.m,
        }],
    };
    let run = simulate_stencil(spec, &cfg, &StencilParams::side(n));
    Sample {
        n,
        ta: run.ta_of_kind(key.kind_id()).expect("kind ran"),
        tc: run.tc_of_kind(key.kind_id()).expect("kind ran"),
        wall: run.wall_seconds,
        multi_node: run.nodes_used > 1,
    }
}

fn stencil_db(spec: &hetero_etm::cluster::ClusterSpec, ns: &[usize]) -> MeasurementDb {
    let mut db = MeasurementDb::new();
    for &n in ns {
        for m1 in 1..=2usize {
            let key = SampleKey::new(KindId(0), 1, m1);
            db.record(key, stencil_sample(spec, key, n));
        }
        for &p2 in &[1usize, 2, 4, 8] {
            for m2 in 1..=2usize {
                let key = SampleKey::new(KindId(1), p2, m2);
                db.record(key, stencil_sample(spec, key, n));
            }
        }
    }
    db
}

#[test]
fn pipeline_fits_and_predicts_a_different_application() {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let db = stencil_db(&spec, &[256, 512, 768, 1024]);
    let bank = ModelBank::fit(&db).expect("fit on stencil data");
    let est = Estimator::unadjusted(bank);

    // The fitted Ta is ~quadratic-in-N per iteration with iters ∝ N:
    // cubic overall — but the model never needed to know that; check
    // predictions against fresh simulated runs.
    for (cfg, n) in [
        (Configuration::p1m1_p2m2(0, 0, 1, 1), 640usize), // single PE, NT bin
        (Configuration::p1m1_p2m2(0, 0, 6, 1), 768),      // multi-PE, PT bin
        (Configuration::p1m1_p2m2(1, 1, 4, 1), 512),      // heterogeneous
    ] {
        let predicted = est.estimate(&cfg, n).expect("estimate");
        let run = simulate_stencil(&spec, &cfg, &StencilParams::side(n));
        let rel = ((predicted - run.wall_seconds) / run.wall_seconds).abs();
        assert!(
            rel < 0.40,
            "{}: predicted {predicted:.2} vs measured {:.2} (rel {rel:.3})",
            cfg.label(&spec),
            run.wall_seconds
        );
    }
}

#[test]
fn stencil_models_know_communication_is_latency_bound() {
    // For the stencil, adding PEs eventually stops helping: the fitted
    // models must reproduce the measured optimum's neighbourhood.
    let spec = paper_cluster(CommLibProfile::mpich122());
    let db = stencil_db(&spec, &[256, 512, 768, 1024]);
    let est = Estimator::unadjusted(ModelBank::fit(&db).expect("fit"));
    let n = 512;
    let best_est = (1..=8usize)
        .min_by(|&a, &b| {
            let ta = est
                .estimate(&Configuration::p1m1_p2m2(0, 0, a, 1), n)
                .unwrap();
            let tb = est
                .estimate(&Configuration::p1m1_p2m2(0, 0, b, 1), n)
                .unwrap();
            ta.total_cmp(&tb)
        })
        .unwrap();
    let best_meas = (1..=8usize)
        .min_by(|&a, &b| {
            let ta = simulate_stencil(
                &spec,
                &Configuration::p1m1_p2m2(0, 0, a, 1),
                &StencilParams::side(n),
            )
            .wall_seconds;
            let tb = simulate_stencil(
                &spec,
                &Configuration::p1m1_p2m2(0, 0, b, 1),
                &StencilParams::side(n),
            )
            .wall_seconds;
            ta.total_cmp(&tb)
        })
        .unwrap();
    assert!(
        (best_est as i64 - best_meas as i64).abs() <= 2,
        "estimated optimum P={best_est} vs measured P={best_meas}"
    );
}
