//! Cross-crate integration tests: the full measure → fit → estimate →
//! select pipeline on the simulated paper cluster.
//!
//! Most use trimmed campaigns (fewer sizes / PE counts than the paper's
//! plans); the test at the bottom fits the full NL campaign and checks
//! its selections against the simulated optimum (the whole
//! reproduction runs through `repro all` in `etm-repro`).

use hetero_etm::cluster::spec::paper_cluster;
use hetero_etm::cluster::{CommLibProfile, Configuration, KindId};
use hetero_etm::core::measurement::SampleKey;
use hetero_etm::core::pipeline::{build_estimator, run_construction, Estimator, ModelBank};
use hetero_etm::core::plan::{ConstructionPoint, EvalPoint, MeasurementPlan, PlanKind};
use hetero_etm::hpl::{simulate_hpl, HplParams};

const NB: usize = 64;

/// A fast campaign: Athlon m ∈ 1..3, P-II pes ∈ {1, 2, 4, 8}, m ∈ 1..3
/// (multiplicities must match across kinds so composition has donors).
fn mini_plan(ns: &[usize]) -> MeasurementPlan {
    let mut construction = Vec::new();
    for &n in ns {
        for m1 in 1..=3 {
            construction.push(ConstructionPoint {
                key: SampleKey::new(KindId(0), 1, m1),
                n,
            });
        }
        for &p2 in &[1usize, 2, 4, 8] {
            for m2 in 1..=3 {
                construction.push(ConstructionPoint {
                    key: SampleKey::new(KindId(1), p2, m2),
                    n,
                });
            }
        }
    }
    MeasurementPlan {
        kind: PlanKind::NL,
        construction,
        construction_ns: ns.to_vec(),
        evaluation: Vec::<EvalPoint>::new(),
        evaluation_ns: vec![],
    }
}

#[test]
fn estimator_accurate_in_interpolation_range() {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let plan = mini_plan(&[400, 800, 1600, 2400, 3200]);
    let (est, db) = build_estimator(&spec, &plan, NB).expect("pipeline fits");
    assert!(db.len() >= plan.construction.len());

    // Homogeneous single-PE configs: the N-T models should nail their own
    // training points and interpolate well.
    for (cfg, n) in [
        (Configuration::p1m1_p2m2(1, 1, 0, 0), 1600usize),
        (Configuration::p1m1_p2m2(1, 2, 0, 0), 2000),
        (Configuration::p1m1_p2m2(0, 0, 1, 2), 1200),
    ] {
        let predicted = est.estimate(&cfg, n).expect("estimate");
        let measured = simulate_hpl(&spec, &cfg, &HplParams::order(n).with_nb(NB)).wall_seconds;
        let rel = ((predicted - measured) / measured).abs();
        assert!(
            rel < 0.10,
            "{}: predicted {predicted:.2} vs measured {measured:.2} (rel {rel:.3})",
            cfg.label(&spec)
        );
    }

    // Heterogeneous multi-PE configs through the P-T models: coarser but
    // bounded.
    for (cfg, n) in [
        (Configuration::p1m1_p2m2(1, 1, 4, 1), 2400usize),
        (Configuration::p1m1_p2m2(1, 2, 8, 1), 3200),
        (Configuration::p1m1_p2m2(0, 0, 6, 1), 2400),
    ] {
        let predicted = est.estimate(&cfg, n).expect("estimate");
        let measured = simulate_hpl(&spec, &cfg, &HplParams::order(n).with_nb(NB)).wall_seconds;
        let rel = ((predicted - measured) / measured).abs();
        assert!(
            rel < 0.35,
            "{}: predicted {predicted:.2} vs measured {measured:.2} (rel {rel:.3})",
            cfg.label(&spec)
        );
    }
}

#[test]
fn athlon_models_are_composed_not_measured() {
    // One Athlon -> no P variation -> its P-T models must come from
    // composition (§3.5), and the bank must say so.
    let spec = paper_cluster(CommLibProfile::mpich122());
    let plan = mini_plan(&[400, 800, 1200, 1600]);
    let (est, _) = build_estimator(&spec, &plan, NB).expect("pipeline fits");
    assert!(
        est.bank.composed_kinds.contains(&0),
        "Athlon (kind 0) must be composed: {:?}",
        est.bank.composed_kinds
    );
    assert!(
        !est.bank.composed_kinds.contains(&1),
        "Pentium-II has 8 PEs and must be measured"
    );
    // Composed models exist for every Athlon multiplicity in the plan.
    for m in 1..=3 {
        assert!(
            est.bank.pt.contains_key(&(0, m)),
            "missing composed (0,{m})"
        );
    }
}

#[test]
fn binning_single_pe_uses_nt_model() {
    // For a single-PE configuration the estimate must come from the N-T
    // model: a run measured during construction should be reproduced
    // almost exactly (the N-T fit interpolates its own training data).
    let spec = paper_cluster(CommLibProfile::mpich122());
    let plan = mini_plan(&[400, 800, 1200, 1600]);
    let (est, db) = build_estimator(&spec, &plan, NB).expect("pipeline fits");
    let key = SampleKey::new(KindId(1), 1, 1);
    let sample = db
        .samples(&key)
        .iter()
        .find(|s| s.n == 1200)
        .expect("measured at N=1200");
    let cfg = Configuration::p1m1_p2m2(0, 0, 1, 1);
    let predicted = est.estimate(&cfg, 1200).expect("estimate");
    let rel = ((predicted - sample.wall) / sample.wall).abs();
    // Ta+Tc vs wall differ by scheduling slack only.
    assert!(
        rel < 0.05,
        "NT model should reproduce training point: {rel}"
    );
}

#[test]
fn small_n_models_underestimate_large_n() {
    // The NS failure mode (Table 9): models fit on N <= 1600 grossly
    // underestimate the single-Athlon time at N = 9600 — efficiency keeps
    // rising with N (so the small-N fit's k0 is too small) and the memory
    // cliff at 8N^2 > usable RAM is invisible from the training range.
    let spec = paper_cluster(CommLibProfile::mpich122());
    let plan = mini_plan(&[400, 800, 1200, 1600]);
    let (est, _) = build_estimator(&spec, &plan, NB).expect("pipeline fits");
    let cfg = Configuration::p1m1_p2m2(1, 1, 0, 0);
    let n = 9600;
    let predicted = est.estimate(&cfg, n).expect("estimate");
    let measured = simulate_hpl(&spec, &cfg, &HplParams::order(n).with_nb(NB)).wall_seconds;
    assert!(
        predicted < 0.85 * measured,
        "NS-style extrapolation must underestimate: predicted {predicted:.1} vs measured {measured:.1}"
    );
    // The same model interpolates its own training range fine.
    let small = est.estimate(&cfg, 1200).expect("estimate");
    let small_meas = simulate_hpl(&spec, &cfg, &HplParams::order(1200).with_nb(NB)).wall_seconds;
    assert!(((small - small_meas) / small_meas).abs() < 0.10);
}

#[test]
fn model_bank_fit_is_deterministic() {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let plan = mini_plan(&[400, 800, 1200, 1600]);
    let db = run_construction(&spec, &plan, NB);
    let a = ModelBank::fit(&db).expect("fit");
    let b = ModelBank::fit(&db).expect("fit");
    let cfg = Configuration::p1m1_p2m2(1, 2, 8, 1);
    let ea = Estimator::unadjusted(a).estimate(&cfg, 3200).unwrap();
    let eb = Estimator::unadjusted(b).estimate(&cfg, 3200).unwrap();
    assert_eq!(ea.to_bits(), eb.to_bits());
}

#[test]
fn estimate_errors_are_typed() {
    use hetero_etm::core::pipeline::PipelineError;
    let spec = paper_cluster(CommLibProfile::mpich122());
    let plan = mini_plan(&[400, 800, 1200, 1600]);
    let (est, _) = build_estimator(&spec, &plan, NB).expect("pipeline fits");
    // M1 = 6 was never measured in the mini plan.
    let missing = Configuration::p1m1_p2m2(1, 6, 8, 1);
    match est.estimate(&missing, 3200) {
        Err(PipelineError::MissingPt { kind: 0, m: 6 }) => {}
        other => panic!("expected MissingPt, got {other:?}"),
    }
    let empty = Configuration::p1m1_p2m2(0, 0, 0, 0);
    assert!(matches!(
        est.estimate(&empty, 3200),
        Err(PipelineError::EmptyConfiguration)
    ));
}

/// Full-scale NL campaign (the paper's Table 7): at each N the
/// estimator's pick runs within 20 % of the best evaluated
/// configuration's simulated time.
#[test]
fn full_nl_campaign_selects_near_optimal_configs() {
    use hetero_etm::core::plan::evaluation_configs;
    use hetero_etm::search::exhaustive;
    let spec = paper_cluster(CommLibProfile::mpich122());
    let (est, _) = build_estimator(&spec, &MeasurementPlan::nl(), NB).expect("pipeline");
    let candidates = evaluation_configs();
    for n in [3200usize, 6400, 9600] {
        let best = exhaustive(&candidates, |c| est.estimate(c, n)).expect("estimates");
        let tau_hat =
            simulate_hpl(&spec, &best.config, &HplParams::order(n).with_nb(NB)).wall_seconds;
        let t_hat = candidates
            .iter()
            .map(|c| simulate_hpl(&spec, c, &HplParams::order(n).with_nb(NB)).wall_seconds)
            .fold(f64::INFINITY, f64::min);
        let penalty = (tau_hat - t_hat) / t_hat;
        assert!(
            penalty < 0.20,
            "N={n}: selection penalty {penalty:.3} too large"
        );
    }
}
