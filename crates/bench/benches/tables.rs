//! Benchmarks regenerating the paper's *tables*: the measurement
//! campaigns behind Tables 3/6 and the model-evaluation pipelines behind
//! Tables 4/7/9, on trimmed parameter grids (a single construction size /
//! evaluation point per iteration) so the full run stays in minutes.
//! `repro all` regenerates the full-size tables.

use etm_bench::{black_box, Runner};
use etm_cluster::spec::paper_cluster;
use etm_cluster::{CommLibProfile, Configuration, KindId};
use etm_core::measurement::{MeasurementDb, SampleKey};
use etm_core::pipeline::{run_construction, sample_from_run, Estimator, ModelBank};
use etm_core::plan::{ConstructionPoint, EvalPoint, MeasurementPlan, PlanKind};
use etm_hpl::{simulate_hpl, HplParams};
use etm_search::exhaustive;

/// A one-size slice of a campaign: the unit of Table 3/6 cost.
fn mini_plan(ns: &[usize]) -> MeasurementPlan {
    let mut construction = Vec::new();
    for &n in ns {
        for m1 in 1..=2 {
            construction.push(ConstructionPoint {
                key: SampleKey::new(KindId(0), 1, m1),
                n,
            });
        }
        for &p2 in &[1usize, 4, 8] {
            construction.push(ConstructionPoint {
                key: SampleKey::new(KindId(1), p2, 1),
                n,
            });
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

fn table3_measurement_campaign(r: &mut Runner) {
    let spec = paper_cluster(CommLibProfile::mpich122());
    for &n in &[400usize, 1200] {
        let plan = mini_plan(&[n]);
        r.bench(&format!("table3_measurement_campaign/{n}"), || {
            black_box(run_construction(&spec, &plan, 64).total_cost())
        });
    }
}

fn build_db(ns: &[usize]) -> MeasurementDb {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let mut db = MeasurementDb::new();
    for &n in ns {
        for m1 in 1..=3usize {
            let key = SampleKey::new(KindId(0), 1, m1);
            let cfg = Configuration::p1m1_p2m2(1, m1, 0, 0);
            let run = simulate_hpl(&spec, &cfg, &HplParams::order(n));
            db.record(key, sample_from_run(&run, KindId(0), n));
        }
        // Multiplicities must match the Athlon's so §3.5 composition has
        // donors.
        for &p2 in &[1usize, 2, 4, 8] {
            for m2 in 1..=3usize {
                let key = SampleKey::new(KindId(1), p2, m2);
                let cfg = Configuration::p1m1_p2m2(0, 0, p2, m2);
                let run = simulate_hpl(&spec, &cfg, &HplParams::order(n));
                db.record(key, sample_from_run(&run, KindId(1), n));
            }
        }
    }
    db
}

/// Tables 4/7/9 pipeline: fit models from a pre-measured database and
/// select the best configuration — the decision-making half of the
/// paper, separated from measurement cost.
fn table479_fit_and_select(r: &mut Runner) {
    // Basic-like (large grid) and NS-like (small grid).
    for (name, ns) in [
        ("nl_like", vec![1600usize, 3200, 4800, 6400]),
        ("ns_like", vec![400usize, 800, 1200, 1600]),
    ] {
        let db = build_db(&ns);
        r.bench(&format!("table479_fit_and_select/fit_bank/{name}"), || {
            black_box(ModelBank::fit(&db).expect("fit"))
        });
        let bank = ModelBank::fit(&db).expect("fit");
        let estimator = Estimator::unadjusted(bank);
        let candidates: Vec<Configuration> = (1..=3)
            .flat_map(|m1| {
                (0..=8).map(move |p2| Configuration::p1m1_p2m2(1, m1, p2, usize::from(p2 > 0)))
            })
            .collect();
        r.bench(
            &format!("table479_fit_and_select/select_best/{name}"),
            || {
                black_box(
                    exhaustive(&candidates, |cfg| estimator.estimate(cfg, 6400))
                        .expect("estimates"),
                )
            },
        );
    }
}

/// The ground-truthing step of Tables 4/7/9: measuring one evaluation
/// configuration.
fn table479_measure_one_eval_point(r: &mut Runner) {
    let spec = paper_cluster(CommLibProfile::mpich122());
    for &n in &[1600usize, 3200] {
        let cfg = Configuration::p1m1_p2m2(1, 2, 8, 1);
        let params = HplParams::order(n);
        r.bench(&format!("table479_measure_eval_point/{n}"), || {
            black_box(simulate_hpl(&spec, &cfg, &params).wall_seconds)
        });
    }
}

fn main() {
    let mut r = Runner::new("tables");
    table3_measurement_campaign(&mut r);
    table479_fit_and_select(&mut r);
    table479_measure_one_eval_point(&mut r);
    r.finish();
}
