//! The in-process campaign memo behind `experiments::campaign_db`: it
//! must hand back exactly what a fresh serial campaign measures, every
//! time, and must never serve one plan's database for another plan.

use etm_cluster::spec::paper_cluster;
use etm_cluster::CommLibProfile;
use etm_core::pipeline::run_construction_threads;
use etm_core::plan::MeasurementPlan;
use etm_repro::experiments::{campaign_db, NB};
use etm_support::json;

fn fresh(plan: &MeasurementPlan) -> String {
    let spec = paper_cluster(CommLibProfile::mpich122());
    json::to_string(&run_construction_threads(&spec, plan, NB, 1))
}

#[test]
fn memo_serves_what_a_fresh_campaign_measures() {
    let ns = MeasurementPlan::ns();
    let want = fresh(&ns);
    assert_eq!(json::to_string(&campaign_db(&ns)), want, "first call");
    assert_eq!(json::to_string(&campaign_db(&ns)), want, "memoized call");
}

#[test]
fn memo_keys_on_the_whole_plan() {
    let ns = MeasurementPlan::ns();
    let largest = *ns.construction_ns.last().expect("NS has sizes");
    let mut trimmed = ns.clone();
    trimmed.construction.retain(|p| p.n < largest);
    assert_ne!(trimmed, ns);

    let full = campaign_db(&ns);
    let db = campaign_db(&trimmed);
    assert!(
        db.len() < full.len(),
        "{} vs {} trials",
        db.len(),
        full.len()
    );
    assert_eq!(json::to_string(&db), fresh(&trimmed));
}
