//! The in-process campaign memo behind `experiments::campaign_db`: it
//! must hand back exactly what a fresh serial campaign measures, every
//! time, and must never serve one plan's database for another plan.

use etm_cluster::spec::paper_cluster;
use etm_cluster::CommLibProfile;
use etm_core::measurement::{Sample, SampleKey};
use etm_core::pipeline::run_construction_threads;
use etm_core::plan::MeasurementPlan;
use etm_core::MeasurementDb;
use etm_repro::experiments::{campaign_db, NB};

/// Each key in key order, with every sample's `n`, `multi_node` and
/// `ta`/`tc`/`wall` bit patterns.
type DbBits = Vec<(SampleKey, Vec<(usize, bool, [u64; 3])>)>;

/// `db`'s samples as bit patterns, so `-0.0` and `0.0`, or two NaN
/// payloads, differ.
fn db_bits(db: &MeasurementDb) -> DbBits {
    let bits = |s: &Sample| (s.n, s.multi_node, [s.ta, s.tc, s.wall].map(f64::to_bits));
    db.keys()
        .map(|key| (*key, db.samples(key).iter().map(bits).collect()))
        .collect()
}

/// What a fresh serial campaign of `plan` measures, as bits.
fn fresh(plan: &MeasurementPlan) -> DbBits {
    let spec = paper_cluster(CommLibProfile::mpich122());
    db_bits(&run_construction_threads(&spec, plan, NB, 1))
}

#[test]
fn memo_serves_what_a_fresh_campaign_measures() {
    let ns = MeasurementPlan::ns();
    let want = fresh(&ns);
    assert_eq!(db_bits(&campaign_db(&ns)), want, "first call");
    assert_eq!(db_bits(&campaign_db(&ns)), want, "memoized call");
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
    assert_eq!(db_bits(&db), fresh(&trimmed));
}
