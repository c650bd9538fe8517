//! Integration tests over simulated measurement campaigns, in one
//! binary so the paper's Basic campaign (§4, Table 2) is simulated once
//! per run and shared by every test that reads it:
//!
//! * the parallel campaign is bit-identical at every worker count, and
//!   the simulator work behind each of the paper's campaigns is pinned;
//! * the model-validity audit passes over the Basic bank;
//! * the fitting work of the Basic campaign's initial fit and of one
//!   seeded replay of it into a stale engine is pinned.

use std::sync::OnceLock;

use etm_cluster::spec::paper_cluster;
use etm_cluster::{ClusterSpec, CommLibProfile};
use etm_core::backend::{FitWork, ModelBackend, PolyLsqBackend};
use etm_core::engine::Engine;
use etm_core::measurement::{Sample, SampleKey};
use etm_core::pipeline::{run_construction_threads, sample_from_run, simulate_construction_point};
use etm_core::plan::{MeasurementPlan, PlanKind};
use etm_core::stream::{consume, replay, trials_of_db, StreamConfig, StreamReport};
use etm_core::validate::{self, Severity};
use etm_core::MeasurementDb;
use etm_hpl::SimulatedRun;
use etm_support::pool;

/// HPL block size of the campaigns (the repro's NB).
const NB: usize = 64;

/// One simulated run per construction point of `plan`, in plan order.
fn simulate_plan(spec: &ClusterSpec, plan: &MeasurementPlan) -> Vec<SimulatedRun> {
    pool::par_map(&plan.construction, pool::num_threads(), |_, point| {
        simulate_construction_point(spec, point, NB)
    })
}

/// The Basic campaign's runs, simulated on first use.
fn basic_runs() -> &'static [SimulatedRun] {
    static RUNS: OnceLock<Vec<SimulatedRun>> = OnceLock::new();
    RUNS.get_or_init(|| {
        simulate_plan(
            &paper_cluster(CommLibProfile::mpich122()),
            &MeasurementPlan::basic(),
        )
    })
}

/// The Basic campaign's database: 54 configurations × 9 sizes, built
/// from the shared runs in plan order, as `run_construction` builds it.
fn basic_db() -> MeasurementDb {
    let plan = MeasurementPlan::basic();
    let mut db = MeasurementDb::new();
    for (point, run) in plan.construction.iter().zip(basic_runs()) {
        db.record(
            point.key,
            sample_from_run(run, point.key.kind_id(), point.n),
        );
    }
    db
}

/// The Basic plan cut down to its smallest problem sizes, so a full
/// campaign runs in well under a second per worker count.
fn small_plan() -> MeasurementPlan {
    let mut plan = MeasurementPlan::basic();
    plan.construction.retain(|p| p.n <= 800);
    assert!(
        plan.construction.len() >= 20,
        "need enough points to exercise the fan-out"
    );
    plan
}

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

#[test]
fn campaign_is_bit_identical_at_any_worker_count() {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let plan = small_plan();
    let serial = db_bits(&run_construction_threads(&spec, &plan, NB, 1));
    let widths = [2, pool::num_threads().max(2)];
    for threads in widths {
        let parallel = db_bits(&run_construction_threads(&spec, &plan, NB, threads));
        assert_eq!(serial, parallel, "campaign diverged at {threads} worker(s)");
    }
}

/// Kernel events and process polls summed over `runs`.
fn simulator_work(runs: &[SimulatedRun]) -> (u64, u64) {
    runs.iter()
        .fold((0, 0), |(e, p), run| (e + run.events, p + run.polls))
}

/// Count gate on the simulator. Events are exact: a different count
/// means the simulated behaviour changed. Polls are an upper bound, to
/// be lowered by the change that earns it; they sit a third or more
/// below the events, since a hold or a lone compute whose wake is the
/// next event finishes inside its own poll.
#[test]
fn campaign_simulator_work_is_pinned() {
    let spec = paper_cluster(CommLibProfile::mpich122());
    for (plan, events, max_polls) in [
        (MeasurementPlan::basic(), 1_808_005, 1_201_533),
        (MeasurementPlan::nl(), 585_741, 397_849),
        (MeasurementPlan::ns(), 137_502, 80_885),
    ] {
        let (got_events, got_polls) = if plan.kind == PlanKind::Basic {
            simulator_work(basic_runs())
        } else {
            simulator_work(&simulate_plan(&spec, &plan))
        };
        assert_eq!(got_events, events, "{:?} campaign events", plan.kind);
        assert!(
            got_polls <= max_polls,
            "{:?} campaign polled {got_polls} times, bound {max_polls}",
            plan.kind
        );
    }
}

/// Warnings the Basic bank raises today: six `non_negative_predictions`
/// edge dips at N = 400 and nine `monotone_in_p` steps, all within
/// their checks' tolerances. An upper bound, to be lowered by the
/// change that earns it.
const MAX_WARNINGS: usize = 15;

/// The model-validity audit over the real Basic bank: every check in
/// [`etm_core::validate::registry`] runs over the bank that the paper's
/// backend fits from the simulated Basic campaign.
///
/// The Basic plan is the only one whose construction sizes span the
/// audit's whole [400, 6400] sweep — the reduced NL/NS plans fit on a
/// sub-range, and a cubic extrapolated outside its fitting range
/// legitimately goes negative. A violation fails the test; warnings
/// are printed, and their count is pinned as an upper bound.
#[test]
fn basic_bank_passes_the_model_audit() {
    let bank = PolyLsqBackend::paper()
        .fit(&basic_db())
        .expect("the Basic campaign fits");
    let mut violations = Vec::new();
    let mut warnings = 0;
    for check in validate::registry() {
        let findings = check.run(&bank);
        println!(
            "{:<26} {:<70} {} finding(s)",
            check.name,
            check.what,
            findings.len()
        );
        for finding in findings {
            println!("  {finding}");
            match finding.severity {
                Severity::Warning => warnings += 1,
                Severity::Violation => violations.push(finding.to_string()),
            }
        }
    }
    assert!(violations.is_empty(), "audit violations: {violations:#?}");
    assert!(
        warnings <= MAX_WARNINGS,
        "the Basic bank raised {warnings} audit warnings, bound {MAX_WARNINGS}"
    );
}

/// The campaign with every `Ta` 10 % high, so streaming the true
/// campaign into it changes every key.
fn stale_seed(db: &MeasurementDb) -> MeasurementDb {
    let mut seed = MeasurementDb::new();
    for key in db.keys() {
        for s in db.samples(key) {
            let mut stale = *s;
            stale.ta *= 1.1;
            seed.upsert(*key, stale);
        }
    }
    seed
}

/// Count gate for refit work: exact N-T fits, N-T design
/// factorizations, P-T fits and P-T design factorizations, read from
/// each published snapshot. The counts are host-independent: a change
/// means the engine does more (or less) fitting work.
#[test]
fn basic_campaign_fit_and_replay_do_pinned_work() {
    let db = basic_db();
    assert_eq!(db.len(), 486);
    let engine =
        Engine::new(Box::new(PolyLsqBackend::paper()), db.clone(), None).expect("Basic fits");
    // 54 keys on one shared 9-size design; 6 measured P-T groups, each
    // factoring its Ta and Tc designs once.
    assert_eq!(
        engine.snapshot().fit_work(),
        FitWork {
            nt_fits: 54,
            nt_factorizations: 2,
            pt_fits: 6,
            pt_factorizations: 12,
        }
    );

    // The replay mix: batches of 16, shuffled, every 5th trial
    // re-delivered at the end, every 6th deferred.
    let cfg = StreamConfig {
        batch_size: 16,
        shuffle_seed: Some(501),
        duplicate_every: 5,
        defer_every: 6,
        ..StreamConfig::default()
    };
    let batches = replay(&trials_of_db(&db), &cfg);
    let engine = Engine::new(Box::new(PolyLsqBackend::paper()), stale_seed(&db), None)
        .expect("the stale campaign fits");
    let mut total = FitWork::default();
    let mut groups_refit = 0usize;
    let report = consume(&engine, &batches, |snap| {
        let w = snap.fit_work();
        total.nt_fits += w.nt_fits;
        total.nt_factorizations += w.nt_factorizations;
        total.pt_fits += w.pt_fits;
        total.pt_factorizations += w.pt_factorizations;
        groups_refit += snap.refit_groups().len();
    })
    .expect("the stream drains");
    assert_eq!(
        report,
        StreamReport {
            batches: 37,
            published: 31,
            fit_errors: 0,
        }
    );
    assert_eq!(groups_refit, 218);
    // Only changed keys are refit. Every key keeps the 9 sizes of the
    // stale seed, whose N-T design the engine's initial fit factored
    // and its memo keeps, so no publication factors an N-T design. Of
    // the 340 P-T design halves, only 48 are factored: the stale seed
    // moved `Ta` times only, so every `Tc` design (reference `kc`,
    // layout) is reused, and a group's `Ta` design is rebuilt only when
    // its reference key's `ka` moved.
    assert_eq!(
        total,
        FitWork {
            nt_fits: 434,
            nt_factorizations: 0,
            pt_fits: 170,
            pt_factorizations: 48,
        }
    );
    let reference = PolyLsqBackend::paper().fit(&db).expect("Basic fits");
    let bank = engine.snapshot().bank().clone();
    assert_eq!(bank.nt, reference.nt);
    assert_eq!(bank.pt, reference.pt);
}
