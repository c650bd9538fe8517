//! Count gate for refit work: exact N-T fits, N-T design
//! factorizations, P-T fits and P-T design factorizations, read from
//! each published snapshot, for the initial fit of the paper's Basic
//! campaign and for one seeded replay of it into a stale engine. The counts are host-independent:
//! a change means the engine does more (or less) fitting work.

use etm_cluster::spec::paper_cluster;
use etm_cluster::CommLibProfile;
use etm_core::backend::{FitWork, ModelBackend, PolyLsqBackend};
use etm_core::engine::Engine;
use etm_core::pipeline::run_construction_threads;
use etm_core::plan::MeasurementPlan;
use etm_core::stream::{consume, replay, trials_of_db, StreamConfig, StreamReport};
use etm_core::MeasurementDb;

const NB: usize = 64;

/// The Basic campaign (§4, Table 2): 54 configurations × 9 sizes.
fn basic_db() -> MeasurementDb {
    let spec = paper_cluster(CommLibProfile::mpich122());
    run_construction_threads(&spec, &MeasurementPlan::basic(), NB, 2)
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
    // Only changed keys are refit, and each publication's keys share one
    // design: 31 designs in all. Of the 340 P-T design halves, only 48
    // are factored: the stale seed moved `Ta` times only, so every `Tc`
    // design (reference `kc`, layout) is reused, and a group's `Ta`
    // design is rebuilt only when its reference key's `ka` moved.
    assert_eq!(
        total,
        FitWork {
            nt_fits: 434,
            nt_factorizations: 62,
            pt_fits: 170,
            pt_factorizations: 48,
        }
    );
    let reference = PolyLsqBackend::paper().fit(&db).expect("Basic fits");
    let bank = engine.snapshot().bank().clone();
    assert_eq!(bank.nt, reference.nt);
    assert_eq!(bank.pt, reference.pt);
}
