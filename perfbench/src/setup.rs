//! Set-up shared by every workload: the paper's Basic campaign up to its
//! first recommendation.

use std::time::Instant;

use etm_cluster::spec::paper_cluster;
use etm_cluster::{ClusterSpec, CommLibProfile, Configuration, KindUse};
use etm_core::backend::{ModelBackend, PolyLsqBackend};
use etm_core::engine::Engine;
use etm_core::pipeline::{run_construction_threads, sample_from_run};
use etm_core::{MeasurementDb, MeasurementPlan};
use etm_hpl::{simulate_hpl, HplParams};
use etm_repro::experiments::NB;
use etm_repro::stream::evaluation_space;
use etm_search::{best_config, ConfigSpace, SearchResult};

use crate::trace::Tracer;

/// Problem size of set-up's first recommendation.
const FIRST_N: usize = 6400;

/// A fitted Basic campaign.
pub struct Campaign {
    /// The paper cluster.
    pub spec: ClusterSpec,
    /// The §4 evaluation space (62 configurations).
    pub space: ConfigSpace,
    /// The construction measurements.
    pub db: MeasurementDb,
    /// The engine fitted from them, §4.1 adjustment included.
    pub engine: Engine,
    /// The first recommendation, at [`FIRST_N`].
    pub first: SearchResult,
}

/// Runs set-up once: the 486 construction trials on one worker, which
/// bypasses the campaign file cache, then `Engine::from_campaign`, then
/// one `best_config`. Returns the campaign and the seconds it took.
pub fn build(tr: &mut Tracer) -> (Campaign, f64) {
    let start = Instant::now();
    let spec = paper_cluster(CommLibProfile::mpich122());
    let plan = MeasurementPlan::basic();
    let db = tr.span("pipeline.construction_s", |_| {
        run_construction_threads(&spec, &plan, NB, 1)
    });
    let engine = tr.span("engine.from_campaign_ms", |_| {
        Engine::from_campaign(&spec, &plan, NB, db, Box::new(PolyLsqBackend::paper()))
            .expect("the Basic campaign fits")
    });
    let space = evaluation_space();
    let first = best_config(&engine.snapshot(), &space, FIRST_N)
        .expect("the Basic snapshot estimates the evaluation space");
    let secs = start.elapsed().as_secs_f64();
    let db = (*engine.db()).clone();
    let campaign = Campaign {
        spec,
        space,
        db,
        engine,
        first,
    };
    (campaign, secs)
}

/// Traced-run extras: replays every construction trial point by point
/// (`hpl.simulate_ms` per trial) and times one stand-alone fit of the
/// campaign (`backend.fit_ms`). Returns whether the replayed database
/// equals set-up's, bit for bit.
pub fn trace_layers(c: &Campaign, tr: &mut Tracer) -> bool {
    let plan = MeasurementPlan::basic();
    let mut replayed = MeasurementDb::new();
    for point in &plan.construction {
        let cfg = Configuration {
            uses: vec![KindUse {
                kind: point.key.kind_id(),
                pes: point.key.pes,
                procs_per_pe: point.key.m,
            }],
        };
        let sample = tr.span("hpl.simulate_ms", |_| {
            let run = simulate_hpl(&c.spec, &cfg, &HplParams::order(point.n).with_nb(NB));
            sample_from_run(&run, point.key.kind_id(), point.n)
        });
        replayed.record(point.key, sample);
    }
    tr.span("backend.fit_ms", |_| {
        PolyLsqBackend::paper()
            .fit(&c.db)
            .expect("the Basic campaign fits")
    });
    dbs_bit_equal(&replayed, &c.db)
}

/// Whether two databases hold the same keys and samples, bit for bit.
pub fn dbs_bit_equal(a: &MeasurementDb, b: &MeasurementDb) -> bool {
    let bits = |db: &MeasurementDb| -> Vec<_> {
        db.keys()
            .flat_map(|k| {
                db.samples(k).iter().map(move |s| {
                    (
                        *k,
                        s.n,
                        s.ta.to_bits(),
                        s.tc.to_bits(),
                        s.wall.to_bits(),
                        s.multi_node,
                    )
                })
            })
            .collect()
    };
    bits(a) == bits(b)
}

/// A copy of the campaign with every `Ta` 10 % high — the stale seed
/// `repro loop` starts its engines from, so fresh measurements move
/// the model.
pub fn stale_seed(db: &MeasurementDb) -> MeasurementDb {
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
