//! Sharded-ingest throughput: one campaign re-streamed through the
//! `ShardedConsumer` pool at widths 1/2/4/8, samples/sec implied by the
//! reported medians. Width 1 is the scaling baseline — the pool
//! machinery (pull token, forward channels, merge) over a single
//! worker — so regressions in the coordination layer show up even
//! without parallelism.

use etm_bench::{black_box, Runner};
use etm_core::backend::{ModelBackend, PolyLsqBackend};
use etm_core::engine::QuarantinePolicy;
use etm_core::measurement::{MeasurementDb, Sample, SampleKey};
use etm_core::stream::{trials_of_db, ConsumeOptions, ShardedConsumer, StreamConfig, TrialSource};

/// A synthetic Basic-shaped campaign (54 configurations × 9 sizes) —
/// the same shape the `streaming` suite drives.
fn synthetic_db() -> MeasurementDb {
    let sizes = [400usize, 600, 800, 1200, 1600, 2400, 3200, 4800, 6400];
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
                multi_node: key.pes > 1,
            },
        );
    };
    for &n in &sizes {
        for m1 in 1..=6 {
            put(SampleKey::new(etm_cluster::KindId(0), 1, m1), n);
        }
        for p2 in 1..=8 {
            for m2 in 1..=6 {
                put(SampleKey::new(etm_cluster::KindId(1), p2, m2), n);
            }
        }
    }
    db
}

fn paper_backend() -> Box<dyn ModelBackend> {
    Box::new(PolyLsqBackend::paper())
}

/// A whole campaign re-streamed through a warm pool per iteration:
/// source thread, bounded channel, pull-token fan-out, per-shard
/// ingest, final merge. Trials are nudged every round so each batch
/// changes its samples' bits and every shard pays for real refits.
fn pool_speed(r: &mut Runner, width: usize) {
    let db = synthetic_db();
    let trials = trials_of_db(&db);
    let cfg = StreamConfig {
        batch_size: 32,
        shuffle_seed: Some(42),
        duplicate_every: 0,
        defer_every: 0,
        channel_cap: 4,
    };
    let pool = ShardedConsumer::new(
        width,
        paper_backend,
        db,
        None,
        QuarantinePolicy::default(),
        ConsumeOptions::default(),
    )
    .expect("campaign seeds the pool");
    let mut round = 0u64;
    r.bench(&format!("shards/campaign_width_{width}"), || {
        round += 1;
        let nudged: Vec<(SampleKey, Sample)> = trials
            .iter()
            .map(|(k, s)| {
                let mut s = *s;
                s.ta *= 1.0 + 1e-9 * round as f64;
                (*k, s)
            })
            .collect();
        let source = TrialSource::spawn(nudged, cfg);
        let report = pool.consume(source.receiver()).expect("pool drains");
        source.join();
        black_box(report)
    });
}

/// The merge step in isolation: union database, union quarantine,
/// strict full fit — the fixed overhead every publication pays.
fn merge_speed(r: &mut Runner) {
    let db = synthetic_db();
    let pool = ShardedConsumer::new(
        4,
        paper_backend,
        db,
        None,
        QuarantinePolicy::default(),
        ConsumeOptions::default(),
    )
    .expect("campaign seeds the pool");
    r.bench("shards/merge_width_4", || {
        black_box(pool.merge().expect("merge fits"))
    });
}

fn main() {
    let mut r = Runner::new("shards");
    for width in [1usize, 2, 4, 8] {
        pool_speed(&mut r, width);
    }
    merge_speed(&mut r);
    r.finish();
}
