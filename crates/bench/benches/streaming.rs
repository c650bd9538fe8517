//! Throughput of the streaming ingestion path: replaying a campaign as
//! batches, draining them end to end through `consume`, and the
//! per-batch consumer step in isolation — both a batch that changes its
//! group and a re-delivered one that changes nothing.

use etm_bench::{black_box, Runner};
use etm_core::backend::PolyLsqBackend;
use etm_core::engine::Engine;
use etm_core::measurement::{MeasurementDb, Sample, SampleKey};
use etm_core::stream::{consume, replay, trials_of_db, StreamConfig};

/// A synthetic Basic-shaped campaign (54 configurations × 9 sizes).
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

fn replay_speed(r: &mut Runner) {
    let trials = trials_of_db(&synthetic_db());
    let cfg = StreamConfig {
        batch_size: 16,
        shuffle_seed: Some(7),
        duplicate_every: 5,
        defer_every: 6,
        ..StreamConfig::default()
    };
    r.bench("stream/replay_486_trials", || {
        black_box(replay(&trials, &cfg))
    });
}

/// One streamed batch through `ingest_batch`, the consumer's
/// steady-state unit of work, timed against a re-delivered batch.
///
/// The changing batch is nudged every call so its samples' bits always
/// change and every iteration pays for a refit. The re-delivered batch
/// holds samples the database already has: every upsert finds the same
/// bits, so the ingest refits and publishes nothing. This is the path
/// at-least-once redelivery and a quiescent closed loop take.
fn ingest_batch_speed(r: &mut Runner) {
    let db = synthetic_db();
    let key = SampleKey::new(etm_cluster::KindId(1), 4, 2);
    let trials: Vec<(SampleKey, Sample)> = db.samples(&key).iter().map(|s| (key, *s)).collect();
    let changing = Engine::new(Box::new(PolyLsqBackend::paper()), db.clone(), None).expect("fit");
    let quiet = Engine::new(Box::new(PolyLsqBackend::paper()), db, None).expect("fit");
    let redelivered = etm_core::stream::TrialBatch {
        seq: 0,
        sim_time: 0.0,
        trials: trials.clone(),
    };
    let mut round = 0u64;
    r.pair(
        "stream/ingest_batch_redelivered",
        "stream/ingest_batch_one_group",
        || black_box(quiet.ingest_batch(&redelivered).expect("no-op")),
        || {
            round += 1;
            let mut batch = etm_core::stream::TrialBatch {
                seq: round,
                sim_time: round as f64,
                trials: trials.clone(),
            };
            for (_, s) in &mut batch.trials {
                s.ta *= 1.0 + 1e-9 * round as f64;
            }
            black_box(changing.ingest_batch(&batch).expect("refit"))
        },
        Some(REDELIVERED_OVER_ONE_GROUP),
    );
}

/// The full drain: replay, consumer loop, snapshot per effective batch
/// — a whole campaign re-streamed into a warm engine per iteration.
fn end_to_end_speed(r: &mut Runner) {
    let db = synthetic_db();
    let trials = trials_of_db(&db);
    let engine = Engine::new(Box::new(PolyLsqBackend::paper()), db, None).expect("fit");
    let cfg = StreamConfig {
        batch_size: 32,
        shuffle_seed: Some(42),
        ..StreamConfig::default()
    };
    let mut round = 0u64;
    r.bench("stream/campaign_consume", || {
        // Nudge every trial so each round's batches all change their
        // samples' bits (a realistic rolling re-measurement).
        round += 1;
        let nudged: Vec<(SampleKey, Sample)> = trials
            .iter()
            .map(|(k, s)| {
                let mut s = *s;
                s.ta *= 1.0 + 1e-9 * round as f64;
                (*k, s)
            })
            .collect();
        let batches = replay(&nudged, &cfg);
        black_box(consume(&engine, &batches, |_| {}).expect("stream fits"))
    });
}

/// Bound on `stream/ingest_batch_redelivered /
/// stream/ingest_batch_one_group`: the median of the per-sample ratios
/// measured 0.033–0.042 over 34 runs pinned to one CPU and 34 unpinned
/// on a shared 2-vCPU host, so 0.055 passes every run and fails a 2×
/// slowdown of the re-delivered batch (≥ 0.066).
const REDELIVERED_OVER_ONE_GROUP: f64 = 0.055;

fn main() {
    let mut r = Runner::new("streaming");
    replay_speed(&mut r);
    ingest_batch_speed(&mut r);
    end_to_end_speed(&mut r);
    r.finish();
}
