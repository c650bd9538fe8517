//! Streaming ingestion: replay a measurement campaign as timestamped
//! trial batches and drive the [`Engine`] one batch at a time.
//!
//! The paper's workflow is offline — campaign, fit, pick a
//! configuration once (§4). This module is the online form the ROADMAP
//! calls for (and related work motivates: re-estimating performance
//! models *while* the application runs, from the application's own
//! measurements): [`replay`] renders the campaign's trials in arrival
//! order as [`TrialBatch`]es, optionally shuffled, duplicated, or
//! delivered out of order — the failure modes a real measurement
//! harness produces — and [`consume`] feeds each batch through
//! [`Engine::ingest_batch`], invoking an observer with every published
//! snapshot.
//!
//! Determinism contract: [`replay`] is a pure function of `(trials,
//! StreamConfig)` and [`consume`] drains its batch slice in order, so a
//! streamed campaign is reproducible bit-for-bit, and — because
//! [`Engine::ingest`] upserts and refits only groups whose bits changed
//! — the final database and bank equal the one-shot fit of the same
//! campaign *regardless* of batch size, order, duplication, or deferral
//! (each `(key, N)` trial in a campaign has exactly one value, so a
//! stale re-delivery upserts the value already present).

use std::sync::Arc;

use etm_support::rng::Rng64;

use crate::engine::{Engine, EngineSnapshot};
use crate::measurement::{MeasurementDb, Sample, SampleKey};
use crate::pipeline::PipelineError;

/// One streamed batch of measured trials.
#[derive(Clone, Debug)]
pub struct TrialBatch {
    /// Monotone batch sequence number, 0-based in emission order.
    pub seq: u64,
    /// Simulated campaign clock when the batch was emitted: the
    /// cumulative measurement wall time (what Tables 3/6 sum) of every
    /// trial delivered so far, in seconds.
    pub sim_time: f64,
    /// The measured trials of the batch.
    pub trials: Vec<(SampleKey, Sample)>,
}

/// How [`replay`] renders a campaign as batches.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Trials per batch (the final batch may be short).
    pub batch_size: usize,
    /// When set, the trial order is Fisher–Yates-shuffled with this
    /// seed before batching; `None` replays in campaign order.
    pub shuffle_seed: Option<u64>,
    /// When > 0, every k-th trial (1-based) is re-delivered at the end
    /// of the stream — the at-least-once duplication a retrying
    /// measurement harness produces. 0 disables.
    pub duplicate_every: usize,
    /// When > 0, every k-th trial (1-based) is held back and delivered
    /// only after the rest of the stream — out-of-order arrival.
    /// 0 disables.
    pub defer_every: usize,
    /// Has no effect: [`consume`] drains a batch slice in-process, so
    /// there is no channel to bound. Kept only so existing struct
    /// literals that name it still compile; new code should leave it at
    /// its default.
    pub channel_cap: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            batch_size: 16,
            shuffle_seed: None,
            duplicate_every: 0,
            defer_every: 0,
            channel_cap: 4,
        }
    }
}

/// Flattens a measurement database into its `(key, sample)` trials, in
/// the database's deterministic (key, then N) order — the canonical
/// input to [`replay`] when streaming a completed campaign.
pub fn trials_of_db(db: &MeasurementDb) -> Vec<(SampleKey, Sample)> {
    db.keys()
        .flat_map(|k| db.samples(k).iter().map(move |s| (*k, *s)))
        .collect()
}

/// Deterministically renders a campaign's arrival sequence: applies
/// the deferral split, the shuffle, and the duplication tail, then
/// chunks into batches stamped with the simulated campaign clock.
///
/// Pure function of its inputs — [`consume`] drains exactly this
/// sequence.
pub fn replay(trials: &[(SampleKey, Sample)], cfg: &StreamConfig) -> Vec<TrialBatch> {
    assert!(cfg.batch_size > 0, "batch size must be at least 1");
    let mut order: Vec<(SampleKey, Sample)> = trials.to_vec();
    if let Some(seed) = cfg.shuffle_seed {
        let mut rng = Rng64::seed_from_u64(seed);
        rng.shuffle(&mut order);
    }
    // Deferral: hold back every k-th trial and append after the rest —
    // the stream delivers them late (out of order).
    let mut main = Vec::with_capacity(order.len());
    let mut deferred = Vec::new();
    for (i, t) in order.into_iter().enumerate() {
        if cfg.defer_every > 0 && (i + 1) % cfg.defer_every == 0 {
            deferred.push(t);
        } else {
            main.push(t);
        }
    }
    main.extend(deferred);
    // Duplication: re-deliver every k-th trial at the very end (each
    // (key, N) has one value per campaign, so re-delivery is a no-op
    // upsert — the at-least-once contract).
    if cfg.duplicate_every > 0 {
        let dups: Vec<(SampleKey, Sample)> = main
            .iter()
            .enumerate()
            .filter(|(i, _)| (i + 1) % cfg.duplicate_every == 0)
            .map(|(_, t)| *t)
            .collect();
        main.extend(dups);
    }
    let mut batches = Vec::new();
    let mut clock = 0.0;
    for (seq, chunk) in main.chunks(cfg.batch_size).enumerate() {
        clock += chunk.iter().map(|(_, s)| s.wall).sum::<f64>();
        batches.push(TrialBatch {
            seq: seq as u64,
            sim_time: clock,
            trials: chunk.to_vec(),
        });
    }
    batches
}

/// What [`consume`] did with a drained stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Batches ingested.
    pub batches: usize,
    /// Snapshots published (generation changes the observer saw).
    pub published: usize,
    /// Batches whose refit failed (the engine keeps their samples dirty
    /// and a later batch — or the final flush — picks them up).
    pub fit_errors: usize,
}

/// Drains `batches` into an engine in slice order, publishing a
/// snapshot per effective batch and handing each to `on_snapshot`
/// (no-op batches — duplicates, re-deliveries — publish nothing and
/// invoke nothing new; the observer sees exactly the generation
/// *changes* counted in [`StreamReport::published`]).
///
/// Transient *fit* failures are tolerated: mid-campaign a group can be
/// legitimately unfittable (a new PE count with too few sizes yet, a
/// composed kind whose donor hasn't arrived). A batch whose refit fails
/// is charged to [`StreamReport::fit_errors`], and [`Engine::ingest`]'s
/// pending-dirty contract refits its groups with the next batch. Bad
/// *samples* are not an error at all: the engine's quarantine ladder
/// absorbs them (see [`crate::engine::QUARANTINE_BUDGET`]). After the
/// last batch, a final `ingest(&[])` flush retries anything still
/// outstanding.
///
/// # Errors
/// A fit error surviving the final flush is returned, with everything
/// ingested so far still applied.
pub fn consume<F>(
    engine: &Engine,
    batches: &[TrialBatch],
    mut on_snapshot: F,
) -> Result<StreamReport, PipelineError>
where
    F: FnMut(&Arc<EngineSnapshot>),
{
    let mut report = StreamReport::default();
    let mut last_generation = engine.snapshot().generation();
    let mut publish = |snapshot: Arc<EngineSnapshot>, report: &mut StreamReport| {
        if snapshot.generation() != last_generation {
            last_generation = snapshot.generation();
            report.published += 1;
            on_snapshot(&snapshot);
        }
    };
    for batch in batches {
        report.batches += 1;
        match engine.ingest_batch(batch) {
            Ok(snapshot) => publish(snapshot, &mut report),
            Err(_) => report.fit_errors += 1,
        }
    }
    // Final flush: a trailing failed refit would otherwise leave the
    // published bank behind the database.
    publish(engine.ingest(&[])?, &mut report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::backend::tests::assert_banks_bit_equal;
    use crate::backend::{FitMemo, FitWork, ModelBackend, PolyLsqBackend};
    use crate::pipeline::ModelBank;

    fn synth_sample(kind: usize, pes: usize, m: usize, n: usize) -> Sample {
        let x = n as f64;
        let p = (pes * m) as f64;
        let speed = if kind == 0 { 2.0 } else { 1.0 };
        let ta = (2e-9 * x * x * x / p + 1e-5 * x) / speed + 0.05;
        let tc = 1e-7 * x * x * (0.3 * p + 0.7 / p) + 0.01;
        Sample {
            n,
            ta,
            tc,
            wall: ta + tc,
            multi_node: pes > 1,
        }
    }

    fn synth_db() -> MeasurementDb {
        let mut db = MeasurementDb::new();
        for kind in 0..2usize {
            let pes_list: &[usize] = if kind == 0 { &[1] } else { &[1, 2, 4] };
            for &pes in pes_list {
                for m in 1..=2usize {
                    for n in [400usize, 800, 1600, 2400, 3200] {
                        db.record(SampleKey { kind, pes, m }, synth_sample(kind, pes, m, n));
                    }
                }
            }
        }
        db
    }

    /// A stale copy of the synth campaign (every ta off by 10 %), so
    /// streaming the true campaign changes every group.
    fn stale_db(trials: &[(SampleKey, Sample)]) -> MeasurementDb {
        let mut db = MeasurementDb::new();
        for (k, s) in trials {
            let mut stale = *s;
            stale.ta *= 1.1;
            db.upsert(*k, stale);
        }
        db
    }

    #[test]
    fn replay_preserves_every_trial_and_stamps_a_monotone_clock() {
        let db = synth_db();
        let trials = trials_of_db(&db);
        let cfg = StreamConfig {
            batch_size: 7,
            shuffle_seed: Some(42),
            duplicate_every: 5,
            defer_every: 3,
            ..StreamConfig::default()
        };
        let batches = replay(&trials, &cfg);
        // Deterministic: same inputs, same batches.
        let again = replay(&trials, &cfg);
        assert_eq!(batches.len(), again.len());
        for (a, b) in batches.iter().zip(&again) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits());
            assert_eq!(a.trials, b.trials);
        }
        // Every original trial is delivered (dups add on top), and the
        // simulated clock is strictly increasing across batches.
        let delivered: usize = batches.iter().map(|b| b.trials.len()).sum();
        let dups = trials.len() / cfg.duplicate_every;
        assert_eq!(delivered, trials.len() + dups);
        let mut seen: Vec<(SampleKey, usize)> = batches
            .iter()
            .flat_map(|b| b.trials.iter().map(|(k, s)| (*k, s.n)))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), trials.len(), "every (key, N) delivered");
        let mut last = 0.0;
        for b in &batches {
            assert!(b.sim_time > last, "clock must advance every batch");
            last = b.sim_time;
        }
    }

    /// The tentpole invariant at unit scale: streaming the campaign in
    /// any shape converges on a database — and therefore a bank —
    /// bit-identical to the one-shot fit.
    #[test]
    fn streamed_campaign_converges_to_one_shot_fit() {
        let db = synth_db();
        let trials = trials_of_db(&db);
        let reference = PolyLsqBackend::paper().fit(&db).expect("one-shot fit");
        let configs = [
            StreamConfig {
                batch_size: 1,
                shuffle_seed: None,
                ..StreamConfig::default()
            },
            StreamConfig {
                batch_size: 4,
                shuffle_seed: Some(7),
                duplicate_every: 3,
                defer_every: 4,
                ..StreamConfig::default()
            },
            StreamConfig {
                batch_size: 64,
                shuffle_seed: Some(1234),
                duplicate_every: 1, // every trial delivered twice
                ..StreamConfig::default()
            },
        ];
        for cfg in configs {
            // Bootstrap the engine on the first batches until the fit
            // succeeds, then stream the rest through ingest_batch.
            let batches = replay(&trials, &cfg);
            let mut pending = MeasurementDb::new();
            let mut engine: Option<Engine> = None;
            for batch in &batches {
                match &engine {
                    None => {
                        for (k, s) in &batch.trials {
                            pending.upsert(*k, *s);
                        }
                        match Engine::new(Box::new(PolyLsqBackend::paper()), pending.clone(), None)
                        {
                            Ok(e) => engine = Some(e),
                            Err(_) => continue, // not enough data yet
                        }
                    }
                    Some(e) => {
                        // Mid-campaign fit failures are legitimate (a
                        // new PE count with too few sizes, a composed
                        // kind missing its donor); the pending-dirty
                        // contract retries them on later batches.
                        let _ = e.ingest_batch(batch);
                    }
                }
            }
            let e = engine.expect("campaign must bootstrap an engine");
            // Flush whatever a trailing failed refit left dirty, then
            // the *incrementally built* bank must equal the one-shot
            // reference bit-for-bit.
            let final_snap = e.ingest(&[]).expect("flush fits: all data present");
            assert_eq!(
                final_snap.health().rejected_samples,
                0,
                "campaign data is admissible"
            );
            assert_banks_bit_equal(final_snap.bank(), &reference);
            assert_banks_bit_equal(e.snapshot().bank(), &reference);
            // And the streamed database equals the campaign database.
            let streamed = e.db();
            assert_eq!(streamed.len(), db.len());
            for key in db.keys() {
                assert_eq!(streamed.samples(key), db.samples(key), "{key:?}");
            }
        }
    }

    #[test]
    fn source_and_consumer_stream_end_to_end() {
        let db = synth_db();
        let trials = trials_of_db(&db);
        let reference = PolyLsqBackend::paper().fit(&db).expect("one-shot fit");
        // Seed the engine with a stale calibration (every Ta inflated),
        // then stream the true campaign (shuffled, with duplicates)
        // through consume(): every batch refits an existing group, and
        // the engine must converge on the true fit.
        let engine = Engine::new(Box::new(PolyLsqBackend::paper()), stale_db(&trials), None)
            .expect("stale campaign fits");
        let batches = replay(
            &trials,
            &StreamConfig {
                batch_size: 5,
                shuffle_seed: Some(99),
                duplicate_every: 2,
                ..StreamConfig::default()
            },
        );
        let mut observed: Vec<u64> = Vec::new();
        let report = consume(&engine, &batches, |snap| {
            observed.push(snap.generation());
        })
        .expect("stream ingests cleanly");
        assert_eq!(report.batches, batches.len());
        assert_eq!(
            report.fit_errors, 0,
            "every group already exists: refits cannot fail"
        );
        assert_eq!(report.published, observed.len());
        assert!(!observed.is_empty(), "snapshots must be published");
        assert!(
            observed.windows(2).all(|w| w[0] < w[1]),
            "observer sees strictly increasing generations: {observed:?}"
        );
        // Convergence: the engine's final bank equals the one-shot fit.
        let final_bank = PolyLsqBackend::paper()
            .fit(&engine.db())
            .expect("final fit");
        assert_banks_bit_equal(&final_bank, &reference);
        assert_banks_bit_equal(engine.snapshot().bank(), &reference);
    }

    /// Bad samples do not abort the stream: the engine's quarantine
    /// policy absorbs them, the good data keeps flowing, and the
    /// poisoned sample never reaches the database.
    #[test]
    fn consumer_quarantines_bad_samples_and_keeps_streaming() {
        let db = synth_db();
        let engine =
            Engine::new(Box::new(PolyLsqBackend::paper()), db, None).expect("synth db fits");
        let key = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        let bad_key = SampleKey {
            kind: 1,
            pes: 4,
            m: 1,
        };
        let mut good = synth_sample(1, 2, 1, 800);
        good.ta *= 1.5;
        let mut bad = synth_sample(1, 4, 1, 1600);
        bad.tc = f64::NAN;
        let batches = [
            TrialBatch {
                seq: 0,
                sim_time: 1.0,
                trials: vec![(bad_key, bad)],
            },
            TrialBatch {
                seq: 1,
                sim_time: 2.0,
                trials: vec![(key, good)],
            },
        ];
        let report = consume(&engine, &batches, |_| {}).expect("bad samples are not fatal");
        assert_eq!(report.batches, 2);
        assert_eq!(report.fit_errors, 0);
        // The good sample landed, the poisoned one never did.
        let kept = engine.db();
        assert!(kept.samples(&key).iter().any(|s| s.n == 800 && s == &good));
        // The seed value at (bad_key, 1600) survives; the NaN upsert
        // never happened.
        assert!(kept.samples(&bad_key).iter().all(|s| s.is_finite()));
        assert_eq!(engine.snapshot().health().rejected_samples, 1);
    }

    /// The paper backend, except that its next `failures` refits fail;
    /// the test arms the shared count once the engine has its initial
    /// fit.
    struct FailingRefits {
        inner: PolyLsqBackend,
        failures: Arc<AtomicUsize>,
    }

    /// An engine over `db` whose backend fails the next `failures`
    /// refits after the initial fit.
    fn failing_engine(db: MeasurementDb, failures: usize) -> Engine {
        let armed = Arc::new(AtomicUsize::new(0));
        let backend = FailingRefits {
            inner: PolyLsqBackend::paper(),
            failures: Arc::clone(&armed),
        };
        let engine = Engine::new(Box::new(backend), db, None).expect("stale campaign fits");
        armed.store(failures, Ordering::SeqCst);
        engine
    }

    impl ModelBackend for FailingRefits {
        fn refit_groups(
            &self,
            db: &MeasurementDb,
            previous: &ModelBank,
            dirty: &[SampleKey],
            memo: &mut FitMemo,
        ) -> Result<(ModelBank, FitWork), PipelineError> {
            let fail = self
                .failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if fail {
                return Err(PipelineError::NoDonor { kind: 99, m: 99 });
            }
            self.inner.refit_groups(db, previous, dirty, memo)
        }
    }

    /// Each batch whose refit fails is charged one fit error and is not
    /// retried; the pending-dirty contract refits its groups with the
    /// next batch, so the final bank still equals the one-shot fit bit
    /// for bit and every later batch publishes as usual.
    #[test]
    fn consume_charges_each_failed_refit_and_converges() {
        let db = synth_db();
        let trials = trials_of_db(&db);
        let reference = PolyLsqBackend::paper().fit(&db).expect("one-shot fit");
        let batches = replay(
            &trials,
            &StreamConfig {
                batch_size: 5,
                ..StreamConfig::default()
            },
        );
        for failures in 0..=3 {
            let engine = failing_engine(stale_db(&trials), failures);
            let mut observed = 0usize;
            let report = consume(&engine, &batches, |_| observed += 1).expect("stream drains");
            // Every batch changes bits against the stale seed, so each
            // one refits: the first `failures` fail, the rest publish.
            assert_eq!(report.batches, batches.len(), "{failures} failures");
            assert_eq!(report.fit_errors, failures, "{failures} failures");
            assert_eq!(report.published, batches.len() - failures);
            assert_eq!(observed, report.published, "{failures} failures");
            assert_banks_bit_equal(engine.snapshot().bank(), &reference);
        }
    }

    /// A publication made by the final flush reaches the observer even
    /// when the stream itself is empty: an engine left with pending-dirty
    /// groups by an earlier failed ingest publishes on the flush, and the
    /// report and the observer agree on it.
    #[test]
    fn flush_publication_reaches_the_observer_over_an_empty_stream() {
        let db = synth_db();
        let trials = trials_of_db(&db);
        let engine = failing_engine(stale_db(&trials), 1);
        engine
            .ingest(&trials)
            .expect_err("the first refit fails and leaves its groups dirty");
        let mut observed: Vec<u64> = Vec::new();
        let report = consume(&engine, &[], |snap| observed.push(snap.generation()))
            .expect("the flush refits");
        assert_eq!(report.batches, 0);
        assert_eq!(report.published, 1);
        assert_eq!(observed, [engine.snapshot().generation()]);
        let reference = PolyLsqBackend::paper().fit(&db).expect("one-shot fit");
        assert_banks_bit_equal(engine.snapshot().bank(), &reference);
    }
}
