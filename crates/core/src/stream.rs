//! Streaming ingestion: replay a measurement campaign as timestamped
//! trial batches over an mpmc channel and drive the [`Engine`] one
//! batch at a time.
//!
//! The paper's workflow is offline — campaign, fit, pick a
//! configuration once (§4). This module is the online form the ROADMAP
//! calls for (and related work motivates: re-estimating performance
//! models *while* the application runs): a [`TrialSource`] emits the
//! campaign's trials in arrival order as [`TrialBatch`]es, optionally
//! shuffled, duplicated, or delivered out of order — the failure modes
//! a real measurement harness produces — and [`consume`] feeds each
//! batch through [`Engine::ingest_batch`], invoking an observer with
//! every published snapshot.
//!
//! Determinism contract: [`replay`] is a pure function of `(trials,
//! StreamConfig)`, so a streamed campaign is reproducible bit-for-bit,
//! and — because [`Engine::ingest`] upserts and refits only groups whose
//! bits changed — the
//! final database and bank equal the one-shot fit of the same campaign
//! *regardless* of batch size, order, duplication, or deferral (each
//! `(key, N)` trial in a campaign has exactly one value, so a stale
//! re-delivery upserts the value already present).
//!
//! Robustness (the degradation ladder's transport rungs): [`consume`]
//! surfaces a source that sends nothing within its stall timeout as a
//! typed [`PipelineError::SourceStalled`] instead of blocking forever; transient fit errors are retried with
//! bounded backoff before being charged to the report; and
//! [`consume_supervised`] restarts a dead or stalled [`BatchSource`]
//! from the last delivered batch sequence, giving up with
//! [`PipelineError::SourceFailed`] only when the restart budget is
//! exhausted.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use etm_support::channel::{self, Receiver, RecvTimeoutError};
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

/// How a [`TrialSource`] replays a campaign.
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
    /// Capacity of the channel between source and consumer; the source
    /// blocks when the consumer falls this many batches behind
    /// (backpressure). 0 means unbounded.
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

/// Deterministically renders the batches a source will emit: applies
/// the deferral split, the shuffle, and the duplication tail, then
/// chunks into batches stamped with the simulated campaign clock.
///
/// Pure function of its inputs — the in-process [`TrialSource`] sends
/// exactly this sequence.
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

/// A source thread replaying trials as [`TrialBatch`]es over the
/// workspace mpmc channel. Dropping every receiver stops the source
/// early (the send error is swallowed; the thread just exits).
pub struct TrialSource {
    rx: Receiver<TrialBatch>,
    handle: thread::JoinHandle<()>,
    stop: Arc<AtomicBool>,
}

impl TrialSource {
    /// Spawns the source over `trials` with the given delivery shape.
    pub fn spawn(trials: Vec<(SampleKey, Sample)>, cfg: StreamConfig) -> Self {
        let batches = replay(&trials, &cfg);
        let (tx, rx) = if cfg.channel_cap > 0 {
            channel::bounded(cfg.channel_cap)
        } else {
            channel::unbounded()
        };
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            for batch in batches {
                if flag.load(Ordering::Relaxed) || tx.send(batch).is_err() {
                    break; // stop requested or every receiver hung up
                }
            }
        });
        TrialSource { rx, handle, stop }
    }

    /// The batch stream, for [`consume`] to drain.
    pub fn receiver(&self) -> &Receiver<TrialBatch> {
        &self.rx
    }

    /// Waits for the source thread to finish emitting.
    ///
    /// # Panics
    /// Propagates a panic from the source thread.
    pub fn join(self) {
        self.stop.store(true, Ordering::Relaxed);
        drop(self.rx);
        if let Err(e) = self.handle.join() {
            std::panic::resume_unwind(e);
        }
    }
}

/// A stoppable producer of [`TrialBatch`]es — what [`consume_supervised`]
/// spawns, drains, and restarts.
///
/// Contract: [`BatchSource::stop`] must reap the source without blocking
/// indefinitely, even if the source is wedged mid-send (the supervisor
/// calls it on a source it has just declared stalled).
pub trait BatchSource {
    /// The source's batch stream.
    fn receiver(&self) -> &Receiver<TrialBatch>;

    /// Stops the source and reaps its thread.
    fn stop(self: Box<Self>);
}

impl BatchSource for TrialSource {
    fn receiver(&self) -> &Receiver<TrialBatch> {
        TrialSource::receiver(self)
    }

    fn stop(self: Box<Self>) {
        // Dropping the receiver first (inside `join`) fails the next
        // send, so a healthy source thread always exits promptly.
        (*self).join();
    }
}

/// What [`consume`] did with a drained stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Batches received from the channel.
    pub batches: usize,
    /// Snapshots published (generation changes the observer saw).
    pub published: usize,
    /// Batches whose refit failed transiently *and survived every
    /// retry* (the engine keeps their samples dirty and a later batch —
    /// or the final flush — picks them up).
    pub fit_errors: usize,
    /// Fit retries attempted, at most two per batch.
    pub fit_retries: usize,
}

/// What [`consume_supervised`] did across source incarnations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisedReport {
    /// The cumulative consume report across every incarnation.
    pub report: StreamReport,
    /// Sources respawned after a premature death or stall.
    pub restarts: usize,
    /// Incarnations declared stalled by the stall timeout.
    pub stalls: usize,
}

/// Fit retries per batch before it is charged to
/// [`StreamReport::fit_errors`]. Each retry is an empty flush ingest, so
/// it re-attempts the refit of everything pending-dirty.
const FIT_RETRIES: u32 = 2;

/// Base backoff between fit retries; the k-th retry sleeps
/// `k × FIT_BACKOFF`.
const FIT_BACKOFF: Duration = Duration::from_millis(1);

/// The one drain loop and the state it carries across the source
/// incarnations of [`consume_supervised`].
struct Drain<'e> {
    engine: &'e Engine,
    report: StreamReport,
    last_generation: u64,
    last_batch: Option<TrialBatch>,
    /// One past the highest batch sequence delivered so far.
    next_seq: u64,
}

impl<'e> Drain<'e> {
    fn new(engine: &'e Engine) -> Self {
        Drain {
            engine,
            report: StreamReport::default(),
            last_generation: engine.snapshot().generation(),
            last_batch: None,
            next_seq: 0,
        }
    }

    /// Receives and ingests batches until every sender hangs up
    /// (`Ok`) or none arrives within `stall_timeout` (`Err(waited_ms)`).
    fn run<F>(
        &mut self,
        rx: &Receiver<TrialBatch>,
        stall_timeout: Duration,
        on_snapshot: &mut F,
    ) -> Result<(), u64>
    where
        F: FnMut(&TrialBatch, &Arc<EngineSnapshot>),
    {
        loop {
            let batch = match rx.recv_timeout(stall_timeout) {
                Ok(batch) => batch,
                Err(RecvTimeoutError::Disconnected) => return Ok(()),
                Err(RecvTimeoutError::Timeout) => return Err(stall_timeout.as_millis() as u64),
            };
            self.report.batches += 1;
            self.next_seq = self.next_seq.max(batch.seq + 1);
            self.ingest(&batch, on_snapshot);
            self.last_batch = Some(batch);
        }
    }

    /// Ingests one batch, retrying a failed refit [`FIT_RETRIES`] times
    /// with linear backoff, and publishes on a generation change. A batch
    /// whose refit survives every retry is charged to `fit_errors` — the
    /// engine's pending-dirty contract keeps its samples for a later
    /// batch or the final flush.
    fn ingest<F>(&mut self, batch: &TrialBatch, on_snapshot: &mut F)
    where
        F: FnMut(&TrialBatch, &Arc<EngineSnapshot>),
    {
        let mut result = self.engine.ingest_batch(batch);
        let mut attempt = 0;
        while result.is_err() && attempt < FIT_RETRIES {
            attempt += 1;
            self.report.fit_retries += 1;
            thread::sleep(FIT_BACKOFF * attempt);
            // The batch's samples are already upserted; an empty flush
            // re-attempts the refit of everything pending-dirty.
            result = self.engine.ingest(&[]);
        }
        match result {
            Ok(snapshot) => {
                if snapshot.generation() != self.last_generation {
                    self.last_generation = snapshot.generation();
                    self.report.published += 1;
                    on_snapshot(batch, &snapshot);
                }
            }
            Err(_) => self.report.fit_errors += 1,
        }
    }

    /// Final flush: a trailing failed refit would otherwise leave the
    /// published bank behind the database.
    fn flush<F>(mut self, on_snapshot: &mut F) -> Result<StreamReport, PipelineError>
    where
        F: FnMut(&TrialBatch, &Arc<EngineSnapshot>),
    {
        let snapshot = self.engine.ingest(&[])?;
        if snapshot.generation() != self.last_generation {
            self.report.published += 1;
            if let Some(batch) = &self.last_batch {
                on_snapshot(batch, &snapshot);
            }
        }
        Ok(self.report)
    }
}

/// Drains a batch stream into an engine, publishing a snapshot per
/// effective batch and handing each to `on_snapshot` (no-op batches —
/// duplicates, re-deliveries — publish nothing and invoke nothing new;
/// the observer only sees generation *changes*).
///
/// Transient *fit* failures are tolerated: mid-campaign a group can be
/// legitimately unfittable (a new PE count with too few sizes yet, a
/// composed kind whose donor hasn't arrived). Each failed refit is
/// retried twice with linear backoff, and [`Engine::ingest`]'s
/// pending-dirty contract retries the groups on the next batch
/// regardless. Bad *samples* are not an error at all: the engine's
/// quarantine policy absorbs them (see
/// [`crate::engine::QuarantinePolicy`]). After the channel drains, a
/// final `ingest(&[])` flush retries anything still outstanding.
///
/// # Errors
/// [`PipelineError::SourceStalled`] when no batch arrives within
/// `stall_timeout`; a fit error surviving the final flush is returned,
/// with everything ingested so far still applied.
pub fn consume<F>(
    engine: &Engine,
    rx: &Receiver<TrialBatch>,
    stall_timeout: Duration,
    mut on_snapshot: F,
) -> Result<StreamReport, PipelineError>
where
    F: FnMut(&TrialBatch, &Arc<EngineSnapshot>),
{
    let mut drain = Drain::new(engine);
    drain
        .run(rx, stall_timeout, &mut on_snapshot)
        .map_err(|waited_ms| PipelineError::SourceStalled { waited_ms })?;
    drain.flush(&mut on_snapshot)
}

/// Supervised consumption: drains successive [`BatchSource`]
/// incarnations through the same loop as [`consume`], restarting a
/// source that dies before delivering `expected_batches` distinct
/// sequence numbers or that stalls past `stall_timeout`.
/// `spawn_source(next_seq)` must produce a source resuming at batch
/// sequence `next_seq` (re-delivering earlier batches is harmless —
/// they change no bits, so the engine treats them as no-ops, which is
/// also why resuming from the last *published* generation needs no
/// rollback: the database already holds everything ingested before the
/// death).
///
/// # Errors
/// [`PipelineError::SourceFailed`] once `max_restarts` respawns are
/// exhausted; any error the final flush surfaces.
pub fn consume_supervised<S, F>(
    engine: &Engine,
    stall_timeout: Duration,
    expected_batches: u64,
    max_restarts: usize,
    mut spawn_source: S,
    mut on_snapshot: F,
) -> Result<SupervisedReport, PipelineError>
where
    S: FnMut(u64) -> Box<dyn BatchSource>,
    F: FnMut(&TrialBatch, &Arc<EngineSnapshot>),
{
    let mut drain = Drain::new(engine);
    let mut restarts = 0;
    let mut stalls = 0;
    loop {
        let source = spawn_source(drain.next_seq);
        if drain
            .run(source.receiver(), stall_timeout, &mut on_snapshot)
            .is_err()
        {
            stalls += 1;
        }
        source.stop();
        if drain.next_seq >= expected_batches {
            break;
        }
        if restarts >= max_restarts {
            return Err(PipelineError::SourceFailed {
                restarts,
                next_seq: drain.next_seq,
                expected: expected_batches,
            });
        }
        restarts += 1;
    }
    Ok(SupervisedReport {
        report: drain.flush(&mut on_snapshot)?,
        restarts,
        stalls,
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;

    use super::*;
    use crate::backend::{ModelBackend, PolyLsqBackend};
    use crate::pipeline::ModelBank;

    const STALL_TIMEOUT: Duration = Duration::from_secs(30);

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

    fn assert_banks_bit_equal(a: &crate::pipeline::ModelBank, b: &crate::pipeline::ModelBank) {
        assert_eq!(a.nt.len(), b.nt.len());
        for (key, ma) in &a.nt {
            let mb = b.nt.get(key).expect("key in both banks");
            for i in 0..4 {
                assert_eq!(ma.ka[i].to_bits(), mb.ka[i].to_bits(), "{key:?} ka[{i}]");
            }
            for i in 0..3 {
                assert_eq!(ma.kc[i].to_bits(), mb.kc[i].to_bits(), "{key:?} kc[{i}]");
            }
        }
        assert_eq!(a.pt.len(), b.pt.len());
        for (key, ma) in &a.pt {
            let mb = b.pt.get(key).expect("group in both banks");
            for i in 0..2 {
                assert_eq!(ma.ka[i].to_bits(), mb.ka[i].to_bits(), "{key:?} ka[{i}]");
            }
            for i in 0..3 {
                assert_eq!(ma.kc[i].to_bits(), mb.kc[i].to_bits(), "{key:?} kc[{i}]");
            }
        }
        assert_eq!(a.composed_kinds, b.composed_kinds);
        assert_eq!(a.composed_groups, b.composed_groups);
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
            channel_cap: 0,
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
                channel_cap: 2,
            },
            StreamConfig {
                batch_size: 64,
                shuffle_seed: Some(1234),
                duplicate_every: 1, // every trial delivered twice
                defer_every: 0,
                channel_cap: 0,
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
                        match e.ingest_batch(batch) {
                            Ok(_) => {}
                            Err(err) => assert!(
                                !matches!(err, PipelineError::NonFiniteSample { .. }),
                                "campaign data is finite"
                            ),
                        }
                    }
                }
            }
            let e = engine.expect("campaign must bootstrap an engine");
            // Flush whatever a trailing failed refit left dirty, then
            // the *incrementally built* bank must equal the one-shot
            // reference bit-for-bit.
            let final_snap = e.ingest(&[]).expect("flush fits: all data present");
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
        let source = TrialSource::spawn(
            trials.clone(),
            StreamConfig {
                batch_size: 5,
                shuffle_seed: Some(99),
                duplicate_every: 2,
                defer_every: 0,
                channel_cap: 2,
            },
        );
        let mut observed: Vec<u64> = Vec::new();
        let report = consume(&engine, source.receiver(), STALL_TIMEOUT, |_, snap| {
            observed.push(snap.generation());
        })
        .expect("stream ingests cleanly");
        source.join();
        assert!(report.batches > 0);
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

    /// Bad samples no longer abort the stream: the engine's quarantine
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
        let (tx, rx) = channel::unbounded();
        tx.send(TrialBatch {
            seq: 0,
            sim_time: 1.0,
            trials: vec![(bad_key, bad)],
        })
        .expect("receiver alive");
        tx.send(TrialBatch {
            seq: 1,
            sim_time: 2.0,
            trials: vec![(key, good)],
        })
        .expect("receiver alive");
        drop(tx);
        let report =
            consume(&engine, &rx, STALL_TIMEOUT, |_, _| {}).expect("bad samples are not fatal");
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

    /// A source that holds its sender open without sending must surface
    /// as a typed stall, not a hang.
    #[test]
    fn consumer_times_out_on_a_stalled_source() {
        let db = synth_db();
        let engine =
            Engine::new(Box::new(PolyLsqBackend::paper()), db, None).expect("synth db fits");
        let (tx, rx) = channel::unbounded::<TrialBatch>();
        let err =
            consume(&engine, &rx, Duration::from_millis(20), |_, _| {}).expect_err("must time out");
        assert_eq!(err, PipelineError::SourceStalled { waited_ms: 20 });
        drop(tx);
    }

    /// A test source delivering a fixed batch list then hanging up.
    struct ListSource {
        rx: Receiver<TrialBatch>,
        handle: thread::JoinHandle<()>,
    }

    fn list_source(batches: Vec<TrialBatch>) -> Box<dyn BatchSource> {
        let (tx, rx) = channel::unbounded();
        let handle = thread::spawn(move || {
            for batch in batches {
                if tx.send(batch).is_err() {
                    break;
                }
            }
        });
        Box::new(ListSource { rx, handle })
    }

    impl BatchSource for ListSource {
        fn receiver(&self) -> &Receiver<TrialBatch> {
            &self.rx
        }

        fn stop(self: Box<Self>) {
            drop(self.rx);
            if let Err(e) = self.handle.join() {
                std::panic::resume_unwind(e);
            }
        }
    }

    /// The supervisor contract: a source that dies halfway is respawned
    /// from the next undelivered sequence, and the engine still
    /// converges on the one-shot fit.
    #[test]
    fn supervisor_restarts_a_dead_source_and_converges() {
        let db = synth_db();
        let trials = trials_of_db(&db);
        let reference = PolyLsqBackend::paper().fit(&db).expect("one-shot fit");
        let engine = Engine::new(Box::new(PolyLsqBackend::paper()), stale_db(&trials), None)
            .expect("stale campaign fits");
        let batches = replay(
            &trials,
            &StreamConfig {
                batch_size: 5,
                ..StreamConfig::default()
            },
        );
        let expected = batches.len() as u64;
        let half = batches.len() / 2;
        let mut incarnation = 0usize;
        let sup = consume_supervised(
            &engine,
            STALL_TIMEOUT,
            expected,
            3,
            |next_seq| {
                incarnation += 1;
                let tail: Vec<TrialBatch> = batches
                    .iter()
                    .filter(|b| b.seq >= next_seq)
                    .cloned()
                    .collect();
                if incarnation == 1 {
                    // First incarnation dies after half the stream.
                    list_source(tail.into_iter().take(half).collect())
                } else {
                    list_source(tail)
                }
            },
            |_, _| {},
        )
        .expect("supervised stream completes");
        assert_eq!(sup.restarts, 1);
        assert_eq!(sup.stalls, 0);
        assert_eq!(incarnation, 2);
        assert_banks_bit_equal(engine.snapshot().bank(), &reference);
    }

    /// The restart budget is a hard stop: a source that keeps dying
    /// before completing surfaces as `SourceFailed`, not a spin loop.
    #[test]
    fn supervisor_gives_up_when_the_restart_budget_is_exhausted() {
        let db = synth_db();
        let engine =
            Engine::new(Box::new(PolyLsqBackend::paper()), db, None).expect("synth db fits");
        let err = consume_supervised(
            &engine,
            STALL_TIMEOUT,
            5,
            2,
            |_| list_source(Vec::new()), // dies immediately, every time
            |_, _| {},
        )
        .expect_err("must give up");
        assert_eq!(
            err,
            PipelineError::SourceFailed {
                restarts: 2,
                next_seq: 0,
                expected: 5
            }
        );
    }

    /// The paper backend, except that its first `failures` refits fail.
    struct FailingRefits {
        inner: PolyLsqBackend,
        failures: AtomicUsize,
    }

    impl ModelBackend for FailingRefits {
        fn name(&self) -> &'static str {
            "failing_refits"
        }

        fn fit(&self, db: &MeasurementDb) -> Result<ModelBank, PipelineError> {
            self.inner.fit(db)
        }

        fn refit_groups(
            &self,
            db: &MeasurementDb,
            previous: &ModelBank,
            dirty: &BTreeSet<(usize, usize)>,
        ) -> Result<ModelBank, PipelineError> {
            let fail = self
                .failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
            if fail {
                return Err(PipelineError::NoDonor { kind: 99, m: 99 });
            }
            self.inner.refit_groups(db, previous, dirty)
        }
    }

    /// Streams the true synth campaign through `consume` into an engine
    /// seeded with the stale one, whose first `failures` refits fail.
    fn stream_with_failing_refits(failures: usize) -> (Engine, StreamReport) {
        let trials = trials_of_db(&synth_db());
        let backend = FailingRefits {
            inner: PolyLsqBackend::paper(),
            failures: AtomicUsize::new(failures),
        };
        let engine =
            Engine::new(Box::new(backend), stale_db(&trials), None).expect("stale campaign fits");
        let source = TrialSource::spawn(
            trials,
            StreamConfig {
                batch_size: 5,
                ..StreamConfig::default()
            },
        );
        let report =
            consume(&engine, source.receiver(), STALL_TIMEOUT, |_, _| {}).expect("stream drains");
        source.join();
        (engine, report)
    }

    /// A refit that fails at most twice is retried within its batch:
    /// every failure costs one retry and no batch is charged an error.
    #[test]
    fn consume_retries_a_failed_refit_within_its_batch() {
        for failures in 0..=2 {
            let (_, report) = stream_with_failing_refits(failures);
            assert_eq!(report.fit_retries, failures, "{failures} failures");
            assert_eq!(report.fit_errors, 0, "{failures} failures");
        }
    }

    /// A refit that outlasts both retries charges its batch one fit
    /// error; the pending-dirty contract refits it with a later batch,
    /// so the final bank still equals the one-shot fit bit for bit.
    #[test]
    fn consume_charges_a_batch_whose_refit_outlasts_every_retry() {
        let (engine, report) = stream_with_failing_refits(3);
        assert_eq!(report.fit_retries, 2);
        assert_eq!(report.fit_errors, 1);
        let reference = PolyLsqBackend::paper()
            .fit(&synth_db())
            .expect("one-shot fit");
        assert_banks_bit_equal(engine.snapshot().bank(), &reference);
    }
}
