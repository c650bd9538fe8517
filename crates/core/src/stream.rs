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
//! Robustness (the degradation ladder's transport rungs): a consumer
//! configured with [`ConsumeOptions::stall_timeout`] surfaces a source
//! that stops sending as a typed [`PipelineError::SourceStalled`]
//! instead of blocking forever; transient fit errors are retried with
//! bounded backoff before being charged to the report; and
//! [`consume_supervised`] restarts a dead or stalled [`BatchSource`]
//! from the last delivered batch sequence, giving up with
//! [`PipelineError::SourceFailed`] only when the restart budget is
//! exhausted.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use etm_support::channel::{self, Receiver, RecvTimeoutError, Sender};
use etm_support::hash::Fnv1a;
use etm_support::rng::Rng64;
use etm_support::sync::Mutex;

use crate::backend::{ModelBackend, ShardBackend};
use crate::engine::{merged_snapshot, Engine, EngineSnapshot, QuarantinePolicy};
use crate::measurement::{MeasurementDb, Sample, SampleKey};
use crate::pipeline::{AdjustmentPolicy, PipelineError};

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

/// Rejected time-compression scale for [`TrialSource::spawn_paced`].
///
/// The pacer divides every batch deadline by the scale, so the scale
/// must be a positive finite factor; anything else is refused up front
/// instead of spinning, stalling, or dividing by zero in the source
/// thread.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PaceError {
    /// The scale was NaN or ±∞.
    NonFinite(f64),
    /// The scale was zero or negative.
    NonPositive(f64),
}

impl std::fmt::Display for PaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PaceError::NonFinite(s) => {
                write!(f, "pacing time_scale must be finite, got {s}")
            }
            PaceError::NonPositive(s) => {
                write!(f, "pacing time_scale must be positive, got {s}")
            }
        }
    }
}

impl std::error::Error for PaceError {}

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
        Self::spawn_inner(trials, cfg, None)
    }

    /// Spawns a *wall-clock-paced* source: each batch is withheld until
    /// `sim_time / time_scale` seconds have elapsed since spawn, so the
    /// stream arrives at the cadence the measurement campaign actually
    /// ran at (scaled). `time_scale` is the speed-up factor: `1.0`
    /// replays in real time, `1e6` compresses an hour-long campaign
    /// into milliseconds (what CI uses), fractions slow it down.
    ///
    /// Dropping every receiver or calling [`TrialSource::join`] stops
    /// the pacer promptly even mid-sleep.
    ///
    /// # Errors
    /// [`PaceError`]: a zero or negative scale would make the pacer
    /// divide-by-zero into an infinite (or negated) deadline, and a
    /// NaN/infinite scale would spin or stall it — both are rejected
    /// before any thread is spawned.
    pub fn spawn_paced(
        trials: Vec<(SampleKey, Sample)>,
        cfg: StreamConfig,
        time_scale: f64,
    ) -> Result<Self, PaceError> {
        if !time_scale.is_finite() {
            return Err(PaceError::NonFinite(time_scale));
        }
        if time_scale <= 0.0 {
            return Err(PaceError::NonPositive(time_scale));
        }
        Ok(Self::spawn_inner(trials, cfg, Some(time_scale)))
    }

    fn spawn_inner(
        trials: Vec<(SampleKey, Sample)>,
        cfg: StreamConfig,
        time_scale: Option<f64>,
    ) -> Self {
        let batches = replay(&trials, &cfg);
        let (tx, rx) = if cfg.channel_cap > 0 {
            channel::bounded(cfg.channel_cap)
        } else {
            channel::unbounded()
        };
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = thread::spawn(move || {
            let start = Instant::now();
            'emit: for batch in batches {
                if let Some(scale) = time_scale {
                    // Sleep in short chunks so a stop request (join or
                    // receiver hangup) interrupts the pacing promptly.
                    let due = Duration::from_secs_f64((batch.sim_time / scale).max(0.0));
                    loop {
                        if flag.load(Ordering::Relaxed) {
                            break 'emit;
                        }
                        let elapsed = start.elapsed();
                        if elapsed >= due {
                            break;
                        }
                        thread::sleep((due - elapsed).min(Duration::from_millis(25)));
                    }
                }
                if flag.load(Ordering::Relaxed) || tx.send(batch).is_err() {
                    break; // stop requested or every receiver hung up
                }
            }
        });
        TrialSource { rx, handle, stop }
    }

    /// The batch stream; clone the receiver to share work between
    /// consumers (each batch goes to exactly one).
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
    /// Fit retries attempted under [`ConsumeOptions::max_fit_retries`].
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

/// Fault-handling knobs for [`consume_with`] / [`consume_supervised`].
#[derive(Clone, Copy, Debug)]
pub struct ConsumeOptions {
    /// How long a blocked receive may wait before the source is
    /// declared stalled. `None` waits forever (the pre-hardening
    /// behavior); [`consume`] surfaces a stall as
    /// [`PipelineError::SourceStalled`], the supervisor restarts.
    pub stall_timeout: Option<Duration>,
    /// How many times a failed refit is retried (each retry is an empty
    /// flush ingest, so it re-attempts everything pending-dirty) before
    /// the batch is charged to [`StreamReport::fit_errors`] and the
    /// stream moves on.
    pub max_fit_retries: usize,
    /// Base backoff between fit retries; the k-th retry sleeps
    /// `k × retry_backoff`.
    pub retry_backoff: Duration,
}

impl Default for ConsumeOptions {
    fn default() -> Self {
        ConsumeOptions {
            stall_timeout: Some(Duration::from_secs(30)),
            max_fit_retries: 2,
            retry_backoff: Duration::from_millis(1),
        }
    }
}

/// Receives the next batch: `Ok(Some)` on delivery, `Ok(None)` when
/// every sender hung up, `Err(waited_ms)` on a stall timeout.
fn next_batch(
    rx: &Receiver<TrialBatch>,
    stall_timeout: Option<Duration>,
) -> Result<Option<TrialBatch>, u64> {
    match stall_timeout {
        None => Ok(rx.recv().ok()),
        Some(timeout) => match rx.recv_timeout(timeout) {
            Ok(batch) => Ok(Some(batch)),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => Err(timeout.as_millis() as u64),
        },
    }
}

/// Ingests one batch, retrying a failed refit up to the option budget
/// with linear backoff; publishes through `on_snapshot` on a generation
/// change. A batch whose refit survives every retry is charged to
/// `fit_errors` — the engine's pending-dirty contract keeps its samples
/// for a later batch or the final flush.
fn ingest_with_retry<F>(
    engine: &Engine,
    batch: &TrialBatch,
    opts: &ConsumeOptions,
    report: &mut StreamReport,
    last_generation: &mut u64,
    on_snapshot: &mut F,
) where
    F: FnMut(&TrialBatch, &Arc<EngineSnapshot>),
{
    let mut publish = |snapshot: &Arc<EngineSnapshot>, report: &mut StreamReport| {
        if snapshot.generation() != *last_generation {
            *last_generation = snapshot.generation();
            report.published += 1;
            on_snapshot(batch, snapshot);
        }
    };
    if let Ok(snapshot) = engine.ingest_batch(batch) {
        publish(&snapshot, report);
        return;
    }
    for attempt in 1..=opts.max_fit_retries {
        report.fit_retries += 1;
        thread::sleep(opts.retry_backoff.saturating_mul(attempt as u32));
        // The batch's samples are already upserted; an empty flush
        // re-attempts the refit of everything pending-dirty.
        if let Ok(snapshot) = engine.ingest(&[]) {
            publish(&snapshot, report);
            return;
        }
    }
    report.fit_errors += 1;
}

/// Final flush: a trailing failed refit would otherwise leave the
/// published bank behind the database.
fn flush<F>(
    engine: &Engine,
    report: &mut StreamReport,
    last_generation: u64,
    last_batch: Option<&TrialBatch>,
    on_snapshot: &mut F,
) -> Result<(), PipelineError>
where
    F: FnMut(&TrialBatch, &Arc<EngineSnapshot>),
{
    let snapshot = engine.ingest(&[])?;
    if snapshot.generation() != last_generation {
        report.published += 1;
        if let Some(batch) = last_batch {
            on_snapshot(batch, &snapshot);
        }
    }
    Ok(())
}

/// Drains a batch stream into an engine with [`ConsumeOptions::default`]
/// — a 30 s stall timeout and two fit retries per batch. See
/// [`consume_with`].
///
/// # Errors
/// See [`consume_with`].
pub fn consume<F>(
    engine: &Engine,
    rx: &Receiver<TrialBatch>,
    on_snapshot: F,
) -> Result<StreamReport, PipelineError>
where
    F: FnMut(&TrialBatch, &Arc<EngineSnapshot>),
{
    consume_with(engine, rx, ConsumeOptions::default(), on_snapshot)
}

/// Drains a batch stream into an engine, publishing a snapshot per
/// effective batch and handing each to `on_snapshot` (no-op batches —
/// duplicates, re-deliveries — publish nothing and invoke nothing new;
/// the observer only sees generation *changes*).
///
/// Transient *fit* failures are tolerated: mid-campaign a group can be
/// legitimately unfittable (a new PE count with too few sizes yet, a
/// composed kind whose donor hasn't arrived). Each failed refit is
/// retried up to [`ConsumeOptions::max_fit_retries`] times with linear
/// backoff, and [`Engine::ingest`]'s pending-dirty contract retries the
/// groups on the next batch regardless. Bad *samples* are not an error
/// at all: the engine's quarantine policy absorbs them (see
/// [`crate::engine::QuarantinePolicy`]). After the channel drains, a
/// final `ingest(&[])` flush retries anything still outstanding.
///
/// # Errors
/// [`PipelineError::SourceStalled`] when no batch arrives within
/// [`ConsumeOptions::stall_timeout`]; a fit error surviving the final
/// flush is returned, with everything ingested so far still applied.
pub fn consume_with<F>(
    engine: &Engine,
    rx: &Receiver<TrialBatch>,
    opts: ConsumeOptions,
    mut on_snapshot: F,
) -> Result<StreamReport, PipelineError>
where
    F: FnMut(&TrialBatch, &Arc<EngineSnapshot>),
{
    let mut report = StreamReport::default();
    let mut last_generation = engine.snapshot().generation();
    let mut last_batch: Option<TrialBatch> = None;
    loop {
        let batch = match next_batch(rx, opts.stall_timeout) {
            Ok(Some(batch)) => batch,
            Ok(None) => break,
            Err(waited_ms) => return Err(PipelineError::SourceStalled { waited_ms }),
        };
        report.batches += 1;
        ingest_with_retry(
            engine,
            &batch,
            &opts,
            &mut report,
            &mut last_generation,
            &mut on_snapshot,
        );
        last_batch = Some(batch);
    }
    flush(
        engine,
        &mut report,
        last_generation,
        last_batch.as_ref(),
        &mut on_snapshot,
    )?;
    Ok(report)
}

/// Supervised consumption: drains successive [`BatchSource`]
/// incarnations, restarting a source that dies before delivering
/// `expected_batches` distinct sequence numbers or that stalls past the
/// timeout. `spawn_source(next_seq)` must produce a source resuming at
/// batch sequence `next_seq` (re-delivering earlier batches is harmless
/// — they change no bits, so the engine treats them as no-ops, which is also why
/// resuming from the last *published* generation needs no rollback:
/// the database already holds everything ingested before the death).
///
/// # Errors
/// [`PipelineError::SourceFailed`] once `max_restarts` respawns are
/// exhausted; any error the final flush surfaces.
pub fn consume_supervised<S, F>(
    engine: &Engine,
    opts: ConsumeOptions,
    expected_batches: u64,
    max_restarts: usize,
    mut spawn_source: S,
    mut on_snapshot: F,
) -> Result<SupervisedReport, PipelineError>
where
    S: FnMut(u64) -> Box<dyn BatchSource>,
    F: FnMut(&TrialBatch, &Arc<EngineSnapshot>),
{
    let mut sup = SupervisedReport::default();
    let mut last_generation = engine.snapshot().generation();
    let mut last_batch: Option<TrialBatch> = None;
    let mut next_seq = 0u64;
    loop {
        let source = spawn_source(next_seq);
        let rx = source.receiver().clone();
        let mut stalled = false;
        loop {
            let batch = match next_batch(&rx, opts.stall_timeout) {
                Ok(Some(batch)) => batch,
                Ok(None) => break,
                Err(_) => {
                    stalled = true;
                    break;
                }
            };
            sup.report.batches += 1;
            next_seq = next_seq.max(batch.seq + 1);
            ingest_with_retry(
                engine,
                &batch,
                &opts,
                &mut sup.report,
                &mut last_generation,
                &mut on_snapshot,
            );
            last_batch = Some(batch);
        }
        // Drop our receiver clone before stopping so a healthy source
        // thread sees the hangup and exits.
        drop(rx);
        source.stop();
        if stalled {
            sup.stalls += 1;
        }
        if next_seq >= expected_batches {
            break;
        }
        if sup.restarts >= max_restarts {
            return Err(PipelineError::SourceFailed {
                restarts: sup.restarts,
                next_seq,
                expected: expected_batches,
            });
        }
        sup.restarts += 1;
    }
    flush(
        engine,
        &mut sup.report,
        last_generation,
        last_batch.as_ref(),
        &mut on_snapshot,
    )?;
    Ok(sup)
}

/// Static ownership map from `(kind, M)` groups to shard indices.
///
/// Ownership is a pure hash of the group identity (FNV-1a over the two
/// coordinates, mod pool width), so every consumer — and every test —
/// derives the same partition with no coordination. Because *all* PE
/// counts of a group share one `(kind, m)` pair, a shard always owns
/// every `SampleKey` a group's fit reads, which is what makes per-shard
/// incremental refits exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    width: usize,
}

impl ShardPlan {
    /// A plan over `width` shards.
    ///
    /// # Panics
    /// Panics when `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width >= 1, "shard pool width must be at least 1");
        ShardPlan { width }
    }

    /// The pool width the plan partitions over.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The shard that owns `(kind, m)` — stable across processes and
    /// pool runs of the same width.
    pub fn owner(&self, group: (usize, usize)) -> usize {
        let mut h = Fnv1a::new();
        h.update(&(group.0 as u64).to_le_bytes());
        h.update(&(group.1 as u64).to_le_bytes());
        (h.finish() % self.width as u64) as usize
    }
}

/// A batch slice forwarded to one shard, tagged with the pool-wide
/// arrival index of the pull that produced it.
struct SubBatch {
    tag: u64,
    batch: TrialBatch,
}

/// Shared coordination state for one pool incarnation.
struct PoolState {
    /// Held (CAS true) by the one worker currently pulling from the
    /// source channel, so arrival tags match the channel's pop order.
    pull_token: AtomicBool,
    /// Next arrival tag; incremented only by the token holder.
    arrivals: AtomicU64,
    /// Total batches pulled (accumulates across incarnations).
    pulled: AtomicU64,
    /// Set when the source channel disconnects: stop pulling, drain.
    done: AtomicBool,
    /// Set on a stall verdict: abandon the incarnation (no flush).
    abort: AtomicBool,
    /// Nanoseconds since `start` of the last successful pull; the stall
    /// clock is pool-wide, like the single consumer's blocked receive.
    last_pull_nanos: AtomicU64,
    /// Stall verdict in milliseconds; `u64::MAX` means none.
    stalled_ms: AtomicU64,
    /// `min` over workers of the batch sequence each shard has fully
    /// ingested up to (+1) — the safe restart point. `u64::MAX` until
    /// the first worker exits.
    resume: AtomicU64,
    start: Instant,
}

impl PoolState {
    fn new() -> Self {
        PoolState {
            pull_token: AtomicBool::new(false),
            arrivals: AtomicU64::new(0),
            pulled: AtomicU64::new(0),
            done: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            last_pull_nanos: AtomicU64::new(0),
            stalled_ms: AtomicU64::new(u64::MAX),
            resume: AtomicU64::new(u64::MAX),
            start: Instant::now(),
        }
    }
}

/// What a [`ShardedConsumer`] did with a drained stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardedReport {
    /// Per-shard ingestion reports, indexed by shard. A shard's
    /// `batches` counts only batches that carried trials it owns.
    pub shards: Vec<StreamReport>,
    /// Distinct pulls from the source channel across the whole pool
    /// (the analogue of the single consumer's `batches`).
    pub batches: usize,
    /// Sources respawned by [`ShardedConsumer::consume_supervised`].
    pub restarts: usize,
    /// Incarnations declared stalled by the stall timeout.
    pub stalls: usize,
}

impl ShardedReport {
    /// The pool-wide totals, summed over shards.
    pub fn total(&self) -> StreamReport {
        let mut total = StreamReport {
            batches: self.batches,
            ..StreamReport::default()
        };
        for shard in &self.shards {
            total.published += shard.published;
            total.fit_errors += shard.fit_errors;
            total.fit_retries += shard.fit_retries;
        }
        total
    }
}

/// How one pool incarnation ended.
enum PoolOutcome {
    /// Source disconnected and every forwarded batch was ingested.
    Completed,
    /// Stall verdict: no pull succeeded for the stall timeout.
    Stalled(u64),
}

/// A pool of shard workers draining one mpmc batch stream in parallel,
/// with a deterministic merge publishing a single combined
/// [`EngineSnapshot`].
///
/// Each worker owns the disjoint group set [`ShardPlan::owner`] assigns
/// it, runs its own [`Engine`] (wrapped in
/// [`crate::backend::ShardBackend`] so cross-shard donor groups are
/// skipped, not errors), and keeps its own quarantine ledger — the PR-5
/// fault semantics, per shard. The merge refits the union database with
/// the *strict* backend under the union quarantine set, so the merged
/// bank is bit-identical to what the single-consumer [`consume`] run
/// publishes at any pool width (asserted in tests and by
/// `repro shards`).
///
/// Ordering rule that makes this exact: exactly one worker holds the
/// pull token at a time and stamps each pulled batch with a contiguous
/// arrival tag, then forwards each shard its slice of the batch (empty
/// slices included, so tags never gap). Workers ingest strictly in tag
/// order. Every group's samples therefore arrive at its owning shard in
/// the channel's pop order — the same order a single consumer would
/// apply them — and the quarantine ledger's order-sensitive
/// re-admission accounting matches bit-for-bit.
pub struct ShardedConsumer {
    plan: ShardPlan,
    merge_backend: Box<dyn ModelBackend>,
    policy: Option<AdjustmentPolicy>,
    options: ConsumeOptions,
    engines: Vec<Engine>,
    merged: Mutex<Arc<EngineSnapshot>>,
    merge_meta: Mutex<MergeMeta>,
}

struct MergeMeta {
    generation: u64,
    last_healthy: u64,
}

impl ShardedConsumer {
    /// Builds a pool of `width` shard engines, each seeded with its
    /// slice of `seed_db`, and publishes generation 0 of the merged
    /// snapshot (a strict fit of the whole seed database — this errors
    /// exactly when `Engine::new` on the same inputs would).
    ///
    /// `make_backend` is called once per shard plus once for the merge,
    /// so every fit uses an identically configured backend. The
    /// adjustment `policy` applies to the *merged* estimator only;
    /// shard-local snapshots are internal fitting state.
    ///
    /// # Errors
    /// Any fit error from seeding the shards or the merged bank.
    pub fn new<B>(
        width: usize,
        make_backend: B,
        seed_db: MeasurementDb,
        policy: Option<AdjustmentPolicy>,
        quarantine: QuarantinePolicy,
        options: ConsumeOptions,
    ) -> Result<Self, PipelineError>
    where
        B: Fn() -> Box<dyn ModelBackend>,
    {
        let plan = ShardPlan::new(width);
        let mut shard_dbs: Vec<MeasurementDb> = (0..width).map(|_| MeasurementDb::new()).collect();
        for key in seed_db.keys() {
            let shard = plan.owner((key.kind, key.m));
            for sample in seed_db.samples(key) {
                shard_dbs[shard].upsert(*key, *sample);
            }
        }
        let engines = shard_dbs
            .into_iter()
            .map(|db| {
                Engine::new(Box::new(ShardBackend::new(make_backend())), db, None)
                    .map(|e| e.with_quarantine_policy(quarantine))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let merge_backend = make_backend();
        let merged = merged_snapshot(
            merge_backend.as_ref(),
            policy.as_ref(),
            &seed_db,
            &BTreeSet::new(),
            0,
            0,
            0,
        )?;
        Ok(ShardedConsumer {
            plan,
            merge_backend,
            policy,
            options,
            engines,
            merged: Mutex::new(merged),
            merge_meta: Mutex::new(MergeMeta {
                generation: 0,
                last_healthy: 0,
            }),
        })
    }

    /// The ownership plan in effect.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Pool width.
    pub fn width(&self) -> usize {
        self.plan.width()
    }

    /// The current *merged* snapshot — the slot an online optimizer
    /// (`etm_search::online`) observes. A pointer clone under a
    /// momentary lock.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.merged.lock().clone()
    }

    /// Union of the shards' live quarantine ledgers, sorted — the
    /// health-union the next merge will carry.
    pub fn quarantined(&self) -> Vec<(usize, usize)> {
        let set: BTreeSet<(usize, usize)> =
            self.engines.iter().flat_map(|e| e.quarantined()).collect();
        set.into_iter().collect()
    }

    /// Total samples rejected outright across shards.
    pub fn rejected_samples(&self) -> usize {
        self.engines.iter().map(Engine::rejected_samples).sum()
    }

    /// The union measurement database across shards. Groups are
    /// disjoint, so the union is order-independent and equals the
    /// database a single consumer of the same stream holds.
    pub fn union_db(&self) -> MeasurementDb {
        let mut db = MeasurementDb::new();
        for engine in &self.engines {
            let shard = engine.db();
            for key in shard.keys() {
                for sample in shard.samples(key) {
                    db.upsert(*key, *sample);
                }
            }
        }
        db
    }

    /// Recomputes and publishes the merged snapshot: a strict full fit
    /// of the union database, served under the union quarantine set,
    /// with `rejected` summed across shards. Generation is the merge
    /// counter (monotone per consumer — generations are a per-consumer
    /// notion and are *not* part of the bit-identity contract; the bank,
    /// quarantine set, and fallback set are).
    ///
    /// Callable mid-stream for a live view (consistent per group; exact
    /// pool-wide once the stream quiesces) and invoked automatically
    /// when [`ShardedConsumer::consume`] or
    /// [`ShardedConsumer::consume_supervised`] finishes.
    ///
    /// # Errors
    /// Any strict fit error on the union database.
    pub fn merge(&self) -> Result<Arc<EngineSnapshot>, PipelineError> {
        let db = self.union_db();
        let quarantined: BTreeSet<(usize, usize)> =
            self.engines.iter().flat_map(|e| e.quarantined()).collect();
        let rejected = self.rejected_samples();
        // Read the counters under a momentary lock, fit with no lock
        // held (the full fit is the expensive part), then commit both
        // the counters and the slot. The commit is conditional on the
        // fit succeeding, so a failed merge never burns a generation.
        let (generation, last_healthy) = {
            let meta = self.merge_meta.lock();
            let generation = meta.generation + 1;
            let last_healthy = if quarantined.is_empty() {
                generation
            } else {
                meta.last_healthy
            };
            (generation, last_healthy)
        };
        let snapshot = merged_snapshot(
            self.merge_backend.as_ref(),
            self.policy.as_ref(),
            &db,
            &quarantined,
            generation,
            last_healthy,
            rejected,
        )?;
        {
            let mut meta = self.merge_meta.lock();
            meta.generation = generation;
            meta.last_healthy = last_healthy;
        }
        *self.merged.lock() = Arc::clone(&snapshot);
        Ok(snapshot)
    }

    /// Drains a batch stream through the pool, then flushes every shard
    /// and publishes the merged snapshot.
    ///
    /// # Errors
    /// [`PipelineError::SourceStalled`] when no pull succeeds within
    /// [`ConsumeOptions::stall_timeout`] (pool-wide clock); any fit
    /// error surviving a shard's final flush; any merge fit error.
    pub fn consume(&self, rx: &Receiver<TrialBatch>) -> Result<ShardedReport, PipelineError> {
        let width = self.width();
        let mut reports = vec![StreamReport::default(); width];
        let mut last_gens: Vec<u64> = self
            .engines
            .iter()
            .map(|e| e.snapshot().generation())
            .collect();
        let mut last_batches: Vec<Option<TrialBatch>> = vec![None; width];
        let state = PoolState::new();
        let outcome = self.pool_run(rx, &state, &mut reports, &mut last_gens, &mut last_batches);
        if let PoolOutcome::Stalled(waited_ms) = outcome {
            return Err(PipelineError::SourceStalled { waited_ms });
        }
        self.finish_run(reports, last_gens, last_batches, &state, 0, 0)
    }

    /// Supervised pool consumption: mirrors [`consume_supervised`] —
    /// respawns a source that dies or stalls before `expected_batches`
    /// distinct sequence numbers have been *fully ingested by every
    /// shard*, resuming from the pool-wide safe point (the minimum over
    /// shards of what each has contiguously applied; re-delivery is
    /// harmless, loss is not).
    ///
    /// # Errors
    /// [`PipelineError::SourceFailed`] once `max_restarts` respawns are
    /// exhausted; any shard flush or merge error at the end.
    pub fn consume_supervised<S>(
        &self,
        expected_batches: u64,
        max_restarts: usize,
        mut spawn_source: S,
    ) -> Result<ShardedReport, PipelineError>
    where
        S: FnMut(u64) -> Box<dyn BatchSource>,
    {
        let width = self.width();
        let mut reports = vec![StreamReport::default(); width];
        let mut last_gens: Vec<u64> = self
            .engines
            .iter()
            .map(|e| e.snapshot().generation())
            .collect();
        let mut last_batches: Vec<Option<TrialBatch>> = vec![None; width];
        let mut restarts = 0usize;
        let mut stalls = 0usize;
        let mut next_seq = 0u64;
        let mut pulled_total = 0usize;
        loop {
            let source = spawn_source(next_seq);
            let rx = source.receiver().clone();
            let state = PoolState::new();
            let outcome =
                self.pool_run(&rx, &state, &mut reports, &mut last_gens, &mut last_batches);
            pulled_total += state.pulled.load(Ordering::SeqCst) as usize;
            // Drop our receiver clone before stopping so a healthy
            // source thread sees the hangup and exits.
            drop(rx);
            source.stop();
            if matches!(outcome, PoolOutcome::Stalled(_)) {
                stalls += 1;
            }
            let resume = match state.resume.load(Ordering::SeqCst) {
                u64::MAX => 0,
                v => v,
            };
            next_seq = next_seq.max(resume);
            if next_seq >= expected_batches {
                break;
            }
            if restarts >= max_restarts {
                return Err(PipelineError::SourceFailed {
                    restarts,
                    next_seq,
                    expected: expected_batches,
                });
            }
            restarts += 1;
        }
        let state = PoolState::new();
        state.pulled.store(pulled_total as u64, Ordering::SeqCst);
        self.finish_run(reports, last_gens, last_batches, &state, restarts, stalls)
    }

    /// Flushes every shard, merges, and assembles the report. (Named
    /// to avoid a bare-name collision with `Fnv1a::finish` in the
    /// analyzer's approximate call graph — C001 resolves callees by
    /// simple name.)
    fn finish_run(
        &self,
        mut reports: Vec<StreamReport>,
        last_gens: Vec<u64>,
        last_batches: Vec<Option<TrialBatch>>,
        state: &PoolState,
        restarts: usize,
        stalls: usize,
    ) -> Result<ShardedReport, PipelineError> {
        let mut sink = |_: &TrialBatch, _: &Arc<EngineSnapshot>| {};
        for (i, engine) in self.engines.iter().enumerate() {
            flush(
                engine,
                &mut reports[i],
                last_gens[i],
                last_batches[i].as_ref(),
                &mut sink,
            )?;
        }
        self.merge()?;
        Ok(ShardedReport {
            shards: reports,
            batches: state.pulled.load(Ordering::SeqCst) as usize,
            restarts,
            stalls,
        })
    }

    /// Runs one pool incarnation to completion, stall, or abort.
    fn pool_run(
        &self,
        rx: &Receiver<TrialBatch>,
        state: &PoolState,
        reports: &mut [StreamReport],
        last_gens: &mut [u64],
        last_batches: &mut [Option<TrialBatch>],
    ) -> PoolOutcome {
        let width = self.width();
        let mut forward_tx: Vec<Sender<SubBatch>> = Vec::with_capacity(width);
        let mut forward_rx: Vec<Receiver<SubBatch>> = Vec::with_capacity(width);
        for _ in 0..width {
            let (tx, frx) = channel::unbounded::<SubBatch>();
            forward_tx.push(tx);
            forward_rx.push(frx);
        }
        thread::scope(|scope| {
            let slots = self
                .engines
                .iter()
                .zip(forward_rx)
                .zip(reports.iter_mut().zip(last_gens.iter_mut()))
                .zip(last_batches.iter_mut());
            for (((engine, fwd_rx), (report, last_gen)), last_batch) in slots {
                let senders = forward_tx.clone();
                let rx = rx.clone();
                let plan = self.plan;
                let opts = self.options;
                scope.spawn(move || {
                    shard_worker(
                        engine, rx, fwd_rx, senders, plan, opts, state, report, last_gen,
                        last_batch,
                    );
                });
            }
            drop(forward_tx);
        });
        match state.stalled_ms.load(Ordering::SeqCst) {
            u64::MAX => PoolOutcome::Completed,
            ms => PoolOutcome::Stalled(ms),
        }
    }
}

/// Splits a batch into one per-shard slice each (empty slices included,
/// so every shard's tag sequence stays contiguous).
fn partition_batch(plan: &ShardPlan, batch: &TrialBatch) -> Vec<TrialBatch> {
    let mut parts: Vec<Vec<(SampleKey, Sample)>> = vec![Vec::new(); plan.width()];
    for (key, sample) in &batch.trials {
        parts[plan.owner((key.kind, key.m))].push((*key, *sample));
    }
    parts
        .into_iter()
        .map(|trials| TrialBatch {
            seq: batch.seq,
            sim_time: batch.sim_time,
            trials,
        })
        .collect()
}

/// One shard worker: alternates between applying forwarded sub-batches
/// in arrival-tag order and (when it can grab the pull token) pulling
/// the next batch off the source channel for the whole pool.
#[allow(clippy::too_many_arguments)]
fn shard_worker(
    engine: &Engine,
    rx: Receiver<TrialBatch>,
    fwd_rx: Receiver<SubBatch>,
    senders: Vec<Sender<SubBatch>>,
    plan: ShardPlan,
    opts: ConsumeOptions,
    state: &PoolState,
    report: &mut StreamReport,
    last_generation: &mut u64,
    last_batch: &mut Option<TrialBatch>,
) {
    let mut on_snapshot = |_: &TrialBatch, _: &Arc<EngineSnapshot>| {};
    let mut buffer: BTreeMap<u64, TrialBatch> = BTreeMap::new();
    let mut next_tag = 0u64;
    // `batch.seq + 1` over everything applied at the contiguous
    // watermark — this shard's safe restart point.
    let mut local_resume = 0u64;
    let mut senders = Some(senders);
    // Pull with a short poll so the pool-wide stall clock is checked
    // even while another worker nominally holds the next batch.
    let poll = opts.stall_timeout.map(|t| t.min(Duration::from_millis(25)));
    let mut apply_ready = |buffer: &mut BTreeMap<u64, TrialBatch>,
                           next_tag: &mut u64,
                           local_resume: &mut u64,
                           report: &mut StreamReport,
                           last_generation: &mut u64,
                           last_batch: &mut Option<TrialBatch>| {
        while let Some(batch) = buffer.remove(next_tag) {
            *next_tag += 1;
            *local_resume = (*local_resume).max(batch.seq + 1);
            if batch.trials.is_empty() {
                continue; // watermark-only slice; nothing owned here
            }
            report.batches += 1;
            ingest_with_retry(
                engine,
                &batch,
                &opts,
                report,
                last_generation,
                &mut on_snapshot,
            );
            *last_batch = Some(batch);
        }
    };
    loop {
        // Apply everything contiguous first — ingestion order is the
        // arrival-tag order, never the forwarding interleave.
        while let Some(sub) = fwd_rx.try_recv() {
            buffer.insert(sub.tag, sub.batch);
        }
        apply_ready(
            &mut buffer,
            &mut next_tag,
            &mut local_resume,
            report,
            last_generation,
            last_batch,
        );
        if state.abort.load(Ordering::SeqCst) {
            break;
        }
        if state.done.load(Ordering::SeqCst) {
            // Source drained: hang up our forward senders and consume
            // the rest of the queue to disconnection. Every pull was
            // forwarded to every shard, so the buffer ends contiguous.
            drop(senders.take());
            match fwd_rx.recv() {
                Ok(sub) => {
                    buffer.insert(sub.tag, sub.batch);
                    apply_ready(
                        &mut buffer,
                        &mut next_tag,
                        &mut local_resume,
                        report,
                        last_generation,
                        last_batch,
                    );
                }
                Err(_) => break,
            }
            continue;
        }
        // Exactly one worker pulls at a time, so the arrival tag equals
        // the channel's pop order — the single-consumer order.
        if state
            .pull_token
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            let received = match poll {
                None => rx.recv().ok(),
                Some(poll) => match rx.recv_timeout(poll) {
                    Ok(batch) => Some(batch),
                    Err(RecvTimeoutError::Disconnected) => None,
                    Err(RecvTimeoutError::Timeout) => {
                        if let Some(stall) = opts.stall_timeout {
                            let now = state.start.elapsed().as_nanos() as u64;
                            let since =
                                now.saturating_sub(state.last_pull_nanos.load(Ordering::SeqCst));
                            if since >= stall.as_nanos() as u64 {
                                state
                                    .stalled_ms
                                    .store(stall.as_millis() as u64, Ordering::SeqCst);
                                state.abort.store(true, Ordering::SeqCst);
                            }
                        }
                        state.pull_token.store(false, Ordering::SeqCst);
                        continue;
                    }
                },
            };
            match received {
                Some(batch) => {
                    let tag = state.arrivals.fetch_add(1, Ordering::SeqCst);
                    state
                        .last_pull_nanos
                        .store(state.start.elapsed().as_nanos() as u64, Ordering::SeqCst);
                    state.pulled.fetch_add(1, Ordering::SeqCst);
                    state.pull_token.store(false, Ordering::SeqCst);
                    let subs = partition_batch(&plan, &batch);
                    if let Some(txs) = senders.as_ref() {
                        for (tx, sub) in txs.iter().zip(subs) {
                            // A send only fails if the target worker
                            // already aborted and dropped its receiver;
                            // the restart point accounts for the loss.
                            let _ = tx.send(SubBatch { tag, batch: sub });
                        }
                    }
                }
                None => {
                    state.done.store(true, Ordering::SeqCst);
                    state.pull_token.store(false, Ordering::SeqCst);
                }
            }
        } else {
            // Another worker holds the pull token; nap on our forward
            // queue so a forwarded sub-batch wakes us promptly.
            if let Ok(sub) = fwd_rx.recv_timeout(Duration::from_millis(1)) {
                buffer.insert(sub.tag, sub.batch);
            }
        }
    }
    state.resume.fetch_min(local_resume, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ModelBackend, PolyLsqBackend};

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
        let mut seed_db = MeasurementDb::new();
        for (k, s) in &trials {
            let mut stale = *s;
            stale.ta *= 1.1;
            seed_db.upsert(*k, stale);
        }
        let engine = Engine::new(Box::new(PolyLsqBackend::paper()), seed_db, None)
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
        let report = consume(&engine, source.receiver(), |_, snap| {
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
        let report = consume(&engine, &rx, |_, _| {}).expect("bad samples are not fatal");
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
        let opts = ConsumeOptions {
            stall_timeout: Some(Duration::from_millis(20)),
            ..ConsumeOptions::default()
        };
        let err = consume_with(&engine, &rx, opts, |_, _| {}).expect_err("must time out");
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
        let mut seed_db = MeasurementDb::new();
        for (k, s) in &trials {
            let mut stale = *s;
            stale.ta *= 1.1;
            seed_db.upsert(*k, stale);
        }
        let engine = Engine::new(Box::new(PolyLsqBackend::paper()), seed_db, None)
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
            ConsumeOptions::default(),
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
            ConsumeOptions::default(),
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

    fn paper_backend() -> Box<dyn ModelBackend> {
        Box::new(PolyLsqBackend::paper())
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

    fn assert_snapshots_bit_equal(a: &EngineSnapshot, b: &EngineSnapshot) {
        assert_banks_bit_equal(a.bank(), b.bank());
        assert_eq!(a.health().quarantined, b.health().quarantined);
        assert_eq!(a.health().composed_fallback, b.health().composed_fallback);
    }

    #[test]
    fn shard_plan_is_stable_and_in_range() {
        for width in [1usize, 2, 3, 8] {
            let plan = ShardPlan::new(width);
            for kind in 0..4usize {
                for m in 1..=4usize {
                    let owner = plan.owner((kind, m));
                    assert!(owner < width);
                    assert_eq!(owner, ShardPlan::new(width).owner((kind, m)));
                }
            }
        }
        // Width > 1 actually spreads the synth campaign's groups.
        let plan = ShardPlan::new(2);
        let owners: BTreeSet<usize> = synth_db().groups().keys().map(|&g| plan.owner(g)).collect();
        assert!(owners.len() > 1, "groups must not all land on one shard");
    }

    /// The tentpole acceptance criterion: the merged snapshot of the
    /// sharded consumer is bit-identical to the single-consumer bank at
    /// pool widths 1, 2, and N — under shuffle, duplication, *and*
    /// deferral.
    #[test]
    fn sharded_consumer_matches_single_consumer_at_widths_1_2_and_8() {
        let db = synth_db();
        let trials = trials_of_db(&db);
        let seed = stale_db(&trials);
        let cfg = StreamConfig {
            batch_size: 7,
            shuffle_seed: Some(9),
            duplicate_every: 5,
            defer_every: 3,
            channel_cap: 4,
        };
        let engine = Engine::new(paper_backend(), seed.clone(), None).expect("stale campaign fits");
        let source = TrialSource::spawn(trials.clone(), cfg);
        consume(&engine, source.receiver(), |_, _| {}).expect("single consumer drains");
        source.join();
        let single = engine.snapshot();
        let expected_batches = replay(&trials, &cfg).len();
        for width in [1usize, 2, 8] {
            let pool = ShardedConsumer::new(
                width,
                paper_backend,
                seed.clone(),
                None,
                QuarantinePolicy::default(),
                ConsumeOptions::default(),
            )
            .expect("sharded seed fits");
            let source = TrialSource::spawn(trials.clone(), cfg);
            let report = pool.consume(source.receiver()).expect("pool drains");
            source.join();
            assert_eq!(report.batches, expected_batches, "width {width}");
            assert_snapshots_bit_equal(&pool.snapshot(), &single);
            assert!(pool.quarantined().is_empty());
            // The union database equals the single consumer's.
            let union = pool.union_db();
            let reference = engine.db();
            assert_eq!(union.len(), reference.len());
            for key in reference.keys() {
                assert_eq!(union.samples(key), reference.samples(key), "{key:?}");
            }
        }
    }

    /// Fault semantics shard-for-shard: a group poisoned past its
    /// budget is quarantined by its owning shard, the merged health is
    /// the union, and the degraded bank still matches the single
    /// consumer bit-for-bit.
    #[test]
    fn sharded_quarantine_matches_single_consumer() {
        let db = synth_db();
        let mut trials = trials_of_db(&db);
        // Poison every sample of group (0, 1): the budget (2) is
        // exceeded and the group is quarantined with no clean trial to
        // re-admit it.
        for (k, s) in trials.iter_mut() {
            if k.kind == 0 && k.m == 1 {
                s.ta = -1.0;
            }
        }
        let seed = stale_db(&trials_of_db(&db));
        let cfg = StreamConfig {
            batch_size: 5,
            shuffle_seed: Some(3),
            ..StreamConfig::default()
        };
        let engine = Engine::new(paper_backend(), seed.clone(), None).expect("stale campaign fits");
        let source = TrialSource::spawn(trials.clone(), cfg);
        consume(&engine, source.receiver(), |_, _| {}).expect("single consumer drains");
        source.join();
        let single = engine.snapshot();
        assert_eq!(single.health().quarantined, vec![(0, 1)]);
        for width in [1usize, 4] {
            let pool = ShardedConsumer::new(
                width,
                paper_backend,
                seed.clone(),
                None,
                QuarantinePolicy::default(),
                ConsumeOptions::default(),
            )
            .expect("sharded seed fits");
            let source = TrialSource::spawn(trials.clone(), cfg);
            pool.consume(source.receiver()).expect("pool drains");
            source.join();
            assert_eq!(pool.quarantined(), vec![(0, 1)], "width {width}");
            assert_eq!(pool.rejected_samples(), engine.rejected_samples());
            assert_snapshots_bit_equal(&pool.snapshot(), &single);
        }
    }

    /// The pool supervisor mirrors the single consumer's: a source that
    /// dies halfway is respawned from the pool-wide safe sequence, and
    /// the merged bank still converges on the one-shot fit.
    #[test]
    fn sharded_supervisor_restarts_a_dead_source_and_converges() {
        let db = synth_db();
        let trials = trials_of_db(&db);
        let reference = PolyLsqBackend::paper().fit(&db).expect("one-shot fit");
        let seed = stale_db(&trials);
        let batches = replay(
            &trials,
            &StreamConfig {
                batch_size: 5,
                ..StreamConfig::default()
            },
        );
        let expected = batches.len() as u64;
        let half = batches.len() / 2;
        let pool = ShardedConsumer::new(
            3,
            paper_backend,
            seed,
            None,
            QuarantinePolicy::default(),
            ConsumeOptions::default(),
        )
        .expect("sharded seed fits");
        let mut incarnation = 0usize;
        let report = pool
            .consume_supervised(expected, 3, |next_seq| {
                incarnation += 1;
                let tail: Vec<TrialBatch> = batches
                    .iter()
                    .filter(|b| b.seq >= next_seq)
                    .cloned()
                    .collect();
                if incarnation == 1 {
                    list_source(tail.into_iter().take(half).collect())
                } else {
                    list_source(tail)
                }
            })
            .expect("supervised pool completes");
        assert_eq!(report.restarts, 1);
        assert_eq!(report.stalls, 0);
        assert_banks_bit_equal(pool.snapshot().bank(), &reference);
    }

    /// The pool's restart budget is a hard stop, like the single
    /// supervisor's.
    #[test]
    fn sharded_supervisor_gives_up_when_the_restart_budget_is_exhausted() {
        let pool = ShardedConsumer::new(
            2,
            paper_backend,
            synth_db(),
            None,
            QuarantinePolicy::default(),
            ConsumeOptions::default(),
        )
        .expect("synth db fits");
        let err = pool
            .consume_supervised(5, 2, |_| list_source(Vec::new()))
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

    /// Pool-wide stall detection: a source that opens a channel and
    /// never sends is surfaced as `SourceStalled`, not a hang.
    #[test]
    fn sharded_consumer_surfaces_a_stalled_source() {
        let pool = ShardedConsumer::new(
            2,
            paper_backend,
            synth_db(),
            None,
            QuarantinePolicy::default(),
            ConsumeOptions {
                stall_timeout: Some(Duration::from_millis(80)),
                ..ConsumeOptions::default()
            },
        )
        .expect("synth db fits");
        let (tx, rx) = channel::unbounded::<TrialBatch>();
        let err = pool.consume(&rx).expect_err("must stall");
        assert!(matches!(err, PipelineError::SourceStalled { .. }));
        drop(tx);
    }

    /// The paced source delivers exactly the replay sequence, no sooner
    /// than the scaled campaign clock allows.
    #[test]
    fn paced_source_honors_the_scaled_campaign_clock() {
        let db = synth_db();
        let trials = trials_of_db(&db);
        let cfg = StreamConfig {
            batch_size: 16,
            channel_cap: 0,
            ..StreamConfig::default()
        };
        let expected = replay(&trials, &cfg);
        let total_sim = expected.last().expect("non-empty replay").sim_time;
        // Compress the whole campaign into ~50 ms of wall time.
        let scale = total_sim / 0.05;
        let source = TrialSource::spawn_paced(trials.clone(), cfg, scale).expect("valid scale");
        let start = Instant::now();
        let received: Vec<TrialBatch> = source.receiver().clone().iter().collect();
        let elapsed = start.elapsed();
        source.join();
        assert_eq!(received.len(), expected.len());
        for (r, e) in received.iter().zip(&expected) {
            assert_eq!(r.seq, e.seq);
            assert_eq!(r.trials, e.trials);
        }
        // The final batch is due at exactly total_sim / scale = 50 ms;
        // sleeping never wakes early, so allow only scheduling slack
        // downward.
        assert!(
            elapsed >= Duration::from_millis(40),
            "paced stream finished too fast: {elapsed:?}"
        );
    }

    /// Joining a paced source mid-campaign interrupts the pacer instead
    /// of sleeping out the remaining schedule.
    #[test]
    fn paced_source_join_interrupts_the_pacer() {
        let db = synth_db();
        let trials = trials_of_db(&db);
        let cfg = StreamConfig::default();
        let total_sim = replay(&trials, &cfg)
            .last()
            .expect("non-empty replay")
            .sim_time;
        // Pace the campaign out over ~several minutes of wall time.
        let scale = total_sim / 300.0;
        let source = TrialSource::spawn_paced(trials, cfg, scale).expect("valid scale");
        let start = Instant::now();
        source.join();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "join must interrupt the pacer promptly"
        );
    }

    /// A zero (or negative) scale would divide every deadline into
    /// infinity and stall the stream forever; the typed error refuses
    /// it before any thread exists.
    #[test]
    fn paced_source_rejects_zero_and_negative_scales() {
        let trials = trials_of_db(&synth_db());
        for scale in [0.0, -0.0, -1.0, -1e300] {
            let err = TrialSource::spawn_paced(trials.clone(), StreamConfig::default(), scale)
                .err()
                .expect("non-positive scale must be refused");
            assert_eq!(err, PaceError::NonPositive(scale), "scale {scale}");
        }
    }

    /// A NaN or infinite scale would make the pacer spin on a garbage
    /// deadline; the typed error refuses it up front.
    #[test]
    fn paced_source_rejects_non_finite_scales() {
        let trials = trials_of_db(&synth_db());
        for scale in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = TrialSource::spawn_paced(trials.clone(), StreamConfig::default(), scale)
                .err()
                .expect("non-finite scale must be refused");
            match err {
                PaceError::NonFinite(s) => {
                    assert_eq!(s.to_bits(), scale.to_bits(), "scale {scale}")
                }
                other => panic!("expected NonFinite, got {other:?}"),
            }
        }
    }
}
