//! The estimator engine: immutable model snapshots over a streaming
//! measurement database, with incremental group-level refits.
//!
//! The paper's workflow is one sequential loop — campaign, fit,
//! estimate — and the [`Engine`] keeps that shape while measurements
//! stream in. One thread owns the engine and drives every write; the
//! snapshots it publishes can be read from anywhere:
//!
//! * **Snapshot reads.** [`Engine::snapshot`] hands out an
//!   `Arc<EngineSnapshot>` — an immutable, fully fitted estimator.
//!   Snapshots are `Send + Sync`, so a holder may share one across
//!   worker threads, and every estimate served from one is a pure read.
//! * **Generation swap.** A refit builds the *next* snapshot off to the
//!   side and publishes it by replacing the engine's current `Arc`.
//!   Nobody observes a half-fitted bank: a holder keeps either the old
//!   snapshot or the new one, both complete, and an old snapshot stays
//!   valid (and bit-stable) for as long as anyone holds it.
//! * **Incremental ingestion.** [`Engine::ingest`] upserts samples into
//!   the database and records each `(key, N)` slot it changes, with the
//!   slot's pre-ingest sample; a key is dirty when one of those slots
//!   ends the batch holding different bits than before it. Only the
//!   dirty keys' N-T models and their `(kind, m)` groups'
//!   measured P-T models are refit ([`ModelBackend::refit_groups`]) —
//!   plus the composed models and the §4.1 adjustment, which depend on
//!   other groups and are always rebuilt. A no-op ingest (every key's
//!   bits unchanged, even if a batch changed a slot and then restored
//!   it) swaps nothing.
//! * **Quarantine & graceful degradation.** Inadmissible samples (NaN /
//!   infinite / negative / implausibly huge times) never reach the
//!   database; the engine counts *distinct* bad observations per
//!   `(kind, m)` group and quarantines a group that has more than
//!   [`QUARANTINE_BUDGET`] of them. A quarantined group's serving P-T
//!   model is replaced by a §3.5 composed fallback from a healthy donor
//!   kind where one exists — the paper's own answer to missing direct
//!   measurements — and every snapshot carries [`EngineHealth`]
//!   metadata (quarantined groups, composed fallbacks, last-healthy
//!   generation) so consumers such as the online optimizer can discount
//!   or refuse degraded estimates. A clean sample for a quarantined
//!   group re-admits it automatically.
//!
//! The engine keeps all of its mutable state, the published snapshot
//! included, in one `RefCell`, and takes no lock. It is therefore
//! `Send` but not `Sync`: handing one engine to two threads is a
//! compile error.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use etm_cluster::{ClusterSpec, Configuration};

use crate::adjust::AdjustmentRule;
use crate::backend::{compose_fallback, full_refit, FitMemo, FitWork, ModelBackend};
use crate::measurement::{groups_of_keys, MeasurementDb, Sample, SampleKey};
use crate::pipeline::{
    groups_of, paper_adjustment_policy, AdjustmentPolicy, Estimator, ModelBank, PipelineError,
};
use crate::plan::MeasurementPlan;

/// How many *distinct* bad observations a `(kind, m)` group absorbs
/// before it is quarantined: the ingest degradation ladder's first rung.
/// An inadmissible sample (non-finite, negative, or implausibly huge
/// times) is never upserted (it would poison the least-squares solve),
/// but it is not a fatal error either — it counts against its group's
/// budget, and a group past the budget is *quarantined* until clean
/// data re-admits it. Distinct means distinct `(key, N)` slots:
/// re-delivery of the same bad sample never double-counts. See the
/// module docs for how quarantined groups degrade to §3.5 composed
/// fallbacks.
pub const QUARANTINE_BUDGET: usize = 2;

/// Largest plausible measured time in seconds (per component: Ta, Tc,
/// wall). Finite samples beyond it are gross outliers — physically
/// impossible trial durations — and count as bad.
const MAX_SAMPLE_SECONDS: f64 = 1e6;

/// Whether `sample` may enter the database: all three measured times
/// finite, non-negative, and within [`MAX_SAMPLE_SECONDS`].
fn admits(sample: &Sample) -> bool {
    sample.is_finite()
        && (0.0..=MAX_SAMPLE_SECONDS).contains(&sample.ta)
        && (0.0..=MAX_SAMPLE_SECONDS).contains(&sample.tc)
        && (0.0..=MAX_SAMPLE_SECONDS).contains(&sample.wall)
}

/// Health metadata carried by every [`EngineSnapshot`] — the serving
/// side of the degradation ladder. Consumers (the online optimizer, the
/// audit gate) read it to discount or refuse estimates that depend on
/// degraded models.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineHealth {
    /// `(kind, m)` groups currently quarantined: their bad-sample budget
    /// is exhausted and no clean observation has re-admitted them.
    /// Sorted; empty on a healthy snapshot.
    pub quarantined: Vec<(usize, usize)>,
    /// The subset of [`EngineHealth::quarantined`] whose serving P-T
    /// model was replaced by a §3.5 composed fallback from a healthy
    /// donor kind. Quarantined groups *not* listed here kept their stale
    /// pre-quarantine model and must not be trusted.
    pub composed_fallback: Vec<(usize, usize)>,
    /// Generation of the most recent snapshot with no quarantined group
    /// — the staleness reference: `generation - healthy_generation`
    /// published generations have been degraded.
    pub(crate) healthy_generation: u64,
    /// Total inadmissible samples rejected at ingest since construction.
    pub rejected_samples: usize,
}

impl EngineHealth {
    /// Whether every served model is measured and trusted.
    pub fn is_healthy(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Whether `group` is quarantined *without* a composed fallback —
    /// its serving model is a stale original that must not be trusted.
    pub fn is_untrusted(&self, group: (usize, usize)) -> bool {
        self.quarantined.contains(&group) && !self.composed_fallback.contains(&group)
    }

    /// Whether `group` is served by a §3.5 composed-fallback model.
    pub fn is_fallback(&self, group: (usize, usize)) -> bool {
        self.composed_fallback.contains(&group)
    }

    /// The first of `config`'s [`groups_of`] (in use order) that is
    /// untrusted — what a health-aware consumer refuses to estimate.
    pub fn first_untrusted(&self, config: &Configuration) -> Option<(usize, usize)> {
        groups_of(config).find(|&g| self.is_untrusted(g))
    }

    /// Whether any of `config`'s [`groups_of`] is served by a composed
    /// fallback.
    pub fn any_fallback(&self, config: &Configuration) -> bool {
        groups_of(config).any(|g| self.is_fallback(g))
    }
}

/// One immutable, fully fitted generation of the engine's models.
///
/// Snapshots are plain data behind an `Arc`: queries on them are pure
/// reads, and a snapshot taken before a refit keeps answering
/// bit-identically after the swap.
#[derive(Debug)]
pub struct EngineSnapshot {
    estimator: Estimator,
    generation: u64,
    refit: Vec<(usize, usize)>,
    work: FitWork,
    health: EngineHealth,
}

impl EngineSnapshot {
    /// The snapshot's estimator (bank + §4.1 adjustment).
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// The fitted model bank.
    pub fn bank(&self) -> &ModelBank {
        &self.estimator.bank
    }

    /// The §4.1 adjustment rule in effect.
    pub fn adjustment(&self) -> &AdjustmentRule {
        &self.estimator.adjustment
    }

    /// The kind whose multiplicity gates the adjustment.
    pub fn fast_kind(&self) -> usize {
        self.estimator.fast_kind
    }

    /// Monotone generation counter: 0 for the initial fit, +1 per swap.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The `(kind, m)` groups holding a key this generation refit
    /// incrementally; empty for a full fit.
    pub fn refit_groups(&self) -> &[(usize, usize)] {
        &self.refit
    }

    /// The fitting work behind this generation: the whole bank's for a
    /// full fit, the dirty keys' and groups' for an incremental refit,
    /// none for a publication that only moved the quarantine set.
    pub fn fit_work(&self) -> FitWork {
        self.work
    }

    /// The snapshot's health metadata: quarantined groups, composed
    /// fallbacks, staleness. A healthy snapshot reports empty sets.
    pub fn health(&self) -> &EngineHealth {
        &self.health
    }

    /// Raw (unadjusted) estimate; see `Estimator::estimate_raw`.
    ///
    /// # Errors
    /// See `Estimator::estimate_raw`.
    pub fn estimate_raw(&self, config: &Configuration, n: usize) -> Result<f64, PipelineError> {
        self.estimator.estimate_raw(config, n)
    }

    /// Adjusted estimate; see `Estimator::estimate`.
    ///
    /// # Errors
    /// See `Estimator::estimate`.
    pub fn estimate(&self, config: &Configuration, n: usize) -> Result<f64, PipelineError> {
        self.estimator.estimate(config, n)
    }

    /// Evaluates many `(configuration, N)` requests, each through
    /// [`EngineSnapshot::estimate`].
    pub fn estimate_batch(
        &self,
        requests: &[(Configuration, usize)],
    ) -> Vec<Result<f64, PipelineError>> {
        requests
            .iter()
            .map(|(config, n)| self.estimate(config, *n))
            .collect()
    }
}

/// The engine's mutable state: the measurement database, the pristine
/// bank fit from it with the designs behind it, the quarantine ledger,
/// the published snapshot and the buffers an ingest reuses.
///
/// The database sits behind an `Arc` so [`Engine::db`] can hand out the
/// current version with an O(1) pointer clone instead of deep-copying
/// every sample; writers mutate through `Arc::make_mut`, which
/// copies-on-write only while someone still holds an older version.
struct EngineState {
    /// The published generation; [`Engine::snapshot`] clones it.
    /// Writers read it here, since `snapshot()` would borrow the cell
    /// they already hold.
    current: Arc<EngineSnapshot>,
    db: Arc<MeasurementDb>,
    /// The slots the current ingest changed, each at its first change:
    /// `(key, N, what the slot held before the batch)`. Empty between
    /// ingests; kept only for its capacity.
    touched: Vec<(SampleKey, usize, Option<Sample>)>,
    /// Keys whose samples the pristine bank predates, sorted and
    /// distinct. An ingest adds the keys it changed and refits them all;
    /// a *failed* refit leaves them here, so the next ingest retries
    /// everything outstanding, not just the keys it touches.
    pending_dirty: Vec<SampleKey>,
    /// The last bank fit purely from admitted measurements — the refit
    /// base — when the published snapshot serves another: `None` while
    /// nothing is quarantined, as the snapshot then serves the pristine
    /// bank itself ([`EngineState::pristine`]). Degraded serving banks
    /// substitute composed fallbacks for quarantined groups; keeping
    /// the pristine bank separate guarantees a fallback model is never
    /// laundered back in as a measured one on the next incremental
    /// refit.
    pristine: Option<ModelBank>,
    /// The factored N-T and P-T designs behind the pristine bank, reused
    /// by the next refit wherever their inputs match exactly.
    memo: FitMemo,
    /// Distinct bad observations per group, keyed `(sample key, N)` so
    /// duplicate delivery of one bad sample cannot double-count. A clean
    /// observation for a group clears its entry (re-admission).
    bad: BTreeMap<(usize, usize), BTreeSet<(SampleKey, usize)>>,
    /// The quarantine set of the last *published* snapshot; a change in
    /// the set forces a publication even when no group is dirty.
    quarantined: BTreeSet<(usize, usize)>,
    /// Generation of the last snapshot whose quarantine set was empty.
    last_healthy_gen: u64,
    /// Running count of samples the admission check rejected.
    rejected: usize,
}

impl EngineState {
    /// The pristine bank: the kept copy, or the published snapshot's
    /// own bank when nothing is quarantined.
    fn pristine(&self) -> &ModelBank {
        self.pristine
            .as_ref()
            .unwrap_or(&self.current.estimator.bank)
    }
}

/// The estimator engine; see the module docs for the architecture.
///
/// One thread owns an engine: it is `Send` but not `Sync`, so sharing
/// it between threads does not compile.
///
/// ```compile_fail
/// fn shared_between_threads<T: Sync>() {}
/// shared_between_threads::<etm_core::engine::Engine>();
/// ```
pub struct Engine {
    backend: Box<dyn ModelBackend>,
    policy: Option<AdjustmentPolicy>,
    state: RefCell<EngineState>,
}

impl Engine {
    /// Builds an engine over an existing database with an optional §4.1
    /// adjustment policy, fitting the initial snapshot (generation 0).
    ///
    /// # Errors
    /// Any fitting failure.
    pub fn new(
        backend: Box<dyn ModelBackend>,
        db: MeasurementDb,
        policy: Option<AdjustmentPolicy>,
    ) -> Result<Self, PipelineError> {
        let mut memo = FitMemo::default();
        let fitted = full_refit(&*backend, &db, &mut memo)?;
        Self::with_bank(backend, db, policy, fitted, memo)
    }

    /// Builds an engine from a completed measurement campaign: fits the
    /// bank, measures the paper's §4.1 reference walls on the simulated
    /// cluster, and publishes generation 0. This is what
    /// `build_estimator` runs under the hood.
    ///
    /// # Errors
    /// Any fitting failure.
    pub fn from_campaign(
        spec: &ClusterSpec,
        plan: &MeasurementPlan,
        nb: usize,
        db: MeasurementDb,
        backend: Box<dyn ModelBackend>,
    ) -> Result<Self, PipelineError> {
        let mut memo = FitMemo::default();
        let fitted = full_refit(&*backend, &db, &mut memo)?;
        let policy = paper_adjustment_policy(spec, &fitted.0, plan, nb);
        Self::with_bank(backend, db, Some(policy), fitted, memo)
    }

    fn with_bank(
        backend: Box<dyn ModelBackend>,
        db: MeasurementDb,
        policy: Option<AdjustmentPolicy>,
        (bank, work): (ModelBank, FitWork),
        memo: FitMemo,
    ) -> Result<Self, PipelineError> {
        let estimator = assemble_estimator(bank, policy.as_ref())?;
        let snapshot = Arc::new(EngineSnapshot {
            estimator,
            generation: 0,
            refit: Vec::new(),
            work,
            health: EngineHealth::default(),
        });
        Ok(Engine {
            backend,
            policy,
            state: RefCell::new(EngineState {
                current: snapshot,
                db: Arc::new(db),
                touched: Vec::new(),
                pending_dirty: Vec::new(),
                pristine: None,
                memo,
                bad: BTreeMap::new(),
                quarantined: BTreeSet::new(),
                last_healthy_gen: 0,
                rejected: 0,
            }),
        })
    }

    /// The groups whose bad-sample budget is currently exhausted — the
    /// quarantine set the *next* publication will carry. Unlike
    /// [`EngineSnapshot::health`] this reads live writer state, so tests
    /// can observe accounting that has not forced a publication yet.
    pub fn quarantined(&self) -> Vec<(usize, usize)> {
        self.state
            .borrow()
            .bad
            .iter()
            .filter(|(_, seen)| seen.len() > QUARANTINE_BUDGET)
            .map(|(&group, _)| group)
            .collect()
    }

    /// The current snapshot: a pointer clone of the published `Arc`.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.state.borrow().current)
    }

    /// The measurement database as of the last write. An O(1) `Arc`
    /// clone — no sample is copied, and the returned version stays
    /// immutable while later ingests proceed (writers copy-on-write past
    /// any held reference).
    pub fn db(&self) -> Arc<MeasurementDb> {
        Arc::clone(&self.state.borrow().db)
    }

    /// Ingests measurements and refits incrementally: admitted samples
    /// are upserted into the database, and only the keys whose samples
    /// differ bitwise from before the call are refit, with their
    /// `(kind, m)` groups' P-T models (plus composed models and the
    /// adjustment rule, which span groups). Publishes and returns the
    /// new snapshot; if no key's bits changed (or `samples` is empty)
    /// *and* the quarantine set did not move, nothing is refit and the
    /// current snapshot is returned.
    ///
    /// Inadmissible samples (non-finite, negative, or implausibly huge
    /// times) are never upserted — they count against their group's bad
    /// budget instead, in delivery order, and an admitted sample for the
    /// same group resets that budget (re-admission). A change in the
    /// resulting quarantine set forces a publication even when no group
    /// is dirty, so consumers see degradation (and recovery) promptly;
    /// see [`EngineSnapshot::health`].
    ///
    /// On a fitting error the database keeps the new samples but no
    /// snapshot is published; the failed keys are remembered and
    /// merged into the next ingest's dirty set, so a later ingest —
    /// even an otherwise no-op one — retries the refit of everything
    /// still dirty. (`ingest(&[])` is therefore a *flush*: it refits
    /// whatever a failed ingest left outstanding and nothing else.)
    ///
    /// # Errors
    /// Any fitting failure. Bad samples are not an error: the quarantine
    /// ladder absorbs them.
    pub fn ingest(
        &self,
        samples: &[(SampleKey, Sample)],
    ) -> Result<Arc<EngineSnapshot>, PipelineError> {
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        for (key, sample) in samples {
            let group = (key.kind, key.m);
            if !admits(sample) {
                // Distinct `(key, N)` slots only: a duplicate delivery
                // of one bad sample must not double-count.
                state.rejected += 1;
                state.bad.entry(group).or_default().insert((*key, sample.n));
                continue;
            }
            // A clean observation re-admits the group in delivery order.
            state.bad.remove(&group);
            // A sample the slot already holds changes nothing: no write
            // (which would copy a database a reader holds).
            let Some(slot) = state.db.changed_slot(key, sample) else {
                continue;
            };
            if !state
                .touched
                .iter()
                .any(|&(k, n, _)| k == *key && n == sample.n)
            {
                state.touched.push((*key, sample.n, slot.held));
            }
            Arc::make_mut(&mut state.db).write(*key, slot, *sample);
        }
        // A key is dirty when one of its touched slots ends the batch
        // holding other bits than before it; slots are never removed, so
        // a new one always counts.
        for (key, n, before) in state.touched.drain(..) {
            let after = state.db.held(&key, n);
            if !matches!((before, after), (Some(b), Some(a)) if a.same_bits(&b)) {
                state.pending_dirty.push(key);
            }
        }
        state.pending_dirty.sort_unstable();
        state.pending_dirty.dedup();
        let dirty = &state.pending_dirty;
        let quarantined: BTreeSet<(usize, usize)> = state
            .bad
            .iter()
            .filter(|(_, seen)| seen.len() > QUARANTINE_BUDGET)
            .map(|(&group, _)| group)
            .collect();
        if dirty.is_empty() && quarantined == state.quarantined {
            return Ok(Arc::clone(&state.current));
        }
        // Build everything that can fail before committing any of it, so
        // a failed publication leaves pristine untouched and the dirty
        // keys pending for the retry. (A refit may update the memo
        // before failing; the memo stays valid whatever it holds.)
        let (pristine, work) = if dirty.is_empty() {
            (state.pristine().clone(), FitWork::default())
        } else {
            let base = state
                .pristine
                .as_ref()
                .unwrap_or(&state.current.estimator.bank);
            self.backend
                .refit_groups(&state.db, base, dirty, &mut state.memo)?
        };
        let (serving, kept, composed_fallback) = serving_bank(&state.db, pristine, &quarantined);
        let estimator = assemble_estimator(serving, self.policy.as_ref())?;
        // Commit: the pristine bank now covers every dirty key.
        let refit = groups_of_keys(&state.pending_dirty);
        state.pristine = kept;
        state.pending_dirty.clear();
        let generation = state.current.generation + 1;
        if quarantined.is_empty() {
            state.last_healthy_gen = generation;
        }
        state.quarantined = quarantined.clone();
        let health = EngineHealth {
            quarantined: quarantined.into_iter().collect(),
            composed_fallback,
            healthy_generation: state.last_healthy_gen,
            rejected_samples: state.rejected,
        };
        let snapshot = Arc::new(EngineSnapshot {
            estimator,
            generation,
            refit,
            work,
            health,
        });
        state.current = Arc::clone(&snapshot);
        Ok(snapshot)
    }

    /// Ingests one streamed [`TrialBatch`](crate::stream::TrialBatch) —
    /// the consumer side of the streaming layer. Exactly
    /// [`Engine::ingest`] over the batch's trials: duplicates and
    /// re-deliveries change no bits and are no-ops, a batch that
    /// changes nothing publishes nothing.
    ///
    /// # Errors
    /// See [`Engine::ingest`].
    pub fn ingest_batch(
        &self,
        batch: &crate::stream::TrialBatch,
    ) -> Result<Arc<EngineSnapshot>, PipelineError> {
        self.ingest(&batch.trials)
    }

    /// Refits the whole bank from the current database and publishes the
    /// result, whether or not any group is dirty. The batch escape hatch.
    ///
    /// # Errors
    /// Any fitting failure.
    pub fn refit_full(&self) -> Result<Arc<EngineSnapshot>, PipelineError> {
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        let (bank, work) = full_refit(&*self.backend, &state.db, &mut state.memo)?;
        let (serving, kept, composed_fallback) = serving_bank(&state.db, bank, &state.quarantined);
        let estimator = assemble_estimator(serving, self.policy.as_ref())?;
        state.pristine = kept;
        state.pending_dirty.clear();
        let generation = state.current.generation + 1;
        if state.quarantined.is_empty() {
            state.last_healthy_gen = generation;
        }
        let health = EngineHealth {
            quarantined: state.quarantined.iter().copied().collect(),
            composed_fallback,
            healthy_generation: state.last_healthy_gen,
            rejected_samples: state.rejected,
        };
        let snapshot = Arc::new(EngineSnapshot {
            estimator,
            generation,
            refit: Vec::new(),
            work,
            health,
        });
        state.current = Arc::clone(&snapshot);
        Ok(snapshot)
    }
}

/// Splits a pristine bank into the bank a (possibly degraded) snapshot
/// serves and the pristine copy the engine must keep beside it. With
/// nothing quarantined the snapshot serves `pristine` itself and no copy
/// is kept. Otherwise each quarantined group's P-T model is replaced by
/// a §3.5 composed fallback from a healthy donor kind, where one exists,
/// and the third item lists the groups that received one; a quarantined
/// group with no healthy donor keeps its stale pristine model and is
/// left for [`EngineHealth::is_untrusted`] to flag.
fn serving_bank(
    db: &MeasurementDb,
    pristine: ModelBank,
    quarantined: &BTreeSet<(usize, usize)>,
) -> (ModelBank, Option<ModelBank>, Vec<(usize, usize)>) {
    if quarantined.is_empty() {
        return (pristine, None, Vec::new());
    }
    let mut serving = pristine.clone();
    let mut composed_fallback = Vec::new();
    for &group in quarantined {
        if !pristine.pt.contains_key(&group) {
            continue;
        }
        let Ok(model) = compose_fallback(db, &pristine, group, quarantined) else {
            continue;
        };
        serving.pt.insert(group, model);
        if !serving.composed_groups.contains(&group) {
            serving.composed_groups.push(group);
            serving.composed_groups.sort_unstable();
        }
        composed_fallback.push(group);
    }
    (serving, Some(pristine), composed_fallback)
}

/// Assembles the estimator for a freshly fitted bank: refit the §4.1
/// rule from the policy's stored reference measurements, or identity
/// when the engine runs unadjusted.
fn assemble_estimator(
    bank: ModelBank,
    policy: Option<&AdjustmentPolicy>,
) -> Result<Estimator, PipelineError> {
    let (adjustment, fast_kind) = match policy {
        Some(p) => (p.fit_rule(&bank)?, p.fast_kind),
        None => (AdjustmentRule::identity(), 0),
    };
    Ok(Estimator {
        bank,
        adjustment,
        fast_kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::assert_banks_bit_equal;
    use crate::backend::PolyLsqBackend;

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

    fn engine() -> Engine {
        Engine::new(Box::new(PolyLsqBackend::paper()), synth_db(), None).expect("synth db fits")
    }

    #[test]
    fn initial_snapshot_is_generation_zero_and_estimates() {
        let e = engine();
        let snap = e.snapshot();
        assert_eq!(snap.generation(), 0);
        assert!(snap.refit_groups().is_empty());
        let cfg = Configuration::p1m1_p2m2(1, 1, 4, 2);
        assert!(snap.estimate_raw(&cfg, 1600).expect("estimable") > 0.0);
    }

    #[test]
    fn noop_ingest_swaps_nothing() {
        let e = engine();
        let before = e.snapshot();
        // Re-ingest a sample identical to what the db already holds.
        let key = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        let after = e
            .ingest(&[(key, synth_sample(1, 2, 1, 800))])
            .expect("refit ok");
        assert_eq!(after.generation(), 0);
        assert!(Arc::ptr_eq(&before, &after), "unchanged data must not swap");
    }

    #[test]
    fn batch_that_changes_then_reverts_a_slot_publishes_nothing() {
        let e = engine();
        let before = e.snapshot();
        let key = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        let original = synth_sample(1, 2, 1, 800);
        let mut changed = original;
        changed.ta *= 1.2;
        let after = e
            .ingest(&[(key, changed), (key, original)])
            .expect("refit ok");
        assert!(
            Arc::ptr_eq(&before, &after),
            "reverted change must not swap"
        );
    }

    /// `0.0 == -0.0`, but the fit sees the bits: a re-delivery that only
    /// flips the sign of a zero time is a change, and the published
    /// bank must match a one-shot fit of the database it now holds.
    #[test]
    fn sign_of_zero_flip_refits_its_group() {
        let e = engine();
        let key = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        let mut s = synth_sample(1, 2, 1, 800);
        s.tc = 0.0;
        let first = e.ingest(&[(key, s)]).expect("refit ok");
        assert_eq!(first.refit_groups(), &[(1, 1)]);
        s.tc = -0.0;
        let snap = e.ingest(&[(key, s)]).expect("refit ok");
        assert_eq!(snap.generation(), first.generation() + 1);
        assert_eq!(snap.refit_groups(), &[(1, 1)]);
        let full = PolyLsqBackend::paper().fit(&e.db()).expect("full fit ok");
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (k, m) in &full.nt {
            let got = &snap.bank().nt[k];
            assert_eq!(bits(&m.ka), bits(&got.ka), "{k:?} ka");
            assert_eq!(bits(&m.kc), bits(&got.kc), "{k:?} kc");
        }
        for (g, m) in &full.pt {
            let got = &snap.bank().pt[g];
            assert_eq!(bits(&m.ka), bits(&got.ka), "{g:?} ka");
            assert_eq!(bits(&m.kc), bits(&got.kc), "{g:?} kc");
        }
    }

    #[test]
    fn ingest_refits_only_dirty_groups_and_matches_full_fit() {
        let e = engine();
        let old = e.snapshot();
        let key = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        let mut s = synth_sample(1, 2, 1, 800);
        s.ta *= 1.2;
        let snap = e.ingest(&[(key, s)]).expect("refit ok");
        assert_eq!(snap.generation(), 1);
        assert_eq!(snap.refit_groups(), &[(1, 1)]);
        // The held old snapshot is untouched by the swap.
        assert_eq!(old.generation(), 0);
        // The incremental result equals a from-scratch fit of the same db.
        let full = PolyLsqBackend::paper().fit(&e.db()).expect("full fit ok");
        for (g, m) in &full.pt {
            let got = &snap.bank().pt[g];
            for i in 0..3 {
                assert_eq!(m.kc[i].to_bits(), got.kc[i].to_bits(), "{g:?} kc[{i}]");
            }
        }
    }

    #[test]
    fn refit_full_bumps_generation_with_same_models() {
        let e = engine();
        let snap = e.refit_full().expect("refit ok");
        assert_eq!(snap.generation(), 1);
        let first = e.snapshot();
        assert!(Arc::ptr_eq(&snap, &first));
        // Deterministic backend: same db, bit-identical models.
        let cfg = Configuration::p1m1_p2m2(1, 2, 4, 1);
        let e0 = engine()
            .snapshot()
            .estimate_raw(&cfg, 2400)
            .expect("estimable");
        let e1 = snap.estimate_raw(&cfg, 2400).expect("estimable");
        assert_eq!(e0.to_bits(), e1.to_bits());
    }

    /// A database where *both* kinds carry real multi-PE measurements,
    /// so a quarantined group of either kind has a measured donor for
    /// the §3.5 fallback composition.
    fn synth_db_two_measured() -> MeasurementDb {
        let mut db = MeasurementDb::new();
        for kind in 0..2usize {
            for pes in [1usize, 2, 4] {
                for m in 1..=2usize {
                    for n in [400usize, 800, 1600, 2400, 3200] {
                        db.record(SampleKey { kind, pes, m }, synth_sample(kind, pes, m, n));
                    }
                }
            }
        }
        db
    }

    fn poisoned(kind: usize, pes: usize, m: usize, n: usize, poison: f64) -> (SampleKey, Sample) {
        let mut s = synth_sample(kind, pes, m, n);
        s.wall = poison;
        (SampleKey { kind, pes, m }, s)
    }

    #[test]
    fn bad_samples_never_upsert_and_quarantine_over_budget() {
        let e = engine(); // QUARANTINE_BUDGET: 2 distinct bad observations
        let before = e.snapshot();
        let db_before = e.db();
        // Two distinct bad samples: within budget — no upsert, no swap,
        // not quarantined yet.
        for (i, poison) in [f64::NAN, f64::INFINITY].into_iter().enumerate() {
            let snap = e
                .ingest(&[poisoned(1, 4, 1, 400 + i, poison)])
                .expect("bad samples are not a fatal error");
            assert!(Arc::ptr_eq(&before, &snap), "within budget: no swap");
        }
        assert!(Arc::ptr_eq(&db_before, &e.db()), "bad samples never land");
        assert!(e.quarantined().is_empty());
        // A third distinct bad observation exhausts the budget: the
        // group is quarantined and a degraded snapshot is published
        // even though no group is dirty.
        let snap = e
            .ingest(&[poisoned(1, 4, 1, 402, f64::NEG_INFINITY)])
            .expect("quarantine is not a fatal error");
        assert_eq!(snap.generation(), before.generation() + 1);
        assert_eq!(e.quarantined(), vec![(1, 1)]);
        assert_eq!(snap.health().quarantined, vec![(1, 1)]);
        // synth_db has no second measured kind at m=1 (kind 0 is itself
        // composed), so no donor exists: the group keeps its stale model
        // and is flagged untrusted.
        assert!(snap.health().composed_fallback.is_empty());
        assert!(snap.health().is_untrusted((1, 1)));
        assert_eq!(snap.health().healthy_generation, before.generation());
        assert_eq!(snap.health().rejected_samples, 3);
        // The stale model still answers (degraded, not dead).
        let cfg = Configuration::p1m1_p2m2(1, 1, 4, 2);
        assert!(snap.estimate_raw(&cfg, 1600).expect("still serves") > 0.0);
    }

    #[test]
    fn mixed_batch_admits_good_and_counts_bad() {
        let e = engine();
        let good_key = SampleKey {
            kind: 1,
            pes: 2,
            m: 2,
        };
        let mut good = synth_sample(1, 2, 2, 800);
        good.ta *= 1.5;
        let snap = e
            .ingest(&[(good_key, good), poisoned(1, 4, 1, 800, f64::NAN)])
            .expect("refit ok");
        // The good sample refit its group; the bad one only burned
        // budget for *its* group.
        assert_eq!(snap.refit_groups(), &[(1, 2)]);
        assert_eq!(snap.health().rejected_samples, 1);
        assert!(e.quarantined().is_empty());
        let kept = e.db();
        let kept = kept
            .samples(&good_key)
            .iter()
            .find(|s| s.n == 800)
            .copied()
            .expect("good sample upserted");
        assert_eq!(kept, good);
    }

    #[test]
    fn duplicate_bad_delivery_never_double_counts() {
        let e = engine();
        // The same bad (key, N) slot five times: one distinct
        // observation, within the budget.
        for _ in 0..5 {
            e.ingest(&[poisoned(1, 2, 1, 800, f64::NAN)])
                .expect("bad samples are not fatal");
        }
        assert!(e.quarantined().is_empty(), "duplicates must not count");
        // A second distinct slot is still within the budget of two...
        e.ingest(&[poisoned(1, 2, 1, 1600, f64::NAN)])
            .expect("bad samples are not fatal");
        assert!(e.quarantined().is_empty(), "two distinct slots");
        // ...and a third exhausts it.
        e.ingest(&[poisoned(1, 2, 1, 2400, f64::NAN)])
            .expect("quarantine is not fatal");
        assert_eq!(e.quarantined(), vec![(1, 1)]);
    }

    #[test]
    fn clean_sample_readmits_quarantined_group() {
        let e = engine();
        for n in [400usize, 800, 1600] {
            e.ingest(&[poisoned(1, 4, 1, n, f64::NAN)])
                .expect("bad samples are not fatal");
        }
        assert_eq!(e.quarantined(), vec![(1, 1)]);
        // One admitted observation resets the group's budget and lifts
        // the quarantine; the published snapshot is healthy again.
        let key = SampleKey {
            kind: 1,
            pes: 4,
            m: 1,
        };
        let mut clean = synth_sample(1, 4, 1, 800);
        clean.ta *= 1.1;
        let snap = e.ingest(&[(key, clean)]).expect("refit ok");
        assert!(e.quarantined().is_empty());
        assert!(snap.health().is_healthy());
        assert_eq!(snap.health().healthy_generation, snap.generation());
        // And the served bank equals a from-scratch fit of the final db.
        let full = PolyLsqBackend::paper().fit(&e.db()).expect("full fit ok");
        for (g, m) in &full.pt {
            let got = &snap.bank().pt[g];
            for i in 0..3 {
                assert_eq!(m.kc[i].to_bits(), got.kc[i].to_bits(), "{g:?} kc[{i}]");
            }
        }
    }

    #[test]
    fn quarantined_group_degrades_to_composed_fallback() {
        let e = Engine::new(
            Box::new(PolyLsqBackend::paper()),
            synth_db_two_measured(),
            None,
        )
        .expect("synth db fits");
        let pristine_pt = e.snapshot().bank().pt[&(0, 1)];
        // Gross outliers (finite but physically impossible) also burn
        // the budget — three distinct ones quarantine kind 0 at m=1.
        for n in [400usize, 800, 1600] {
            e.ingest(&[poisoned(0, 2, 1, n, 1e9)])
                .expect("outliers are not fatal");
        }
        let snap = e.snapshot();
        assert_eq!(snap.health().quarantined, vec![(0, 1)]);
        // Kind 1 is measured at m=1, so the §3.5 fallback kicks in.
        assert_eq!(snap.health().composed_fallback, vec![(0, 1)]);
        assert!(snap.health().is_fallback((0, 1)));
        assert!(!snap.health().is_untrusted((0, 1)));
        assert!(snap.bank().composed_groups.contains(&(0, 1)));
        let fallback_pt = snap.bank().pt[&(0, 1)];
        assert_ne!(fallback_pt, pristine_pt, "fallback replaces the model");
        // Fallback coefficients are usable: finite estimate comes out.
        let cfg = Configuration::p1m1_p2m2(0, 1, 4, 2);
        let t = snap.estimate_raw(&cfg, 1600).expect("fallback serves");
        assert!(t.is_finite() && t > 0.0);
        // Recovery: clean data restores the *measured* model bit-exactly
        // (the fallback never leaked into the refit base).
        let key = SampleKey {
            kind: 0,
            pes: 2,
            m: 1,
        };
        e.ingest(&[(key, synth_sample(0, 2, 1, 4000))])
            .expect("refit ok");
        let healed = e.snapshot();
        assert!(healed.health().is_healthy());
        assert!(!healed.bank().composed_groups.contains(&(0, 1)));
        let full = PolyLsqBackend::paper().fit(&e.db()).expect("full fit ok");
        let want = full.pt[&(0, 1)];
        let got = healed.bank().pt[&(0, 1)];
        for i in 0..3 {
            assert_eq!(want.kc[i].to_bits(), got.kc[i].to_bits(), "kc[{i}]");
        }
    }

    #[test]
    fn db_handle_is_cow_stable_across_later_ingests() {
        let e = engine();
        let held = e.db();
        let held_len = held.len();
        let key = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        // A brand-new problem size: the writer must copy-on-write past
        // the held handle rather than mutate it in place.
        e.ingest(&[(key, synth_sample(1, 2, 1, 4000))])
            .expect("refit ok");
        assert_eq!(held.len(), held_len, "held handle must stay immutable");
        let fresh = e.db();
        assert_eq!(fresh.len(), held_len + 1);
        assert!(!Arc::ptr_eq(&held, &fresh));
        // With no reader holding the old version, consecutive calls
        // share one allocation.
        drop(held);
        drop(fresh);
        assert!(Arc::ptr_eq(&e.db(), &e.db()));
    }

    /// A backend whose fits can be failed on demand (via a flag shared
    /// with the test), for exercising the documented ingest-error
    /// recovery path.
    struct FlakyBackend {
        inner: PolyLsqBackend,
        fail: Arc<std::sync::atomic::AtomicBool>,
    }

    impl FlakyBackend {
        fn check(&self) -> Result<(), PipelineError> {
            if self.fail.load(std::sync::atomic::Ordering::SeqCst) {
                // Any PipelineError works; NoDonor needs no Lsq plumbing.
                return Err(PipelineError::NoDonor { kind: 99, m: 99 });
            }
            Ok(())
        }
    }

    impl ModelBackend for FlakyBackend {
        fn refit_groups(
            &self,
            db: &MeasurementDb,
            previous: &ModelBank,
            dirty: &[SampleKey],
            memo: &mut FitMemo,
        ) -> Result<(ModelBank, FitWork), PipelineError> {
            self.check()?;
            self.inner.refit_groups(db, previous, dirty, memo)
        }
    }

    /// The documented recovery contract: a fitting failure keeps the
    /// upserted samples and publishes no snapshot; a later successful
    /// ingest refits everything still dirty — converging on exactly the
    /// bank a full fit of the final database yields.
    #[test]
    fn failed_ingest_recovers_on_next_success() {
        let fail = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flaky = Box::new(FlakyBackend {
            inner: PolyLsqBackend::paper(),
            fail: Arc::clone(&fail),
        });
        let e = Engine::new(flaky, synth_db(), None).expect("synth db fits");
        let gen0 = e.snapshot();

        // Round 1: backend down, ingest into group (1, 1) fails.
        let key_a = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        let mut s_a = synth_sample(1, 2, 1, 800);
        s_a.ta *= 1.4;
        fail.store(true, std::sync::atomic::Ordering::SeqCst);
        let err = e.ingest(&[(key_a, s_a)]).expect_err("backend is down");
        assert!(matches!(err, PipelineError::NoDonor { kind: 99, m: 99 }));
        // No snapshot published; the slot still holds generation 0.
        assert!(Arc::ptr_eq(&gen0, &e.snapshot()));
        // But the sample *was* kept.
        let kept = e.db();
        let kept = kept
            .samples(&key_a)
            .iter()
            .find(|s| s.n == 800)
            .copied()
            .expect("sample retained across the failed refit");
        assert_eq!(kept, s_a);

        // Round 2: backend up again; touching a *different* group must
        // also refit the still-dirty (1, 1) from round 1.
        fail.store(false, std::sync::atomic::Ordering::SeqCst);
        let key_b = SampleKey {
            kind: 1,
            pes: 4,
            m: 2,
        };
        let mut s_b = synth_sample(1, 4, 2, 1600);
        s_b.tc *= 1.2;
        let snap = e.ingest(&[(key_b, s_b)]).expect("backend recovered");
        assert_eq!(snap.generation(), 1);
        assert_eq!(snap.refit_groups(), &[(1, 1), (1, 2)]);
        let full = PolyLsqBackend::paper().fit(&e.db()).expect("full fit ok");
        for (g, m) in &full.pt {
            let got = &snap.bank().pt[g];
            for i in 0..3 {
                assert_eq!(m.kc[i].to_bits(), got.kc[i].to_bits(), "{g:?} kc[{i}]");
            }
        }
    }

    /// Pending dirt is kept per key: a failed refit that changed key A,
    /// then a successful ingest that changes only key B of another
    /// group, refits A's N-T model as well as B's, and the bank equals a
    /// full fit bit for bit.
    #[test]
    fn failed_refit_keeps_its_dirty_keys_for_the_next_ingest() {
        let fail = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flaky = Box::new(FlakyBackend {
            inner: PolyLsqBackend::paper(),
            fail: Arc::clone(&fail),
        });
        let e = Engine::new(flaky, synth_db(), None).expect("synth db fits");
        let key_a = SampleKey {
            kind: 1,
            pes: 4,
            m: 1,
        };
        let mut s_a = synth_sample(1, 4, 1, 2400);
        s_a.tc *= 1.3;
        fail.store(true, std::sync::atomic::Ordering::SeqCst);
        e.ingest(&[(key_a, s_a)]).expect_err("backend is down");
        fail.store(false, std::sync::atomic::Ordering::SeqCst);
        let key_b = SampleKey {
            kind: 0,
            pes: 1,
            m: 2,
        };
        let mut s_b = synth_sample(0, 1, 2, 400);
        s_b.ta *= 0.9;
        let snap = e.ingest(&[(key_b, s_b)]).expect("backend recovered");
        assert_eq!(snap.refit_groups(), &[(0, 2), (1, 1)]);
        // Kind 0 is single-PE (composed, no P-T fit); group (1, 1) is
        // measured. Both keys keep the five sizes of the initial fit,
        // whose N-T design the memo still holds.
        assert_eq!(
            snap.fit_work(),
            FitWork {
                nt_fits: 2,
                nt_factorizations: 0,
                pt_fits: 1,
                pt_factorizations: 1,
            }
        );
        let full = PolyLsqBackend::paper().fit(&e.db()).expect("full fit ok");
        assert_banks_bit_equal(snap.bank(), &full);
        // A flush afterwards has nothing left to refit.
        let flushed = e.ingest(&[]).expect("nothing pending");
        assert!(Arc::ptr_eq(&snap, &flushed));
    }

    /// A backend that runs the real refit, memo updates included, and
    /// then fails on demand, discarding the bank it fit.
    struct FailsAfterFit {
        inner: PolyLsqBackend,
        fail: Arc<std::sync::atomic::AtomicBool>,
    }

    impl ModelBackend for FailsAfterFit {
        fn refit_groups(
            &self,
            db: &MeasurementDb,
            previous: &ModelBank,
            dirty: &[SampleKey],
            memo: &mut FitMemo,
        ) -> Result<(ModelBank, FitWork), PipelineError> {
            let fitted = self.inner.refit_groups(db, previous, dirty, memo)?;
            if self.fail.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(PipelineError::NoDonor { kind: 99, m: 99 });
            }
            Ok(fitted)
        }
    }

    /// A refit that fails after fitting leaves the P-T memo holding the
    /// designs of a bank that was never published. The retry reuses
    /// them, as their inputs still match, and converges on a full fit
    /// bit for bit.
    #[test]
    fn refit_failing_after_its_fit_leaves_a_memo_the_retry_can_reuse() {
        let fail = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let backend = Box::new(FailsAfterFit {
            inner: PolyLsqBackend::paper(),
            fail: Arc::clone(&fail),
        });
        let e = Engine::new(backend, synth_db(), None).expect("synth db fits");
        // The reference key of group (1, 1): its `kc` moves, so the
        // failed refit factors a new Tc design.
        let reference = SampleKey {
            kind: 1,
            pes: 4,
            m: 1,
        };
        let mut moved = synth_sample(1, 4, 1, 2400);
        moved.tc *= 1.3;
        fail.store(true, std::sync::atomic::Ordering::SeqCst);
        e.ingest(&[(reference, moved)])
            .expect_err("the refit is discarded");
        fail.store(false, std::sync::atomic::Ordering::SeqCst);
        let other = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        let mut s = synth_sample(1, 2, 1, 800);
        s.ta *= 1.1;
        let snap = e.ingest(&[(other, s)]).expect("the retry refits");
        assert_eq!(snap.refit_groups(), &[(1, 1)]);
        // The failed refit's N-T design is reused as well.
        assert_eq!(
            snap.fit_work(),
            FitWork {
                nt_fits: 2,
                nt_factorizations: 0,
                pt_fits: 1,
                pt_factorizations: 0,
            }
        );
        let full = PolyLsqBackend::paper().fit(&e.db()).expect("full fit ok");
        assert_banks_bit_equal(snap.bank(), &full);
    }

    /// One kind measured on `pes_list` PEs at `m = 1` over `sizes`: a
    /// single group of `pes_list.len()` keys sharing one size list.
    fn one_group_db(pes_list: &[usize], sizes: &[usize]) -> MeasurementDb {
        let mut db = MeasurementDb::new();
        for &pes in pes_list {
            for &n in sizes {
                db.record(SampleKey { kind: 1, pes, m: 1 }, synth_sample(1, pes, 1, n));
            }
        }
        db
    }

    /// In an 8-key group, a change the same batch reverts refits
    /// nothing: alone it publishes nothing, and beside a real change to
    /// another key only that key's N-T model is refit.
    #[test]
    fn reverted_key_of_a_large_group_refits_nothing() {
        let sizes = [400usize, 800, 1600, 2400, 3200];
        let e = Engine::new(
            Box::new(PolyLsqBackend::paper()),
            one_group_db(&[1, 2, 3, 4, 5, 6, 7, 8], &sizes),
            None,
        )
        .expect("one group fits");
        assert_eq!(
            e.snapshot().fit_work(),
            FitWork {
                nt_fits: 8,
                nt_factorizations: 2,
                pt_fits: 1,
                pt_factorizations: 2,
            }
        );
        let key = |pes| SampleKey { kind: 1, pes, m: 1 };
        let original = synth_sample(1, 3, 1, 1600);
        let mut changed = original;
        changed.ta *= 1.2;
        let before = e.snapshot();
        let after = e
            .ingest(&[(key(3), changed), (key(3), original)])
            .expect("nothing to refit");
        assert!(
            Arc::ptr_eq(&before, &after),
            "reverted change must not swap"
        );
        let mut other = synth_sample(1, 6, 1, 800);
        other.tc *= 1.1;
        let snap = e
            .ingest(&[(key(3), changed), (key(6), other), (key(3), original)])
            .expect("refit ok");
        assert_eq!(snap.refit_groups(), &[(1, 1)]);
        // The key's N-T design is the initial fit's, kept in the memo.
        assert_eq!(
            snap.fit_work(),
            FitWork {
                nt_fits: 1,
                nt_factorizations: 0,
                pt_fits: 1,
                pt_factorizations: 0,
            }
        );
        assert_eq!(
            snap.bank().nt[&key(3)],
            before.bank().nt[&key(3)],
            "the reverted key's model is carried over"
        );
        let full = PolyLsqBackend::paper().fit(&e.db()).expect("full fit ok");
        assert_banks_bit_equal(snap.bank(), &full);
    }

    /// A key that gains a size the rest of the campaign lacks gets a
    /// design of its own; keys still on the shared grid share another.
    #[test]
    fn key_with_an_extra_size_gets_its_own_design() {
        let sizes = [400usize, 600, 800, 1200, 1600, 2400, 3200, 4800, 6400];
        let e = Engine::new(
            Box::new(PolyLsqBackend::paper()),
            one_group_db(&[1, 2, 4], &sizes),
            None,
        )
        .expect("one group fits");
        let key = |pes| SampleKey { kind: 1, pes, m: 1 };
        let mut moved = synth_sample(1, 1, 1, 800);
        moved.ta *= 1.05;
        let mut moved_too = synth_sample(1, 4, 1, 3200);
        moved_too.tc *= 0.95;
        let snap = e
            .ingest(&[
                (key(1), moved),
                (key(2), synth_sample(1, 2, 1, 9600)),
                (key(4), moved_too),
            ])
            .expect("refit ok");
        assert_eq!(e.db().samples(&key(2)).len(), 10);
        // Only the new 10-size list is factored; the 9-size design is
        // the initial fit's, kept in the memo.
        assert_eq!(
            snap.fit_work(),
            FitWork {
                nt_fits: 3,
                nt_factorizations: 2,
                pt_fits: 1,
                pt_factorizations: 2,
            }
        );
        let full = PolyLsqBackend::paper().fit(&e.db()).expect("full fit ok");
        assert_banks_bit_equal(snap.bank(), &full);
    }

    /// The per-key change detection the per-slot tracking replaced, kept
    /// as its oracle: the keys `batch` names whose whole sample list
    /// differs bitwise between `before` and `after`, sorted and distinct.
    fn per_key_dirty(
        before: &MeasurementDb,
        after: &MeasurementDb,
        batch: &[(SampleKey, Sample)],
    ) -> Vec<SampleKey> {
        let mut dirty: Vec<SampleKey> = batch
            .iter()
            .map(|(key, _)| *key)
            .filter(|key| !crate::measurement::same_bits(before.samples(key), after.samples(key)))
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// One seeded batch over `db`: re-deliveries, changes, changes the
    /// batch later reverts, new sizes, a new key, sign-of-zero flips of
    /// one slot and inadmissible samples, in random order.
    fn random_batch(
        rng: &mut etm_support::rng::Rng64,
        db: &MeasurementDb,
    ) -> Vec<(SampleKey, Sample)> {
        // Six measured keys and (1, 3, 1), which the database lacks.
        let keys = [
            (0, 1, 1),
            (0, 1, 2),
            (1, 1, 1),
            (1, 2, 1),
            (1, 4, 1),
            (1, 2, 2),
            (1, 3, 1),
        ]
        .map(|(kind, pes, m)| SampleKey { kind, pes, m });
        let sizes = [400usize, 800, 1600, 2400, 3200, 4000, 4800];
        let mut batch = Vec::new();
        if rng.chance(0.3) {
            // Only bad samples, all of group (1, 1): enough of these in a
            // row quarantine it.
            for _ in 0..rng.range_inclusive(1, 3) {
                let mut bad = synth_sample(1, 4, 1, sizes[rng.range_usize(sizes.len())]);
                bad.ta = f64::NAN;
                batch.push((
                    SampleKey {
                        kind: 1,
                        pes: 4,
                        m: 1,
                    },
                    bad,
                ));
            }
            return batch;
        }
        let mut reverts = Vec::new();
        for _ in 0..rng.range_inclusive(1, 6) {
            let key = keys[rng.range_usize(keys.len())];
            let n = sizes[rng.range_usize(sizes.len())];
            let held = db.samples(&key).iter().find(|s| s.n == n).copied();
            let base = held.unwrap_or_else(|| synth_sample(key.kind, key.pes, key.m, n));
            let mut changed = base;
            changed.ta *= rng.range_f64(0.5, 1.5);
            changed.tc *= rng.range_f64(0.5, 1.5);
            match rng.range_usize(6) {
                0 => batch.push((key, base)),
                1 => batch.push((key, changed)),
                2 => {
                    batch.push((key, changed));
                    if let Some(held) = held {
                        reverts.push((key, held));
                    }
                }
                3 => {
                    let mut flip = synth_sample(1, 2, 1, 800);
                    flip.tc = if rng.chance(0.5) { 0.0 } else { -0.0 };
                    batch.push((
                        SampleKey {
                            kind: 1,
                            pes: 2,
                            m: 1,
                        },
                        flip,
                    ));
                }
                4 => {
                    let mut bad = changed;
                    bad.wall = [f64::NAN, f64::INFINITY, -1.0][rng.range_usize(3)];
                    batch.push((key, bad));
                }
                _ => {
                    batch.push((key, changed));
                    batch.push((key, changed));
                }
            }
        }
        batch.extend(reverts);
        batch
    }

    /// Per-slot change detection decides exactly what the per-key
    /// before/after comparison decides: after every seeded ingest the
    /// publication and `refit_groups()` match the oracle's, and the bank
    /// equals a full fit of the database bit for bit (the models of
    /// quarantined groups aside, which serve composed fallbacks).
    #[test]
    fn per_slot_change_detection_matches_the_per_key_oracle() {
        // Ingests that published with dirty keys, that published only a
        // quarantine move, that published nothing, and that served a
        // degraded bank: the generator must reach each.
        let mut seen = [0usize; 4];
        etm_support::prop::check(48, 0x0d17_7e57, |rng| {
            let e = engine();
            for _ in 0..6 {
                let before = e.db();
                let batch = random_batch(rng, &before);
                let quarantined = e.quarantined();
                let previous = e.snapshot();
                let snap = e.ingest(&batch).expect("the batch fits");
                let dirty = per_key_dirty(&before, &e.db(), &batch);
                let published = !Arc::ptr_eq(&previous, &snap);
                let moved = e.quarantined() != quarantined;
                assert_eq!(published, !dirty.is_empty() || moved, "{batch:?}");
                if published {
                    assert_eq!(snap.refit_groups(), groups_of_keys(&dirty), "{batch:?}");
                }
                seen[match (published, dirty.is_empty()) {
                    (true, false) => 0,
                    (true, true) => 1,
                    (false, _) => 2,
                }] += 1;
                let full = PolyLsqBackend::paper().fit(&e.db()).expect("full fit ok");
                if snap.health().is_healthy() {
                    assert_banks_bit_equal(snap.bank(), &full);
                    continue;
                }
                seen[3] += 1;
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(snap.bank().nt.len(), full.nt.len());
                for (key, model) in &full.nt {
                    let got = &snap.bank().nt[key];
                    assert_eq!(bits(&got.ka), bits(&model.ka), "{key:?} ka");
                    assert_eq!(bits(&got.kc), bits(&model.kc), "{key:?} kc");
                }
                for (group, model) in &full.pt {
                    if !snap.health().quarantined.contains(group) {
                        let got = &snap.bank().pt[group];
                        assert_eq!(bits(&got.ka), bits(&model.ka), "{group:?} ka");
                        assert_eq!(bits(&got.kc), bits(&model.kc), "{group:?} kc");
                    }
                }
            }
        });
        assert!(seen.iter().all(|&n| n > 0), "cases reached: {seen:?}");
    }

    /// The ownership contract: a held snapshot keeps answering with its
    /// own bits while the owning thread publishes later generations, the
    /// generations only grow, and the final bank equals a full fit.
    #[test]
    fn held_snapshot_keeps_its_bits_across_later_ingests() {
        let e = engine();
        let cfg = Configuration::p1m1_p2m2(1, 1, 4, 2);
        let n = 1600usize;
        let rounds = 40u64;
        let key = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        let held = e.snapshot();
        let held_bits = held.estimate_raw(&cfg, n).expect("estimable").to_bits();
        let mut last_gen = held.generation();
        for i in 0..rounds {
            let mut s = synth_sample(1, 2, 1, 800);
            s.ta *= 1.0 + 0.01 * (i + 1) as f64;
            let snap = e.ingest(&[(key, s)]).expect("refit ok");
            assert!(snap.generation() > last_gen, "generations must grow");
            last_gen = snap.generation();
            let again = held.estimate_raw(&cfg, n).expect("estimable");
            assert_eq!(held_bits, again.to_bits(), "held snapshot moved");
        }
        assert_eq!(held.generation(), 0);
        // The final snapshot equals a full fit of the final database —
        // no stale group slipped through.
        let full = PolyLsqBackend::paper().fit(&e.db()).expect("full fit ok");
        let snap = e.snapshot();
        assert_eq!(snap.generation(), rounds);
        for (g, m) in &full.pt {
            let got = &snap.bank().pt[g];
            for i in 0..2 {
                assert_eq!(m.ka[i].to_bits(), got.ka[i].to_bits(), "{g:?} ka[{i}]");
            }
        }
    }
}
