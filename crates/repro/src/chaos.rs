//! The chaos suite: seeded fault plans swept over a streamed campaign,
//! asserting the degradation ladder's end-to-end invariants.
//!
//! Each scenario replays a campaign as batches, applies a pure
//! [`FaultPlan`] (corruption, drops, truncation, duplicate floods), and
//! drains the faulted batches in-process through [`consume`]. A
//! health-aware [`OnlineOptimizer`] observes every published snapshot.
//! The invariants, per scenario:
//!
//! * **No panic** — every run completes.
//! * **Recoverable faults converge**: when every lost trial is
//!   re-delivered clean ([`FaultPlan::redeliver`]) — or nothing was
//!   lost at all — the final bank is bit-identical to the one-shot fit
//!   of the clean campaign and no group is quarantined.
//! * **Unrecoverable faults degrade, typed**: the run ends with the
//!   quarantined set exactly equal to the injected-faulty groups of the
//!   [`FaultLog`] — no more, no fewer.
//! * **The optimizer never trusts a quarantined model**: no logged
//!   decision recommends a configuration backed by an untrusted
//!   (quarantined, non-composed) group, at any generation.

use std::collections::BTreeSet;
use std::sync::Arc;

use etm_core::backend::{ModelBackend, PolyLsqBackend};
use etm_core::engine::{Engine, EngineSnapshot};
use etm_core::faults::{CorruptKind, FaultLog, FaultPlan};
use etm_core::pipeline::groups_of;
use etm_core::plan::MeasurementPlan;
use etm_core::stream::{consume, replay, trials_of_db, StreamConfig, TrialBatch};
use etm_core::MeasurementDb;
use etm_search::OnlineOptimizer;

use crate::experiments::campaign_db;
use crate::stream::{banks_bit_equal, evaluation_space};

/// One chaos scenario's outcome against the ladder invariants.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Whether the injected faults are recoverable (lost trials
    /// re-delivered clean, or nothing lost at all).
    pub recoverable: bool,
    /// Batches the consumer ingested.
    pub batches: usize,
    /// Snapshots published.
    pub published: usize,
    /// Samples the engine's admission check rejected.
    pub rejected: usize,
    /// Trials the fault plan corrupted.
    pub corrupted: usize,
    /// Final quarantined `(kind, m)` groups.
    pub quarantined: Vec<(usize, usize)>,
    /// Final quarantined groups served by a §3.5 composed fallback.
    pub fallback: Vec<(usize, usize)>,
    /// Whether the final bank is bit-identical to the clean one-shot
    /// fit.
    pub converged: bool,
    /// Whether the final quarantined set equals the expected set (empty
    /// for recoverable scenarios, the injected-faulty groups otherwise).
    pub quarantine_matches_injection: bool,
    /// Decisions the online optimizer logged.
    pub decisions: usize,
    /// Decisions that recommended a configuration backed by an
    /// untrusted group — must be zero, always.
    pub untrusted_recommendations: usize,
    /// The scenario's ladder invariant, condensed.
    pub ok: bool,
}

/// The fixed scenario sweep: one plan per rung of the fault model.
/// Every plan is a pure literal — the sweep is reproducible bit-for-bit.
pub(crate) fn chaos_scenarios() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("clean", FaultPlan::default()),
        (
            "corrupt-nan",
            FaultPlan {
                seed: 11,
                corrupt_every: 7,
                ..FaultPlan::default()
            },
        ),
        (
            "corrupt-inf",
            FaultPlan {
                seed: 12,
                corrupt_every: 5,
                corrupt: CorruptKind::Inf,
                ..FaultPlan::default()
            },
        ),
        (
            "corrupt-outlier",
            FaultPlan {
                seed: 13,
                corrupt_every: 6,
                corrupt: CorruptKind::Outlier,
                ..FaultPlan::default()
            },
        ),
        (
            "drop-truncate",
            FaultPlan {
                seed: 14,
                drop_every: 5,
                truncate_every: 4,
                ..FaultPlan::default()
            },
        ),
        (
            "duplicate-flood",
            FaultPlan {
                seed: 15,
                flood_every: 3,
                ..FaultPlan::default()
            },
        ),
        (
            "poison-group",
            FaultPlan {
                seed: 17,
                corrupt_every: 1,
                target: Some((1, 1)),
                redeliver: false,
                ..FaultPlan::default()
            },
        ),
        (
            "compound",
            FaultPlan {
                seed: 18,
                corrupt_every: 9,
                drop_every: 6,
                flood_every: 4,
                ..FaultPlan::default()
            },
        ),
    ]
}

fn is_recoverable(fault: &FaultPlan) -> bool {
    fault.redeliver
        || (fault.corrupt_every == 0 && fault.drop_every == 0 && fault.truncate_every == 0)
}

/// Runs one fault plan over a streamed campaign and scores the ladder
/// invariants. The engine starts from a stale calibration of the same
/// campaign (every `Ta` inflated 10%), so every group is fittable from
/// generation 0 and the faults hit a *serving* engine, not a
/// bootstrapping one — the production shape of the problem.
pub(crate) fn run_chaos_scenario(
    plan: &MeasurementPlan,
    scenario: &'static str,
    fault: &FaultPlan,
    cfg: StreamConfig,
    n: usize,
) -> ChaosRow {
    let db = campaign_db(plan);
    let reference = PolyLsqBackend::paper().fit(&db).expect("one-shot fit");
    let (engine, faulted, log) = stale_engine_and_faulted_batches(&db, fault, cfg);

    let mut optimizer =
        OnlineOptimizer::new(evaluation_space(), n, 0.05).expect("valid optimizer inputs");
    let mut untrusted_recommendations = 0usize;
    let report = consume(&engine, &faulted, |snap| {
        if let Some(d) = optimizer.observe(snap) {
            let health = snap.health();
            if groups_of(&d.recommended).any(|g| health.is_untrusted(g)) {
                untrusted_recommendations += 1;
            }
        }
    })
    .expect("the final flush fits: every group is fittable from the stale seed");

    let snap = engine.snapshot();
    let health = snap.health().clone();
    let recoverable = is_recoverable(fault);
    let converged = banks_bit_equal(snap.bank(), &reference);
    let quarantined_set: BTreeSet<(usize, usize)> = health.quarantined.iter().copied().collect();
    let expected_set: BTreeSet<(usize, usize)> = if recoverable {
        BTreeSet::new()
    } else {
        log.corrupted_groups.clone()
    };
    let quarantine_matches_injection = quarantined_set == expected_set;
    let decisions = optimizer.log().len();
    let ok = untrusted_recommendations == 0
        && quarantine_matches_injection
        && if recoverable {
            converged
        } else {
            !quarantined_set.is_empty()
        };
    ChaosRow {
        scenario,
        recoverable,
        batches: report.batches,
        published: report.published,
        rejected: health.rejected_samples,
        corrupted: log.corrupted,
        quarantined: health.quarantined.clone(),
        fallback: health.composed_fallback.clone(),
        converged,
        quarantine_matches_injection,
        decisions,
        untrusted_recommendations,
        ok,
    }
}

/// An engine seeded with a stale calibration of `db` (every `Ta`
/// inflated 10%), plus the campaign's replay under `cfg` with `fault`
/// applied.
fn stale_engine_and_faulted_batches(
    db: &MeasurementDb,
    fault: &FaultPlan,
    cfg: StreamConfig,
) -> (Engine, Vec<TrialBatch>, FaultLog) {
    let trials = trials_of_db(db);
    let mut seed_db = MeasurementDb::new();
    for (k, s) in &trials {
        let mut stale = *s;
        stale.ta *= 1.1;
        seed_db.upsert(*k, stale);
    }
    let engine =
        Engine::new(Box::new(PolyLsqBackend::paper()), seed_db, None).expect("stale campaign fits");
    let (faulted, log) = fault.apply(&replay(&trials, &cfg));
    (engine, faulted, log)
}

/// Streams one fault scenario in the same shape as
/// `run_chaos_scenario` (stale seed, faulted batches drained by
/// [`consume`]) and captures every published snapshot, in publication
/// order.
///
/// The trace lets callers check an [`OnlineOptimizer`]'s decisions
/// against an independent search over the identical snapshot sequence.
///
/// # Panics
/// Panics when the final flush cannot fit — which does not happen for
/// the fixed scenario sweep.
pub fn chaos_snapshot_trace(
    plan: &MeasurementPlan,
    fault: &FaultPlan,
    cfg: StreamConfig,
) -> Vec<Arc<EngineSnapshot>> {
    let (engine, faulted, _log) = stale_engine_and_faulted_batches(&campaign_db(plan), fault, cfg);
    let mut trace: Vec<Arc<EngineSnapshot>> = Vec::new();
    consume(&engine, &faulted, |snap| trace.push(Arc::clone(snap)))
        .expect("the final flush fits: every group is fittable from the stale seed");
    trace
}

/// Sweeps every scenario of `chaos_scenarios` over one campaign.
pub fn chaos_suite(plan: &MeasurementPlan, n: usize) -> Vec<ChaosRow> {
    let cfg = StreamConfig {
        batch_size: 16,
        shuffle_seed: Some(42),
        ..StreamConfig::default()
    };
    chaos_scenarios()
        .into_iter()
        .map(|(name, fault)| run_chaos_scenario(plan, name, &fault, cfg, n))
        .collect()
}

/// Renders a group list as `kind:m` pairs joined by `|` (CSV-safe).
pub fn format_groups(groups: &[(usize, usize)]) -> String {
    if groups.is_empty() {
        return "-".to_string();
    }
    groups
        .iter()
        .map(|(k, m)| format!("{k}:{m}"))
        .collect::<Vec<_>>()
        .join("|")
}
