//! Streaming replays of the construction campaigns: the online form of
//! the paper's offline workflow.
//!
//! [`stream_experiment`] replays a campaign as shuffled, duplicated
//! [`TrialBatch`](etm_core::stream::TrialBatch)es through
//! [`Engine::ingest_batch`], runs the §4 exhaustive selection against
//! every published snapshot via an
//! [`OnlineOptimizer`], and reports the
//! decision log next to the offline optimum of the completed campaign.
//!
//! The engines run *unadjusted* (no §4.1 transformation): the
//! adjustment is fit from reference measurements that are themselves
//! campaign data still arriving mid-stream.

use etm_cluster::spec::{paper_cluster, scaled_paper_cluster};
use etm_cluster::{CommLibProfile, Configuration};
use etm_core::backend::{ModelBackend, PolyLsqBackend};
use etm_core::engine::Engine;
use etm_core::pipeline::ModelBank;
use etm_core::plan::MeasurementPlan;
use etm_core::stream::{consume, replay, trials_of_db, StreamConfig, StreamReport};
use etm_core::MeasurementDb;
use etm_search::{best_config, ConfigSpace, OnlineDecision, OnlineOptimizer, SearchResult};

use crate::experiments::campaign_db;

/// Bit-level equality of two fitted model banks (every N-T and P-T
/// coefficient, plus the composition bookkeeping).
pub fn banks_bit_equal(a: &ModelBank, b: &ModelBank) -> bool {
    if a.nt.len() != b.nt.len() || a.pt.len() != b.pt.len() {
        return false;
    }
    for (key, ma) in &a.nt {
        let Some(mb) = b.nt.get(key) else {
            return false;
        };
        let ka = (0..4).all(|i| ma.ka[i].to_bits() == mb.ka[i].to_bits());
        let kc = (0..3).all(|i| ma.kc[i].to_bits() == mb.kc[i].to_bits());
        if !(ka && kc) {
            return false;
        }
    }
    for (key, ma) in &a.pt {
        let Some(mb) = b.pt.get(key) else {
            return false;
        };
        let ka = (0..2).all(|i| ma.ka[i].to_bits() == mb.ka[i].to_bits());
        let kc = (0..3).all(|i| ma.kc[i].to_bits() == mb.kc[i].to_bits());
        if !(ka && kc) {
            return false;
        }
    }
    a.composed_kinds == b.composed_kinds && a.composed_groups == b.composed_groups
}

/// The paper's §4 evaluation space on the paper cluster: `M₁ ≤ 6`,
/// `M₂ = 1` — 62 configurations.
pub fn evaluation_space() -> ConfigSpace {
    ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![6, 1])
}

/// The paper cluster with `dual_pii_nodes` dual Pentium-II nodes, both
/// kinds at `M ≤ 6`: 342 configurations at the paper's 4 nodes, 1,350
/// at 16 and 5,382 at 64. A Basic snapshot prices these spaces' larger
/// process counts (up to 774 at 64 nodes) by extrapolating its P-T
/// models, so they measure a search's cost and exactness, never its
/// selection quality.
pub fn scaled_space(dual_pii_nodes: usize) -> ConfigSpace {
    ConfigSpace::new(
        &scaled_paper_cluster(dual_pii_nodes, CommLibProfile::mpich122()),
        vec![6, 6],
    )
}

/// Streams `trials` through a fresh engine on the paper's backend:
/// replays them under `cfg`, bootstraps on the shortest prefix of
/// batches the backend can fit at all (a campaign starts unfittable —
/// one PE count, too few sizes), then drives `Engine::ingest_batch` over
/// the rest via [`consume`], invoking `on_snapshot` with the bootstrap
/// snapshot and every published one. Returns the engine with the stream
/// fully applied and flushed.
///
/// # Panics
/// Panics if the campaign never becomes fittable or contains non-finite
/// samples — both impossible for a completed construction campaign.
pub(crate) fn stream_through<F>(
    trials: Vec<(etm_core::SampleKey, etm_core::Sample)>,
    cfg: StreamConfig,
    mut on_snapshot: F,
) -> (Engine, StreamReport)
where
    F: FnMut(&std::sync::Arc<etm_core::EngineSnapshot>),
{
    let batches = replay(&trials, &cfg);
    let mut pending = MeasurementDb::new();
    let mut bootstrap = None;
    for (i, batch) in batches.iter().enumerate() {
        for (k, s) in &batch.trials {
            pending.upsert(*k, *s);
        }
        if let Ok(e) = Engine::new(Box::new(PolyLsqBackend::paper()), pending.clone(), None) {
            bootstrap = Some((e, i + 1));
            break;
        }
    }
    let (engine, bootstrap_batches) = bootstrap.expect("campaign must bootstrap an engine");
    on_snapshot(&engine.snapshot());
    let mut report = consume(&engine, &batches[bootstrap_batches..], on_snapshot)
        .expect("completed campaign data is finite");
    report.batches += bootstrap_batches;
    (engine, report)
}

/// Outcome of one streamed campaign with online re-optimization.
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// What the consumer loop did with the stream.
    pub report: StreamReport,
    /// One decision per observed snapshot, in generation order.
    pub decisions: Vec<OnlineDecision>,
    /// The optimizer's standing recommendation after the stream drained.
    pub recommended: Configuration,
    /// The offline §4 optimum of the completed campaign, same backend,
    /// same (unadjusted) serving path.
    pub offline: SearchResult,
    /// Whether the streamed engine's final bank is bit-identical to the
    /// one-shot fit of the same campaign — the tentpole invariant.
    pub converged: bool,
}

/// Streams a campaign (shuffled, duplicated per `cfg`) through the
/// paper's backend while an [`OnlineOptimizer`] re-runs the §4
/// selection at size `n` against every published snapshot, switching
/// its recommendation past the `hysteresis` threshold.
pub fn stream_experiment(
    plan: &MeasurementPlan,
    cfg: StreamConfig,
    hysteresis: f64,
    n: usize,
) -> StreamRun {
    let db = campaign_db(plan);
    let trials = trials_of_db(&db);
    let reference = PolyLsqBackend::paper().fit(&db).expect("one-shot fit");
    let offline_engine =
        Engine::new(Box::new(PolyLsqBackend::paper()), db, None).expect("completed campaign fits");
    let offline =
        best_config(&offline_engine.snapshot(), &evaluation_space(), n).expect("offline optimum");

    let mut optimizer =
        OnlineOptimizer::new(evaluation_space(), n, hysteresis).expect("valid optimizer inputs");
    let (engine, report) = stream_through(trials, cfg, |snap| {
        optimizer.observe(snap);
    });
    let converged = banks_bit_equal(engine.snapshot().bank(), &reference);
    let recommended = optimizer
        .recommended()
        .cloned()
        .expect("at least the bootstrap snapshot is estimable");
    StreamRun {
        report,
        decisions: optimizer.log().to_vec(),
        recommended,
        offline,
        converged,
    }
}
