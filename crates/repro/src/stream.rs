//! Streaming replays of the construction campaigns: the online form of
//! the paper's offline workflow, plus a snapshot-pinned backend A/B
//! harness.
//!
//! [`stream_experiment`] replays a campaign as shuffled, duplicated
//! [`TrialBatch`](etm_core::stream::TrialBatch)es through
//! [`Engine::ingest_batch`], runs the §4 exhaustive selection against
//! every published snapshot via an
//! [`OnlineOptimizer`](etm_search::OnlineOptimizer), and reports the
//! decision log next to the offline optimum of the completed campaign.
//!
//! [`ab_compare`] streams the *identical* batch sequence through two
//! fitting backends, pins one final snapshot per engine, and reports
//! per-configuration estimate divergence over the 62-configuration
//! evaluation grid plus each backend's error against simulated
//! measurement and the campaign's Table-3/6-style measurement cost.
//!
//! Both run the engines *unadjusted* (no §4.1 transformation): the
//! adjustment is fit from reference measurements that are themselves
//! campaign data still arriving mid-stream, so raw estimates on both
//! sides compare like with like.

use std::time::Duration;

use etm_cluster::spec::paper_cluster;
use etm_cluster::{CommLibProfile, Configuration, KindId};
use etm_core::backend::{BinnedPolyBackend, ModelBackend, PolyLsqBackend};
use etm_core::engine::Engine;
use etm_core::pipeline::ModelBank;
use etm_core::plan::{MeasurementPlan, PlanKind};
use etm_core::stream::{consume, trials_of_db, StreamConfig, StreamReport, TrialSource};
use etm_core::MeasurementDb;
use etm_search::{best_config, ConfigSpace, OnlineDecision, OnlineOptimizer, SearchResult};

use crate::correlate::correlation_at;
use crate::experiments::{campaign_db, NB};

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

/// Streams `trials` through a fresh engine: bootstraps on the first
/// batches until the backend can fit at all (a campaign starts
/// unfittable — one PE count, too few sizes), then drives
/// `Engine::ingest_batch` via [`consume`], invoking `on_snapshot` with
/// every published snapshot. Returns the engine with the stream fully
/// applied and flushed.
///
/// # Panics
/// Panics if the campaign never becomes fittable or contains non-finite
/// samples — both impossible for a completed construction campaign.
pub fn stream_through<F>(
    backend_of: &dyn Fn() -> Box<dyn ModelBackend>,
    trials: Vec<(etm_core::SampleKey, etm_core::Sample)>,
    cfg: StreamConfig,
    mut on_snapshot: F,
) -> (Engine, StreamReport)
where
    F: FnMut(&std::sync::Arc<etm_core::EngineSnapshot>),
{
    let source = TrialSource::spawn(trials, cfg);
    let rx = source.receiver();
    let mut pending = MeasurementDb::new();
    let mut engine: Option<Engine> = None;
    let mut bootstrap_batches = 0usize;
    while engine.is_none() {
        let Ok(batch) = rx.recv() else {
            break;
        };
        bootstrap_batches += 1;
        for (k, s) in &batch.trials {
            pending.upsert(*k, *s);
        }
        if let Ok(e) = Engine::new(backend_of(), pending.clone(), None) {
            engine = Some(e);
        }
    }
    let engine = engine.expect("campaign must bootstrap an engine");
    on_snapshot(&engine.snapshot());
    let mut report = consume(&engine, rx, Duration::from_secs(30), |_, snap| {
        on_snapshot(snap)
    })
    .expect("completed campaign data is finite");
    report.batches += bootstrap_batches;
    source.join();
    (engine, report)
}

/// Outcome of one streamed campaign with online re-optimization.
#[derive(Clone, Debug)]
pub struct StreamRun {
    /// Which campaign was streamed.
    pub plan: PlanKind,
    /// Problem size the online selection optimizes.
    pub n: usize,
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
    let (engine, report) =
        stream_through(&|| Box::new(PolyLsqBackend::paper()), trials, cfg, |snap| {
            optimizer.observe(snap);
        });
    let converged = banks_bit_equal(engine.snapshot().bank(), &reference);
    let recommended = optimizer
        .recommended()
        .cloned()
        .expect("at least the bootstrap snapshot is estimable");
    StreamRun {
        plan: plan.kind,
        n,
        report,
        decisions: optimizer.log().to_vec(),
        recommended,
        offline,
        converged,
    }
}

/// One evaluation-grid configuration under both pinned snapshots.
#[derive(Clone, Debug)]
pub struct AbRow {
    /// The candidate configuration.
    pub config: Configuration,
    /// Fast-kind multiplicity `M₁` (the plots' series key).
    pub m1: usize,
    /// Estimate under backend A's final snapshot, seconds.
    pub estimate_a: f64,
    /// Estimate under backend B's final snapshot, seconds. `NaN` when
    /// backend B's bank lacks the models this configuration needs — a
    /// bank-shape mismatch reported as a divergence row, not a crash.
    pub estimate_b: f64,
    /// Simulated measured time, seconds.
    pub measured: f64,
}

impl AbRow {
    /// Relative estimate divergence `(B − A)/A`.
    pub fn divergence(&self) -> f64 {
        (self.estimate_b - self.estimate_a) / self.estimate_a
    }

    /// Backend A's relative error against measurement.
    pub fn rel_error_a(&self) -> f64 {
        (self.estimate_a - self.measured) / self.measured
    }

    /// Backend B's relative error against measurement.
    pub fn rel_error_b(&self) -> f64 {
        (self.estimate_b - self.measured) / self.measured
    }
}

/// The snapshot-pinned A/B comparison of two backends over one streamed
/// campaign.
#[derive(Clone, Debug)]
pub struct AbReport {
    /// Which campaign was streamed.
    pub plan: PlanKind,
    /// Problem size of the evaluation grid.
    pub n: usize,
    /// Backend A's name (the paper's pipeline).
    pub backend_a: &'static str,
    /// Backend B's name.
    pub backend_b: &'static str,
    /// Stream accounting for backend A's engine.
    pub report_a: StreamReport,
    /// Stream accounting for backend B's engine.
    pub report_b: StreamReport,
    /// Generation each engine's pinned snapshot carries.
    pub generations: (u64, u64),
    /// One row per grid configuration estimable under snapshot A;
    /// configurations snapshot B cannot estimate appear with
    /// `estimate_b = NaN` rather than being dropped.
    pub rows: Vec<AbRow>,
    /// Grid configurations estimable under A but not B — the two banks
    /// disagree on shape (a group fit by one backend only).
    pub shape_mismatches: usize,
    /// Table-3/6-style campaign cost: total simulated measurement
    /// seconds both engines ingested.
    pub campaign_cost: f64,
}

impl AbReport {
    /// Mean absolute relative estimate divergence across the grid.
    /// Shape-mismatch rows (non-finite divergence) are excluded.
    pub fn mean_abs_divergence(&self) -> f64 {
        let finite: Vec<f64> = self
            .rows
            .iter()
            .map(|r| r.divergence().abs())
            .filter(|d| d.is_finite())
            .collect();
        if finite.is_empty() {
            return 0.0;
        }
        finite.iter().sum::<f64>() / finite.len() as f64
    }

    /// Largest absolute relative divergence across the grid, over rows
    /// both snapshots could estimate.
    pub fn max_abs_divergence(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.divergence().abs())
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }

    /// Mean absolute relative error of each backend against simulated
    /// measurement, `(A, B)`, each over the rows that backend could
    /// estimate.
    pub fn mean_abs_rel_errors(&self) -> (f64, f64) {
        let mean = |errors: Vec<f64>| {
            if errors.is_empty() {
                0.0
            } else {
                errors.iter().sum::<f64>() / errors.len() as f64
            }
        };
        let a = mean(
            self.rows
                .iter()
                .map(|r| r.rel_error_a().abs())
                .filter(|e| e.is_finite())
                .collect(),
        );
        let b = mean(
            self.rows
                .iter()
                .map(|r| r.rel_error_b().abs())
                .filter(|e| e.is_finite())
                .collect(),
        );
        (a, b)
    }
}

/// Streams the identical replayed batch sequence of a campaign through
/// the paper's `poly_lsq` backend and the per-regime `binned_poly`
/// backend, pins each engine's final snapshot, and evaluates both over
/// the 62-configuration grid at size `n`.
pub fn ab_compare(plan: &MeasurementPlan, cfg: StreamConfig, n: usize) -> AbReport {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let db = campaign_db(plan);
    let trials = trials_of_db(&db);
    let (engine_a, report_a) = stream_through(
        &|| Box::new(PolyLsqBackend::paper()),
        trials.clone(),
        cfg,
        |_| {},
    );
    let (engine_b, report_b) = stream_through(
        &|| Box::new(BinnedPolyBackend::paper()),
        trials,
        cfg,
        |_| {},
    );
    // Pin both snapshots: later ingests on either engine cannot move
    // this comparison.
    let snap_a = engine_a.snapshot();
    let snap_b = engine_b.snapshot();
    let points = correlation_at(&spec, &snap_a, n, NB);
    // A configuration B's bank cannot estimate is a finding, not a
    // crash: report it as a NaN-divergence row and count it.
    let mut shape_mismatches = 0usize;
    let rows: Vec<AbRow> = points
        .iter()
        .map(|p| {
            let estimate_b = snap_b.estimate(&p.config, n).unwrap_or_else(|_| {
                shape_mismatches += 1;
                f64::NAN
            });
            AbRow {
                config: p.config.clone(),
                m1: p.config.procs_per_pe(KindId(snap_a.fast_kind())),
                estimate_a: p.estimate_raw,
                estimate_b,
                measured: p.measured,
            }
        })
        .collect();
    AbReport {
        plan: plan.kind,
        n,
        backend_a: engine_a.backend_name(),
        backend_b: engine_b.backend_name(),
        report_a,
        report_b,
        generations: (snap_a.generation(), snap_b.generation()),
        rows,
        shape_mismatches,
        campaign_cost: db.total_cost(),
    }
}
