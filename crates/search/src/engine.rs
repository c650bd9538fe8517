//! Engine-backed objectives: the optimizers of this crate driven by an
//! [`EngineSnapshot`](etm_core::engine::EngineSnapshot).
//!
//! The optimizers themselves are generic over `f(config) → time`; this
//! module supplies the objective the paper actually uses — the fitted
//! estimation model — served from an immutable engine snapshot. Because
//! snapshot queries are lock-free pure reads, a search can run
//! concurrently with refits: it keeps evaluating against the generation
//! it pinned, and a fresh search picks up the next generation.
//!
//! Both objectives, and [`best_config`], evaluate candidates through
//! [`EngineSnapshot::estimate`] — the snapshot's `ModelBank` walk — so
//! the selection is exactly the paper's §4 exhaustive minimum.

use etm_cluster::Configuration;
use etm_core::engine::EngineSnapshot;
use etm_core::pipeline::PipelineError;

use crate::{exhaustive, ConfigSpace, SearchResult};

/// An objective closure over a pinned snapshot: the §4.1-adjusted
/// estimate at problem size `n`. Configurations the bank cannot estimate
/// (no model for a used `(kind, m)` group) error out, which every
/// optimizer in this crate treats as "skip the candidate".
pub fn snapshot_objective(
    snapshot: &EngineSnapshot,
    n: usize,
) -> impl Fn(&Configuration) -> Result<f64, PipelineError> + '_ {
    move |config| snapshot.estimate(config, n)
}

/// A health-aware objective over a pinned snapshot: the same §4.1
/// estimate as [`snapshot_objective`], but consulting the snapshot's
/// [`EngineHealth`](etm_core::engine::EngineHealth) first.
///
/// * Configurations using an **untrusted** group — quarantined with no
///   §3.5 composed fallback — are refused with
///   [`PipelineError::ModelUntrusted`], which optimizers treat as "skip
///   the candidate".
/// * Configurations served by a **composed fallback** are discounted:
///   their estimate is multiplied by `fallback_penalty` (≥ 1), so a
///   measured configuration wins ties against a degraded one.
///
/// On a healthy snapshot this is bit-identical to
/// [`snapshot_objective`]: no penalty multiply is applied.
pub fn health_aware_objective(
    snapshot: &EngineSnapshot,
    n: usize,
    fallback_penalty: f64,
) -> impl Fn(&Configuration) -> Result<f64, PipelineError> + '_ {
    move |config| {
        let health = snapshot.health();
        // A healthy snapshot has no untrusted group and no fallback
        // (`composed_fallback ⊆ quarantined`): skip both scans.
        if health.is_healthy() {
            return snapshot.estimate(config, n);
        }
        if let Some((kind, m)) = health.first_untrusted(config) {
            return Err(PipelineError::ModelUntrusted { kind, m });
        }
        let t = snapshot.estimate(config, n)?;
        // Skip the multiply entirely when no penalty applies so the
        // healthy path stays bit-identical to `snapshot_objective`.
        Ok(if health.any_fallback(config) && fallback_penalty > 1.0 {
            t * fallback_penalty
        } else {
            t
        })
    }
}

/// The paper's §4 selection, engine-served: exhaustively evaluate every
/// configuration of `space` against the snapshot's model at size `n` and
/// return the estimated-fastest one. `None` when nothing is estimable.
///
/// This is [`exhaustive`] over [`snapshot_objective`]: strict `<`, the
/// first minimum wins, every candidate (including inestimable ones)
/// counts as an evaluation.
pub fn best_config(
    snapshot: &EngineSnapshot,
    space: &ConfigSpace,
    n: usize,
) -> Option<SearchResult> {
    exhaustive(space.configs(), snapshot_objective(snapshot, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use etm_cluster::commlib::CommLibProfile;
    use etm_cluster::spec::paper_cluster;
    use etm_core::backend::PolyLsqBackend;
    use etm_core::engine::Engine;
    use etm_core::{MeasurementDb, Sample, SampleKey};

    fn synth_db() -> MeasurementDb {
        let mut db = MeasurementDb::new();
        for kind in 0..2usize {
            let pes_list: &[usize] = if kind == 0 { &[1] } else { &[1, 2, 4] };
            for &pes in pes_list {
                for m in 1..=2usize {
                    for n in [400usize, 800, 1600, 2400, 3200] {
                        let x = n as f64;
                        let p = (pes * m) as f64;
                        let speed = if kind == 0 { 2.0 } else { 1.0 };
                        let ta = (2e-9 * x * x * x / p + 1e-5 * x) / speed + 0.05;
                        let tc = 1e-7 * x * x * (0.3 * p + 0.7 / p) + 0.01;
                        db.record(
                            SampleKey { kind, pes, m },
                            Sample {
                                n,
                                ta,
                                tc,
                                wall: ta + tc,
                                multi_node: pes > 1,
                            },
                        );
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
    fn best_config_picks_the_estimated_minimum() {
        let e = engine();
        let snapshot = e.snapshot();
        let space = ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![2, 2]);
        let best = best_config(&snapshot, &space, 1600).expect("some candidate estimable");
        // Exhaustive means nothing estimable beats it.
        let objective = snapshot_objective(&snapshot, 1600);
        for cfg in space.enumerate() {
            if let Ok(t) = objective(&cfg) {
                assert!(best.time <= t, "{cfg:?} beats the reported best");
            }
        }
        assert!(best.time.is_finite() && best.time > 0.0);
    }

    /// The engine-served selection must agree with a manual
    /// `exhaustive` loop over the snapshot's estimator — same winner,
    /// same time to the bit, same evaluation count.
    #[test]
    fn best_config_matches_a_manual_exhaustive_search() {
        let e = engine();
        let snapshot = e.snapshot();
        let space = ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![2, 2]);
        for n in [400usize, 1600, 3200, 9999] {
            let served = best_config(&snapshot, &space, n).expect("estimable");
            let manual = exhaustive(&space.enumerate(), |cfg: &Configuration| {
                snapshot.estimate(cfg, n)
            })
            .expect("estimable");
            assert_eq!(served.config, manual.config, "n={n}");
            assert_eq!(served.time.to_bits(), manual.time.to_bits(), "n={n}");
            assert_eq!(served.evaluations, manual.evaluations, "n={n}");
        }
    }

    /// On a healthy snapshot the health-aware objective is the plain
    /// one, bit for bit and error for error, whatever the penalty.
    #[test]
    fn healthy_health_aware_objective_is_the_snapshot_objective() {
        let e = engine();
        let snapshot = e.snapshot();
        assert!(snapshot.health().is_healthy());
        let space = ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![2, 2]);
        let plain = snapshot_objective(&snapshot, 1600);
        let aware = health_aware_objective(&snapshot, 1600, 1.5);
        let configs = space.enumerate();
        assert!(!configs.is_empty());
        for cfg in &configs {
            match (aware(cfg), plain(cfg)) {
                (Ok(a), Ok(p)) => assert_eq!(a.to_bits(), p.to_bits(), "{cfg:?}"),
                (a, p) => assert_eq!(a, p, "{cfg:?}"),
            }
        }
    }

    #[test]
    fn pinned_snapshot_objective_survives_a_refit() {
        let e = engine();
        let snapshot = e.snapshot();
        let cfg = Configuration::p1m1_p2m2(1, 1, 2, 1);
        let before = snapshot.estimate(&cfg, 1600).expect("estimable");
        // Perturb a group: the engine publishes a new generation...
        let key = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        let mut s = synth_db().samples(&key)[1];
        s.ta *= 1.5;
        e.ingest(&[(key, s)]).expect("refit ok");
        // ...but the pinned objective still answers bit-identically.
        let after = snapshot.estimate(&cfg, 1600).expect("estimable");
        assert_eq!(before.to_bits(), after.to_bits());
    }
}
