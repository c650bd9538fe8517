//! The chaos acceptance criteria: sweep the seeded fault plans over the
//! NL campaign and hold the degradation ladder's invariants — no panic,
//! no deadlock, recoverable runs bit-identical to the clean one-shot
//! fit, unrecoverable runs quarantined exactly on the injected groups,
//! and no decision ever backed by an untrusted model.

use etm_core::faults::FaultPlan;
use etm_core::plan::MeasurementPlan;
use etm_core::stream::StreamConfig;
use etm_repro::chaos::{chaos_snapshot_trace, chaos_suite};
use etm_repro::stream::evaluation_space;
use etm_search::{exhaustive, health_aware_objective, OnlineOptimizer};

#[test]
fn chaos_suite_holds_the_ladder_invariants() {
    let rows = chaos_suite(&MeasurementPlan::nl(), 3200);
    assert!(!rows.is_empty());
    for r in &rows {
        assert!(r.ok, "scenario violated the ladder invariant: {r:?}");
        assert_eq!(r.untrusted_recommendations, 0, "{r:?}");
        assert!(r.decisions > 0, "the optimizer must keep deciding: {r:?}");
    }
    // The sweep must actually exercise every rung: clean convergence,
    // recovered corruption, and a typed degraded end state.
    assert!(rows.iter().any(|r| r.scenario == "clean" && r.converged));
    assert!(rows
        .iter()
        .any(|r| r.corrupted > 0 && r.recoverable && r.converged));
    let degraded: Vec<_> = rows.iter().filter(|r| !r.recoverable).collect();
    assert!(!degraded.is_empty());
    for r in degraded {
        assert!(!r.quarantined.is_empty(), "{r:?}");
        assert!(r.quarantine_matches_injection, "{r:?}");
        assert!(!r.converged, "poisoned groups cannot converge: {r:?}");
    }
}

/// The optimizer under chaos: replay the poison-group scenario (a group
/// quarantined mid-stream onto its §3.5 fallback), then drive the
/// optimizer over the published-snapshot sequence. Through healthy,
/// degrading, and degraded generations alike, every decision's optimum
/// must be bit-identical to a manual exhaustive search under the
/// health-aware objective, and its recommendation must never rest on an
/// untrusted group.
#[test]
fn optimizer_matches_exhaustive_health_aware_search_through_chaos() {
    let plan = MeasurementPlan::nl();
    let cfg = StreamConfig {
        batch_size: 16,
        shuffle_seed: Some(42),
        ..StreamConfig::default()
    };
    let fault = FaultPlan {
        seed: 17,
        corrupt_every: 1,
        target: Some((1, 1)),
        redeliver: false,
        ..FaultPlan::default()
    };
    let trace = chaos_snapshot_trace(&plan, &fault, cfg);
    assert!(trace.len() > 1, "the scenario must publish snapshots");
    let penalty = 1.25;
    let space = evaluation_space();
    let mut optimizer = OnlineOptimizer::new(space.clone(), 3200, 0.05)
        .expect("valid optimizer inputs")
        .with_fallback_penalty(penalty);
    let mut decisions = 0;
    for snap in &trace {
        let objective = health_aware_objective(snap, 3200, penalty);
        let manual = exhaustive(&space.enumerate(), &objective);
        let Some(d) = optimizer.observe(snap).cloned() else {
            assert!(manual.is_none(), "gen {}", snap.generation());
            continue;
        };
        decisions += 1;
        let manual = manual.expect("the optimizer decided, so a candidate is estimable");
        assert_eq!(d.generation, snap.generation());
        assert_eq!(d.best.config, manual.config, "gen {}", d.generation);
        assert_eq!(
            d.best.time.to_bits(),
            manual.time.to_bits(),
            "gen {}",
            d.generation
        );
        assert_eq!(d.best.evaluations, manual.evaluations);
        let recommended_time = objective(&d.recommended).expect("recommendations are trusted");
        assert_eq!(
            d.recommended_time.to_bits(),
            recommended_time.to_bits(),
            "gen {}",
            d.generation
        );
        assert_eq!(
            d.degraded,
            snap.health().any_fallback(&d.recommended),
            "gen {}",
            d.generation
        );
    }
    assert_eq!(optimizer.log().len(), decisions);
    // The scenario actually degrades the engine: the trace ends with
    // the targeted group quarantined (the optimizer may still steer to
    // fully healthy configurations — that is the point of the penalty).
    let last = trace.last().expect("non-empty trace");
    assert!(
        !last.health().quarantined.is_empty(),
        "poison-group must quarantine the targeted group"
    );
}
