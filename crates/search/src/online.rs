//! Online re-optimization with hysteresis: re-run the §4 selection
//! against every published engine snapshot, but only *switch* the
//! recommended configuration when the estimated improvement clears a
//! threshold.
//!
//! The paper picks a configuration once, offline. When measurements
//! stream in (`etm_core::stream`), the model — and therefore the best
//! configuration — moves with every snapshot. Re-deploying a job layout
//! on every twitch of the model would thrash, so the
//! [`OnlineOptimizer`] holds its recommendation until a new optimum is
//! at least `hysteresis` (relative) faster than the *current estimate
//! of the held configuration*, and records every observation in a
//! decision log of (generation, best config, estimated time).
//!
//! The optimizer is **health-aware**: it evaluates candidates with the
//! semantics of [`health_aware_objective`], so configurations backed by
//! an untrusted quarantined group are never recommended, and
//! configurations served by a §3.5 composed fallback are discounted by
//! `fallback_penalty` (and the decision tagged
//! [`OnlineDecision::degraded`]).
//!
//! Every observation evaluates each candidate once through that
//! objective (one [`EngineSnapshot::estimate`] walk per candidate); the
//! search and the hysteresis re-estimate of the held configuration both
//! read those same times.

use std::sync::Arc;

use etm_cluster::Configuration;
use etm_core::engine::EngineSnapshot;

use crate::{exhaustive, health_aware_objective, ConfigSpace, SearchResult};

/// One entry of the decision log: what the §4 search found at a
/// generation, and what the optimizer recommended after hysteresis.
#[derive(Clone, Debug)]
pub struct OnlineDecision {
    /// Snapshot generation the search ran against.
    pub generation: u64,
    /// The exhaustive optimum at this generation.
    pub best: SearchResult,
    /// The configuration recommended *after* hysteresis (the held one,
    /// unless the optimum cleared the threshold).
    pub recommended: Configuration,
    /// Estimated time of the recommendation under this generation's
    /// model, seconds.
    pub recommended_time: f64,
    /// Whether this observation switched the recommendation.
    pub switched: bool,
    /// Whether the recommendation depends on a §3.5 composed-fallback
    /// model — the snapshot was degraded and the estimate carries the
    /// optimizer's fallback penalty.
    pub degraded: bool,
}

/// Why an [`OnlineOptimizer`] could not be constructed: a typed refusal
/// of a non-finite or out-of-range input, raised before any state is
/// built.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizerError {
    /// Hysteresis τ was NaN or ±∞.
    NonFiniteHysteresis(f64),
    /// Hysteresis τ was negative.
    NegativeHysteresis(f64),
    /// Problem size `n` was zero — nothing to estimate.
    ZeroProblemSize,
}

impl std::fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizerError::NonFiniteHysteresis(h) => {
                write!(f, "hysteresis must be finite, got {h}")
            }
            OptimizerError::NegativeHysteresis(h) => {
                write!(f, "hysteresis must be non-negative, got {h}")
            }
            OptimizerError::ZeroProblemSize => {
                write!(f, "problem size n must be positive")
            }
        }
    }
}

impl std::error::Error for OptimizerError {}

/// Re-runs the §4 exhaustive selection per snapshot, switching its
/// standing recommendation only past a relative-improvement threshold.
pub struct OnlineOptimizer {
    /// The candidate space, enumerated once.
    configs: Vec<Configuration>,
    n: usize,
    hysteresis: f64,
    fallback_penalty: f64,
    held: Option<Configuration>,
    log: Vec<OnlineDecision>,
    last_seen: Option<u64>,
    /// Scratch for each candidate's time under the snapshot being
    /// observed, in enumeration order; kept between observations only
    /// for its capacity.
    times: Vec<Option<f64>>,
}

impl OnlineOptimizer {
    /// Creates an optimizer over `space` at problem size `n`.
    /// `hysteresis` is the relative improvement a new optimum must show
    /// over the held configuration's *current* estimate before the
    /// recommendation switches — 0.0 switches on any improvement, 0.05
    /// requires 5%.
    ///
    /// # Errors
    /// [`OptimizerError`] when `hysteresis` is negative or not finite,
    /// or `n` is zero.
    pub fn new(space: ConfigSpace, n: usize, hysteresis: f64) -> Result<Self, OptimizerError> {
        if !hysteresis.is_finite() {
            return Err(OptimizerError::NonFiniteHysteresis(hysteresis));
        }
        if hysteresis < 0.0 {
            return Err(OptimizerError::NegativeHysteresis(hysteresis));
        }
        if n == 0 {
            return Err(OptimizerError::ZeroProblemSize);
        }
        Ok(OnlineOptimizer {
            configs: space.enumerate(),
            n,
            hysteresis,
            fallback_penalty: 1.25,
            held: None,
            log: Vec::new(),
            last_seen: None,
            times: Vec::new(),
        })
    }

    /// Sets the multiplicative discount applied to estimates served by a
    /// §3.5 composed-fallback model (default 1.25 — a degraded estimate
    /// must look 25% better than a measured one to win). `1.0` disables
    /// the discount.
    ///
    /// # Panics
    /// Panics if `penalty` is below 1.0 or not finite.
    #[must_use]
    pub fn with_fallback_penalty(mut self, penalty: f64) -> Self {
        assert!(
            penalty.is_finite() && penalty >= 1.0,
            "fallback penalty must be a finite factor >= 1"
        );
        self.fallback_penalty = penalty;
        self
    }

    /// Observes one published snapshot: runs the exhaustive §4 search
    /// against it, applies hysteresis, appends to the decision log, and
    /// returns the new entry. `None` when nothing in the space is
    /// estimable under this snapshot (nothing is logged then — there is
    /// no decision to record).
    pub fn observe(&mut self, snapshot: &Arc<EngineSnapshot>) -> Option<&OnlineDecision> {
        self.last_seen = Some(snapshot.generation());
        // The health-aware evaluation refuses untrusted groups (so they
        // are skipped like any other inestimable candidate) and
        // penalizes composed fallbacks; on a healthy snapshot it is
        // bit-identical to the plain snapshot objective. The held
        // configuration is re-estimated under *this* generation's
        // model: hysteresis compares like with like, and a held config
        // the new model cannot estimate (its group vanished) forces a
        // switch.
        let configs = &self.configs;
        let objective = health_aware_objective(snapshot, self.n, self.fallback_penalty);
        // `exhaustive` evaluates every candidate once, in order; keep
        // each time so nothing below walks a candidate again.
        let times = &mut self.times;
        times.clear();
        let best = exhaustive(configs, |cfg| {
            let t = objective(cfg);
            times.push(t.as_ref().ok().copied());
            t
        })?;
        // The held configuration was recommended from this same space,
        // so its current estimate is one of the times just computed.
        let held_time = self
            .held
            .as_ref()
            .and_then(|held| configs.iter().position(|c| c == held))
            .and_then(|i| times[i])
            .filter(|t| t.is_finite());
        let switched = match held_time {
            None => true,
            Some(current) => best.time < current * (1.0 - self.hysteresis),
        };
        let (recommended, recommended_time) = if switched {
            (best.config.clone(), best.time)
        } else {
            let held = self.held.clone().expect("held_time implies a held config");
            let t = held_time.expect("checked above");
            (held, t)
        };
        let degraded = snapshot.health().any_fallback(&recommended);
        if switched {
            self.held = Some(recommended.clone());
        }
        self.log.push(OnlineDecision {
            generation: snapshot.generation(),
            best,
            recommended,
            recommended_time,
            switched,
            degraded,
        });
        self.log.last()
    }

    /// Observes a *polled* snapshot slot: like [`OnlineOptimizer::observe`],
    /// but a no-op returning `None` when the snapshot's generation was
    /// already observed. This is the entry point for consumers that
    /// poll a published slot (a closed loop re-reading the engine, a
    /// supervised engine between publications) instead of being
    /// driven per publication — polling faster than the producer
    /// publishes must not pad the decision log with duplicates.
    ///
    /// Note the dedup is by generation value, a per-producer counter:
    /// point a fresh optimizer at one slot, not several.
    pub fn observe_fresh(&mut self, snapshot: &Arc<EngineSnapshot>) -> Option<&OnlineDecision> {
        if self.last_seen == Some(snapshot.generation()) {
            return None;
        }
        self.observe(snapshot)
    }

    /// The standing recommendation, if any observation succeeded yet.
    pub fn recommended(&self) -> Option<&Configuration> {
        self.held.as_ref()
    }

    /// The full decision log, in observation order.
    pub fn log(&self) -> &[OnlineDecision] {
        &self.log
    }

    /// How many observations switched the recommendation.
    pub fn switches(&self) -> usize {
        self.log.iter().filter(|d| d.switched).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::best_config;
    use etm_cluster::commlib::CommLibProfile;
    use etm_cluster::spec::paper_cluster;
    use etm_core::backend::PolyLsqBackend;
    use etm_core::engine::Engine;
    use etm_core::pipeline::{groups_of, PipelineError};
    use etm_core::{MeasurementDb, Sample, SampleKey};

    fn synth_sample(kind: usize, pes: usize, m: usize, n: usize, drift: f64) -> Sample {
        let x = n as f64;
        let p = (pes * m) as f64;
        let speed = if kind == 0 { 2.0 } else { 1.0 };
        let ta = drift * ((2e-9 * x * x * x / p + 1e-5 * x) / speed + 0.05);
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
                        db.record(
                            SampleKey { kind, pes, m },
                            synth_sample(kind, pes, m, n, 1.0),
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

    fn space() -> ConfigSpace {
        ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![2, 2])
    }

    #[test]
    fn first_observation_adopts_the_offline_optimum() {
        let e = engine();
        let snapshot = e.snapshot();
        let mut opt = OnlineOptimizer::new(space(), 1600, 0.05).expect("valid optimizer inputs");
        let d = opt.observe(&snapshot).expect("estimable").clone();
        assert!(d.switched, "nothing held yet: must adopt");
        assert_eq!(d.generation, 0);
        let offline = best_config(&snapshot, &space(), 1600).expect("estimable");
        assert_eq!(d.recommended, offline.config);
        assert_eq!(d.recommended_time.to_bits(), offline.time.to_bits());
        assert_eq!(opt.recommended(), Some(&offline.config));
        assert_eq!(opt.log().len(), 1);
        assert_eq!(opt.switches(), 1);
    }

    #[test]
    fn zero_hysteresis_tracks_the_offline_optimum_exactly() {
        let e = engine();
        let mut opt = OnlineOptimizer::new(space(), 1600, 0.0).expect("valid optimizer inputs");
        opt.observe(&e.snapshot()).expect("estimable");
        // Drift the fast kind's Ta down over several generations; with
        // zero hysteresis the recommendation always equals the offline
        // optimum of the same snapshot.
        for round in 1..=5 {
            let drift = 1.0 - 0.1 * round as f64;
            let key = SampleKey {
                kind: 0,
                pes: 1,
                m: 2,
            };
            let updates: Vec<(SampleKey, Sample)> = [400usize, 800, 1600, 2400, 3200]
                .iter()
                .map(|&n| (key, synth_sample(0, 1, 2, n, drift)))
                .collect();
            let snap = e.ingest(&updates).expect("refit ok");
            let d = opt.observe(&snap).expect("estimable").clone();
            let offline = best_config(&snap, &space(), 1600).expect("estimable");
            assert_eq!(d.recommended, offline.config);
            assert_eq!(d.recommended_time.to_bits(), offline.time.to_bits());
        }
        // Generations in the log are strictly increasing.
        let gens: Vec<u64> = opt.log().iter().map(|d| d.generation).collect();
        assert!(gens.windows(2).all(|w| w[0] < w[1]), "{gens:?}");
    }

    #[test]
    fn huge_hysteresis_never_switches_after_adoption() {
        let e = engine();
        let mut opt = OnlineOptimizer::new(space(), 1600, 0.99).expect("valid optimizer inputs");
        let first = opt.observe(&e.snapshot()).expect("estimable").clone();
        for round in 1..=5 {
            let drift = 1.0 - 0.1 * round as f64;
            let key = SampleKey {
                kind: 0,
                pes: 1,
                m: 2,
            };
            let updates: Vec<(SampleKey, Sample)> = [400usize, 800, 1600, 2400, 3200]
                .iter()
                .map(|&n| (key, synth_sample(0, 1, 2, n, drift)))
                .collect();
            let snap = e.ingest(&updates).expect("refit ok");
            let d = opt.observe(&snap).expect("estimable").clone();
            assert!(!d.switched, "99% improvement never happens here");
            assert_eq!(d.recommended, first.recommended);
            // The log still records what the search found.
            assert!(d.best.time > 0.0);
        }
        assert_eq!(opt.switches(), 1);
        assert_eq!(opt.log().len(), 6);
    }

    /// Polling a published slot must not duplicate log entries: a
    /// generation is observed once, and a new generation is picked up
    /// as soon as it appears.
    #[test]
    fn observe_fresh_dedups_by_generation() {
        let e = engine();
        let mut opt = OnlineOptimizer::new(space(), 1600, 0.0).expect("valid optimizer inputs");
        let snap = e.snapshot();
        assert!(opt.observe_fresh(&snap).is_some(), "first poll observes");
        for _ in 0..5 {
            assert!(opt.observe_fresh(&snap).is_none(), "same generation: no-op");
        }
        assert_eq!(opt.log().len(), 1);
        // A new publication is picked up on the next poll...
        let key = SampleKey {
            kind: 0,
            pes: 1,
            m: 2,
        };
        let updates: Vec<(SampleKey, Sample)> = [400usize, 800, 1600, 2400, 3200]
            .iter()
            .map(|&n| (key, synth_sample(0, 1, 2, n, 0.8)))
            .collect();
        let next = e.ingest(&updates).expect("refit ok");
        assert!(next.generation() > snap.generation());
        let d = opt.observe_fresh(&next).expect("new generation observed");
        assert_eq!(d.generation, next.generation());
        assert_eq!(opt.log().len(), 2);
        // ...and mixing in a plain observe keeps the bookkeeping honest.
        opt.observe(&next).expect("estimable");
        assert!(opt.observe_fresh(&next).is_none());
        assert_eq!(opt.log().len(), 3);
    }

    /// Two snapshot objects can carry the *same* generation as distinct
    /// `Arc`s (here, two engines over the same data, both at
    /// generation 0). Deduplication is by generation *value*, not
    /// pointer identity, so the second slot must not add a duplicate
    /// decision-log entry.
    #[test]
    fn observe_fresh_dedups_a_republished_generation_across_slots() {
        let first = engine();
        let second = engine(); // same db, same model: generation 0 again
        let a = first.snapshot();
        let b = second.snapshot();
        assert!(!Arc::ptr_eq(&a, &b), "distinct slots");
        assert_eq!(a.generation(), b.generation());
        let mut opt = OnlineOptimizer::new(space(), 1600, 0.0).expect("valid optimizer inputs");
        assert!(opt.observe_fresh(&a).is_some(), "first slot observes");
        assert!(
            opt.observe_fresh(&b).is_none(),
            "republished generation must be a no-op"
        );
        assert_eq!(opt.log().len(), 1, "no duplicate decision-log entries");
    }

    /// Like [`synth_db`] but with multi-PE measurements for *both*
    /// kinds, so a quarantined group can find a measured §3.5 donor.
    fn synth_db_two_measured() -> MeasurementDb {
        let mut db = MeasurementDb::new();
        for kind in 0..2usize {
            for pes in [1usize, 2, 4] {
                for m in 1..=2usize {
                    for n in [400usize, 800, 1600, 2400, 3200] {
                        db.record(
                            SampleKey { kind, pes, m },
                            synth_sample(kind, pes, m, n, 1.0),
                        );
                    }
                }
            }
        }
        db
    }

    /// Quarantines group `(kind, m)` by delivering more distinct bad
    /// samples than the default budget admits; returns the published
    /// degraded snapshot.
    fn quarantine_group(
        e: &Engine,
        kind: usize,
        m: usize,
    ) -> std::sync::Arc<etm_core::engine::EngineSnapshot> {
        let bad: Vec<(SampleKey, Sample)> = [400usize, 800, 1600]
            .iter()
            .map(|&n| {
                let mut s = synth_sample(kind, 1, m, n, 1.0);
                s.wall = f64::NAN;
                (SampleKey { kind, pes: 1, m }, s)
            })
            .collect();
        e.ingest(&bad).expect("quarantine publishes a snapshot")
    }

    #[test]
    fn untrusted_groups_are_refused_and_never_recommended() {
        // In `synth_db` kind 0 has single-PE data only, so its P-T
        // models are §3.5-composed: quarantining (1, 1) leaves no
        // measured donor and the group becomes untrusted.
        let e = engine();
        let snap = quarantine_group(&e, 1, 1);
        let health = snap.health();
        assert!(health.is_untrusted((1, 1)), "no donor: untrusted");
        let objective = health_aware_objective(&snap, 1600, 1.25);
        let cfg = Configuration::p1m1_p2m2(0, 0, 2, 1);
        assert_eq!(
            objective(&cfg),
            Err(PipelineError::ModelUntrusted { kind: 1, m: 1 })
        );
        // The optimizer skips such candidates; everything it logs is
        // backed by trusted (or at worst fallback) models.
        let mut opt = OnlineOptimizer::new(space(), 1600, 0.0).expect("valid optimizer inputs");
        let d = opt
            .observe(&snap)
            .expect("healthy candidates remain")
            .clone();
        for g in groups_of(&d.recommended) {
            assert!(!health.is_untrusted(g), "recommended untrusted group {g:?}");
        }
    }

    #[test]
    fn fallback_estimates_carry_the_penalty_factor() {
        let e = Engine::new(
            Box::new(PolyLsqBackend::paper()),
            synth_db_two_measured(),
            None,
        )
        .expect("synth db fits");
        let snap = quarantine_group(&e, 1, 1);
        let health = snap.health();
        assert!(health.is_fallback((1, 1)), "donor (0,1) is measured");
        let cfg = Configuration::p1m1_p2m2(0, 0, 2, 1);
        let plain = snap.estimate(&cfg, 1600).expect("fallback estimable");
        let objective = health_aware_objective(&snap, 1600, 1.25);
        let t = objective(&cfg).expect("fallback estimable");
        assert_eq!(t.to_bits(), (plain * 1.25).to_bits());
        // A configuration touching no degraded group stays bit-identical
        // to the plain snapshot objective.
        let healthy_cfg = Configuration::p1m1_p2m2(1, 1, 0, 0);
        let t0 = objective(&healthy_cfg).expect("estimable");
        let plain0 = snap.estimate(&healthy_cfg, 1600).expect("estimable");
        assert_eq!(t0.to_bits(), plain0.to_bits());
    }

    /// Across drifting and degraded generations, every decision matches
    /// a manual exhaustive search under the same health-aware objective,
    /// and a held recommendation carries that objective's current
    /// estimate of the held configuration — time bits, switched and
    /// degraded flags included.
    #[test]
    fn decisions_match_a_manual_health_aware_search_across_generations() {
        let e = Engine::new(
            Box::new(PolyLsqBackend::paper()),
            synth_db_two_measured(),
            None,
        )
        .expect("synth db fits");
        let tau = 0.02;
        let mut opt = OnlineOptimizer::new(space(), 1600, tau)
            .expect("valid optimizer inputs")
            .with_fallback_penalty(1.25);
        let mut snaps = vec![e.snapshot()];
        for round in 1..=3 {
            let drift = 1.0 - 0.12 * round as f64;
            let key = SampleKey {
                kind: 0,
                pes: 1,
                m: 2,
            };
            let updates: Vec<(SampleKey, Sample)> = [400usize, 800, 1600, 2400, 3200]
                .iter()
                .map(|&n| (key, synth_sample(0, 1, 2, n, drift)))
                .collect();
            snaps.push(e.ingest(&updates).expect("refit ok"));
        }
        // A degraded generation: (1, 1) quarantined onto its §3.5
        // composed fallback.
        snaps.push(quarantine_group(&e, 1, 1));
        let mut held_decisions = 0;
        for snap in &snaps {
            let objective = health_aware_objective(snap, 1600, 1.25);
            let manual = exhaustive(&space().enumerate(), &objective).expect("estimable");
            // Observe each snapshot twice: the second pass holds the
            // recommendation the first one made.
            for _ in 0..2 {
                let held = opt.recommended().cloned();
                let d = opt.observe(snap).expect("estimable").clone();
                assert_eq!(d.generation, snap.generation());
                assert_eq!(d.best.config, manual.config);
                assert_eq!(d.best.time.to_bits(), manual.time.to_bits());
                assert_eq!(d.best.evaluations, manual.evaluations);
                let held_time = held
                    .as_ref()
                    .and_then(|c| objective(c).ok())
                    .filter(|t| t.is_finite());
                let switched = held_time.is_none_or(|h| manual.time < h * (1.0 - tau));
                assert_eq!(d.switched, switched);
                if switched {
                    assert_eq!(d.recommended, manual.config);
                    assert_eq!(d.recommended_time.to_bits(), manual.time.to_bits());
                } else {
                    held_decisions += 1;
                    assert_eq!(Some(&d.recommended), held.as_ref());
                    assert_eq!(
                        d.recommended_time.to_bits(),
                        held_time.expect("held").to_bits()
                    );
                }
                assert_eq!(d.degraded, snap.health().any_fallback(&d.recommended));
            }
        }
        assert!(held_decisions >= snaps.len(), "every second pass holds");
        assert_eq!(opt.log().len(), 2 * snaps.len());
    }

    #[test]
    fn optimizer_discounts_fallbacks_and_tags_degraded_decisions() {
        let e = Engine::new(
            Box::new(PolyLsqBackend::paper()),
            synth_db_two_measured(),
            None,
        )
        .expect("synth db fits");
        let snap = quarantine_group(&e, 1, 1);
        let health = snap.health();
        // The optimizer's pick equals a manual exhaustive search under
        // the same health-aware objective.
        let mut opt = OnlineOptimizer::new(space(), 1600, 0.0)
            .expect("valid optimizer inputs")
            .with_fallback_penalty(1.25);
        let d = opt.observe(&snap).expect("estimable").clone();
        let objective = health_aware_objective(&snap, 1600, 1.25);
        let manual = exhaustive(&space().enumerate(), &objective).expect("estimable");
        assert_eq!(d.recommended, manual.config);
        assert_eq!(d.recommended_time.to_bits(), manual.time.to_bits());
        assert_eq!(
            d.degraded,
            groups_of(&d.recommended).any(|g| health.is_fallback(g))
        );
        // A prohibitive penalty steers the recommendation to a fully
        // healthy configuration — and the decision is not degraded.
        let mut strict = OnlineOptimizer::new(space(), 1600, 0.0)
            .expect("valid optimizer inputs")
            .with_fallback_penalty(1e6);
        let d2 = strict.observe(&snap).expect("estimable").clone();
        assert!(!d2.degraded, "healthy alternatives exist");
        for g in groups_of(&d2.recommended) {
            assert!(!health.is_fallback(g), "penalty 1e6 must avoid {g:?}");
        }
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        assert!(matches!(
            OnlineOptimizer::new(space(), 1600, f64::NAN),
            Err(OptimizerError::NonFiniteHysteresis(h)) if h.is_nan()
        ));
        assert_eq!(
            OnlineOptimizer::new(space(), 1600, f64::INFINITY).err(),
            Some(OptimizerError::NonFiniteHysteresis(f64::INFINITY))
        );
        assert_eq!(
            OnlineOptimizer::new(space(), 1600, -0.01).err(),
            Some(OptimizerError::NegativeHysteresis(-0.01))
        );
        assert_eq!(
            OnlineOptimizer::new(space(), 0, 0.05).err(),
            Some(OptimizerError::ZeroProblemSize)
        );
        // The errors render actionable messages.
        assert!(OptimizerError::NegativeHysteresis(-1.0)
            .to_string()
            .contains("non-negative"));
        assert!(OptimizerError::ZeroProblemSize
            .to_string()
            .contains("positive"));
        // Valid inputs still construct.
        assert!(OnlineOptimizer::new(space(), 1600, 0.0).is_ok());
    }
}
