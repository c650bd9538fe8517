//! The closed predict → execute → learn loop: every
//! [`OnlineOptimizer`] recommendation is *executed* (by a caller-
//! supplied executor — in production the discrete-event substrate
//! behind `etm_core::loopback::StepExecutor`), and the measured
//! `(N, P, Mᵢ) → (Ta, Tc)` samples stream back through
//! [`Engine::ingest_batch`], moving the model the next recommendation
//! is drawn from.
//!
//! The controller wraps the loop in the decision-side robustness
//! machinery of `etm_core::loopback`:
//!
//! * typed [`ExecutionError`] outcomes feed a per-configuration
//!   [`CircuitBreaker`] — a configuration that fails or flaps
//!   `threshold` times within `window` steps is held out and
//!   half-open-probed after `cooldown`;
//! * *flapping* (a recommendation abandoned within
//!   [`BreakerPolicy::flap_window`](etm_core::BreakerPolicy) decisions
//!   of its adoption) strikes the breaker exactly like a failure;
//! * graceful degradation: when the breaker refuses the fresh
//!   recommendation, the loop re-executes the last configuration that
//!   both completed cleanly *and* was backed by a healthy
//!   [`EngineHealth`](etm_core::engine::EngineHealth) — the decision-
//!   side analogue of serving the last healthy snapshot — and only
//!   holds the step out entirely when no such configuration exists
//!   (or the breaker refuses it too).
//!
//! The loop is deterministic end to end: a fault-free replay ingests
//! exactly the one-shot campaign's samples (bit-identical final bank)
//! and its decision log equals the offline optimizer's trace over the
//! same snapshots — the zero-regret baseline `repro loop` pins down.

use std::collections::BTreeMap;
use std::sync::Arc;

use etm_cluster::Configuration;
use etm_core::engine::{Engine, EngineSnapshot};
use etm_core::stream::TrialBatch;
use etm_core::{config_key, CircuitBreaker, ConfigKey, ExecutedStep, ExecutionError};

use crate::OnlineOptimizer;

/// What one closed-loop step did, in execution order.
#[derive(Clone, Debug)]
pub struct LoopStep {
    /// 0-based loop step.
    pub step: u64,
    /// Snapshot generation the decision was drawn from.
    pub generation: u64,
    /// The optimizer's recommendation at this step, if any decision was
    /// possible.
    pub recommended: Option<ConfigKey>,
    /// The configuration actually executed (`None`: held out).
    pub executed: Option<ConfigKey>,
    /// Whether the executed configuration was the graceful-degradation
    /// fallback instead of the fresh recommendation.
    pub fallback: bool,
    /// Whether this step's observation switched the recommendation.
    pub switched: bool,
    /// Terminal execution error, when retries were exhausted.
    pub error: Option<ExecutionError>,
    /// Virtual seconds charged (run wall + retry backoff).
    pub wall_seconds: f64,
}

/// The full account of one closed-loop run.
#[derive(Clone, Debug, Default)]
pub struct LoopReport {
    /// Per-step trace.
    pub steps: Vec<LoopStep>,
    /// Steps where the breaker held the loop out entirely.
    pub held_out: usize,
    /// Steps that gracefully degraded to the last healthy
    /// configuration.
    pub fallbacks: usize,
    /// Recommendations whose configuration was backed by an untrusted
    /// (quarantined, donor-less) model — must stay zero; the optimizer
    /// refuses such candidates and the loop double-checks.
    pub untrusted_recommendations: usize,
    /// Ingests that failed to refit (retried by the engine's
    /// pending-dirty contract on the next ingest).
    pub fit_errors: usize,
    /// Terminal execution failures.
    pub failures: usize,
    /// Flap strikes charged per configuration (a recommendation
    /// abandoned within the breaker's flap window of its adoption) —
    /// together with the executor's `failures_by_config` this is the
    /// full strike ledger a breaker oracle can audit against.
    pub flap_strikes: BTreeMap<ConfigKey, usize>,
    /// Cumulative virtual clock: execution walls + retry backoffs.
    pub sim_time: f64,
    /// Every batch successfully measured and handed to ingest, in
    /// order — replaying these into a fresh engine must reproduce the
    /// loop's final bank bit for bit.
    pub batches: Vec<TrialBatch>,
    /// Every distinct snapshot the loop observed, in publication
    /// order — replaying an offline optimizer over these must
    /// reproduce the loop's decision log.
    pub snapshots: Vec<Arc<EngineSnapshot>>,
}

impl LoopReport {
    /// How many executed steps switched the standing recommendation.
    pub fn switches(&self) -> usize {
        self.steps.iter().filter(|s| s.switched).count()
    }
}

/// Runs `steps` closed-loop iterations: observe the engine's snapshot,
/// gate the recommendation through `breaker`, execute it, and stream
/// the measurement back through [`Engine::ingest_batch`].
///
/// `execute` runs one configuration at one step and is the seam the
/// fault plans inject through: pass
/// `|cfg, step| executor.execute(cfg, step)` over an
/// `etm_core::loopback::StepExecutor` for the discrete-event substrate,
/// or any closure in tests.
pub fn run_closed_loop<F>(
    engine: &Engine,
    optimizer: &mut OnlineOptimizer,
    breaker: &mut CircuitBreaker,
    steps: u64,
    mut execute: F,
) -> LoopReport
where
    F: FnMut(&Configuration, u64) -> Result<ExecutedStep, ExecutionError>,
{
    let mut report = LoopReport::default();
    // The configuration → its ConfigKey of the standing recommendation,
    // with the step it was adopted at (for flap detection).
    let mut adopted: Option<(ConfigKey, u64)> = None;
    // Last configuration that executed cleanly under a healthy engine —
    // the graceful-degradation target.
    let mut last_healthy: Option<Configuration> = None;
    let flap_window = breaker.policy().flap_window;
    for step in 0..steps {
        let snapshot = engine.snapshot();
        if report
            .snapshots
            .last()
            .is_none_or(|s| !Arc::ptr_eq(s, &snapshot))
        {
            report.snapshots.push(Arc::clone(&snapshot));
        }
        let switched = match optimizer.observe_fresh(&snapshot) {
            Some(d) => d.switched,
            None => false,
        };
        let Some(recommended) = optimizer.recommended().cloned() else {
            // Nothing estimable yet: the loop has no decision to act on.
            report.held_out += 1;
            report.steps.push(LoopStep {
                step,
                generation: snapshot.generation(),
                recommended: None,
                executed: None,
                fallback: false,
                switched: false,
                error: None,
                wall_seconds: 0.0,
            });
            continue;
        };
        let rec_key = config_key(&recommended);
        if switched {
            // Abandoning a configuration right after adopting it is a
            // flap: strike the *abandoned* configuration so a config
            // whose model twitches the optimizer back and forth trips
            // its breaker.
            if let Some((prev, adopted_at)) = adopted.take() {
                if prev != rec_key && step.saturating_sub(adopted_at) <= flap_window {
                    breaker.record_flap(&prev, step);
                    *report.flap_strikes.entry(prev).or_insert(0) += 1;
                }
            }
            adopted = Some((rec_key.clone(), step));
        } else if adopted.is_none() {
            adopted = Some((rec_key.clone(), step));
        }
        if snapshot.health().first_untrusted(&recommended).is_some() {
            // The optimizer refuses untrusted candidates; this counter
            // existing (and staying zero) is the loop's own audit.
            report.untrusted_recommendations += 1;
        }
        // Breaker gate with graceful degradation.
        let (to_run, fallback) = if breaker.allows(&rec_key, step) {
            (recommended.clone(), false)
        } else {
            match last_healthy
                .clone()
                .filter(|cfg| config_key(cfg) != rec_key)
                .filter(|cfg| breaker.allows(&config_key(cfg), step))
            {
                Some(cfg) => {
                    report.fallbacks += 1;
                    (cfg, true)
                }
                None => {
                    report.held_out += 1;
                    report.steps.push(LoopStep {
                        step,
                        generation: snapshot.generation(),
                        recommended: Some(rec_key),
                        executed: None,
                        fallback: false,
                        switched,
                        error: None,
                        wall_seconds: 0.0,
                    });
                    continue;
                }
            }
        };
        let run_key = config_key(&to_run);
        match execute(&to_run, step) {
            Ok(executed) => {
                breaker.record_success(&run_key, step);
                let wall = executed.wall_seconds + executed.backoff_seconds;
                report.sim_time += wall;
                let batch = TrialBatch {
                    seq: step,
                    sim_time: report.sim_time,
                    trials: executed.trials.clone(),
                };
                match engine.ingest_batch(&batch) {
                    Ok(after) => {
                        if !executed.poisoned && after.health().is_healthy() {
                            last_healthy = Some(to_run.clone());
                        }
                    }
                    Err(_) => report.fit_errors += 1,
                }
                report.batches.push(batch);
                report.steps.push(LoopStep {
                    step,
                    generation: snapshot.generation(),
                    recommended: Some(rec_key),
                    executed: Some(run_key),
                    fallback,
                    switched,
                    error: None,
                    wall_seconds: wall,
                });
            }
            Err(err) => {
                breaker.record_failure(&run_key, step);
                report.failures += 1;
                report.steps.push(LoopStep {
                    step,
                    generation: snapshot.generation(),
                    recommended: Some(rec_key),
                    executed: Some(run_key),
                    fallback,
                    switched,
                    error: Some(err),
                    wall_seconds: 0.0,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConfigSpace;
    use etm_cluster::commlib::CommLibProfile;
    use etm_cluster::spec::paper_cluster;
    use etm_core::backend::PolyLsqBackend;
    use etm_core::{BreakerPolicy, MeasurementDb, Sample, SampleKey};

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

    fn engine() -> Engine {
        Engine::new(Box::new(PolyLsqBackend::paper()), synth_db(), None).expect("synth db fits")
    }

    fn space() -> ConfigSpace {
        ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![2, 2])
    }

    /// A synthetic executor: measures the recommendation with the same
    /// generator the engine was seeded from, so ingest changes no bits
    /// and the loop is quiescent.
    fn echo_execute(cfg: &Configuration, _step: u64) -> Result<ExecutedStep, ExecutionError> {
        let trials: Vec<(SampleKey, Sample)> = cfg
            .uses
            .iter()
            .filter(|u| u.pes > 0 && u.procs_per_pe > 0)
            .map(|u| {
                (
                    SampleKey::new(u.kind, u.pes, u.procs_per_pe),
                    synth_sample(u.kind.0, u.pes, u.procs_per_pe, 1600),
                )
            })
            .collect();
        Ok(ExecutedStep {
            trials,
            wall_seconds: 1.0,
            attempts: 1,
            backoff_seconds: 0.0,
            straggled_kind: None,
            degraded: false,
            poisoned: false,
        })
    }

    #[test]
    fn quiescent_loop_executes_every_step_and_never_switches_away() {
        let e = engine();
        let mut opt = OnlineOptimizer::new(space(), 1600, 0.05).expect("valid");
        let mut breaker = CircuitBreaker::new(BreakerPolicy::default());
        let report = run_closed_loop(&e, &mut opt, &mut breaker, 6, echo_execute);
        assert_eq!(report.steps.len(), 6);
        assert_eq!(report.held_out, 0);
        assert_eq!(report.fallbacks, 0);
        assert_eq!(report.failures, 0);
        assert_eq!(report.fit_errors, 0);
        assert_eq!(report.untrusted_recommendations, 0);
        // The first execution may add a previously unmeasured key (one
        // new generation); after that, re-delivered identical samples
        // change no bits and the loop is quiescent.
        assert!(
            report.snapshots.len() <= 2,
            "expected quiescence, saw {} generations",
            report.snapshots.len()
        );
        assert_eq!(opt.log().len(), report.snapshots.len());
        let tail: Vec<u64> = report
            .steps
            .iter()
            .rev()
            .take(3)
            .map(|s| s.generation)
            .collect();
        assert!(
            tail.windows(2).all(|w| w[0] == w[1]),
            "tail steps must share a generation: {tail:?}"
        );
        assert_eq!(report.batches.len(), 6);
        // Every step executed the standing recommendation directly.
        for s in &report.steps {
            assert_eq!(s.executed, s.recommended);
            assert!(!s.fallback);
        }
    }

    #[test]
    fn failing_config_trips_its_breaker_and_the_loop_degrades() {
        let e = engine();
        let mut opt = OnlineOptimizer::new(space(), 1600, 0.05).expect("valid");
        let mut breaker = CircuitBreaker::new(BreakerPolicy {
            window: 8,
            threshold: 2,
            cooldown: 100, // never half-opens within this run
            flap_window: 2,
        });
        // Step 0 succeeds (establishing a healthy fallback), steps 1..
        // fail whatever runs until the breaker opens.
        let mut doomed_key: Option<ConfigKey> = None;
        let report = run_closed_loop(&e, &mut opt, &mut breaker, 8, |cfg, step| {
            if step == 0 {
                return echo_execute(cfg, step);
            }
            let key = config_key(cfg);
            if doomed_key.is_none() {
                doomed_key = Some(key.clone());
            }
            if Some(&key) == doomed_key.as_ref() {
                Err(ExecutionError::NodeCrash { step, attempts: 3 })
            } else {
                echo_execute(cfg, step)
            }
        });
        let doomed = doomed_key.expect("something executed");
        assert_eq!(report.failures, 2, "two strikes open the breaker");
        assert_eq!(breaker.tripped_configs(), vec![doomed.clone()]);
        // After the trip, every remaining step degrades to the healthy
        // step-0 configuration (same config here, so the loop holds out
        // only if no distinct fallback exists; the recommendation equals
        // the healthy config, so steps are held out).
        let post_trip: Vec<&LoopStep> = report.steps.iter().filter(|s| s.step >= 3).collect();
        assert!(!post_trip.is_empty());
        for s in post_trip {
            assert!(
                s.executed.is_none() || s.executed.as_ref() != Some(&doomed),
                "step {} executed the tripped config",
                s.step
            );
        }
        assert_eq!(report.held_out + report.fallbacks, 5);
    }

    #[test]
    fn loop_replays_to_the_offline_decision_trace() {
        // Drive the loop over a drifting engine, then replay an offline
        // optimizer over the recorded snapshots: identical logs.
        let e = engine();
        let mut opt = OnlineOptimizer::new(space(), 1600, 0.02).expect("valid");
        let mut breaker = CircuitBreaker::new(BreakerPolicy::default());
        let mut tick = 0u64;
        let report = run_closed_loop(&e, &mut opt, &mut breaker, 5, |cfg, step| {
            tick += 1;
            let mut out = echo_execute(cfg, step)?;
            // Drift the measurements so each step publishes a new
            // generation (scaled Ta moves the fit).
            for (_, s) in &mut out.trials {
                s.ta *= 1.0 + 0.03 * tick as f64;
                s.wall = s.ta + s.tc;
            }
            Ok(out)
        });
        assert!(report.snapshots.len() > 1, "drift publishes generations");
        let mut offline = OnlineOptimizer::new(space(), 1600, 0.02).expect("valid");
        for snap in &report.snapshots {
            offline.observe_fresh(snap);
        }
        assert_eq!(offline.log().len(), opt.log().len());
        for (a, b) in offline.log().iter().zip(opt.log()) {
            assert_eq!(a.generation, b.generation);
            assert_eq!(a.recommended, b.recommended);
            assert_eq!(a.recommended_time.to_bits(), b.recommended_time.to_bits());
            assert_eq!(a.switched, b.switched);
        }
    }
}
