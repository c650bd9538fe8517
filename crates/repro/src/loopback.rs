//! Closed-loop replays: the `repro loop` harness behind
//! `results/loop_regret.csv`.
//!
//! Each scenario stale-seeds an [`Engine`] from the Basic construction
//! campaign (`Ta` off by 10 %, as in the streaming experiments), then
//! closes the predict → execute → learn loop with
//! [`run_closed_loop`]: every [`OnlineOptimizer`] recommendation is
//! executed on the discrete-event substrate through a
//! [`StepExecutor`], and the measured samples stream back through
//! `Engine::ingest_batch`. A seeded, pure-literal
//! [`ExecutionFaultPlan`] injects node crashes, stragglers, transient
//! cluster-wide degradation windows, and lost / NaN measurements
//! mid-run.
//!
//! Scored invariants (`ok` per row; the `repro loop` binary exits
//! non-zero on any breach):
//!
//! * the loop completes every step — no panic, no deadlock;
//! * zero untrusted recommendations (the optimizer must never
//!   recommend a quarantined, donor-less configuration);
//! * the breaker opens *exactly* on the injected failing/flapping
//!   configurations: every configuration the fault log charges
//!   `threshold` failures trips, and every tripped configuration is
//!   backed by enough failure + flap strikes;
//! * cumulative regret vs the clean-trace oracle stays within the
//!   pinned bound (`REGRET_BOUND` × the oracle's total runtime);
//! * the fault-free scenario is the zero-regret baseline: its final
//!   bank is bit-identical to a one-shot fit of the same measurements
//!   and its decision log equals the offline optimizer's trace over
//!   the recorded snapshots.
//!
//! *Regret* is execution-time regret under ground truth: per step, the
//! clean-simulation runtime of the configuration the faulty loop ran
//! (held-out steps keep the previously deployed configuration) minus
//! the runtime of the configuration the fault-free loop ran, clamped
//! at zero and summed.

use std::collections::BTreeMap;

use etm_cluster::spec::paper_cluster;
use etm_cluster::{ClusterSpec, CommLibProfile, Configuration, KindId, KindUse};
use etm_core::backend::{ModelBackend, PolyLsqBackend};
use etm_core::engine::Engine;
use etm_core::plan::MeasurementPlan;
use etm_core::{
    BreakerPolicy, CircuitBreaker, ConfigKey, ExecutionFaultPlan, MeasurementDb, RetryPolicy,
    StepExecutor,
};
use etm_hpl::{simulate_hpl, HplParams};
use etm_search::{run_closed_loop, LoopReport, OnlineOptimizer};

use crate::experiments::{campaign_db, NB};
use crate::stream::{banks_bit_equal, evaluation_space};

/// Problem size the loop re-optimizes and executes at.
pub const LOOP_N: usize = 1600;
/// Closed-loop steps per scenario.
pub const LOOP_STEPS: u64 = 12;
/// Hysteresis τ for the scenario table (the sweep varies it).
pub const LOOP_TAU: f64 = 0.05;
/// Fallback penalty for the scenario table (the sweep varies it).
pub const LOOP_PENALTY: f64 = 1.25;
/// Pinned regret bound: cumulative regret must stay below this
/// fraction of the clean-trace oracle's total execution time.
pub(crate) const REGRET_BOUND: f64 = 0.75;

/// Breaker policy for the replays: two strikes in a window as long as
/// the run, probe after four held-out steps.
fn breaker_policy() -> BreakerPolicy {
    BreakerPolicy {
        window: LOOP_STEPS,
        threshold: 2,
        cooldown: 4,
        flap_window: 2,
    }
}

/// The seeded fault scenarios `repro loop` replays — every plan a pure
/// literal, so the suite is reproducible by construction.
pub fn loop_scenarios() -> Vec<(&'static str, ExecutionFaultPlan)> {
    let clean = ExecutionFaultPlan::default();
    vec![
        ("clean", clean),
        (
            "crash-retry",
            ExecutionFaultPlan {
                seed: 11,
                crash_every: 5,
                ..clean
            },
        ),
        (
            "crash-window",
            ExecutionFaultPlan {
                seed: 12,
                crash_from: Some(3),
                crash_until: Some(7),
                ..clean
            },
        ),
        (
            "straggler",
            ExecutionFaultPlan {
                seed: 13,
                straggle_every: 3,
                straggle_factor: 3.0,
                ..clean
            },
        ),
        (
            "degrade-window",
            ExecutionFaultPlan {
                seed: 14,
                degrade_from: Some(2),
                degrade_until: Some(6),
                degrade_factor: 6.0,
                ..clean
            },
        ),
        (
            "lost-measurement",
            ExecutionFaultPlan {
                seed: 15,
                lose_every: 4,
                ..clean
            },
        ),
        (
            "nan-poison",
            ExecutionFaultPlan {
                seed: 16,
                nan_every: 3,
                ..clean
            },
        ),
        (
            "compound",
            ExecutionFaultPlan {
                seed: 17,
                crash_every: 7,
                straggle_every: 4,
                straggle_factor: 2.5,
                degrade_from: Some(8),
                degrade_until: Some(10),
                degrade_factor: 4.0,
                lose_every: 9,
                nan_every: 5,
                ..clean
            },
        ),
    ]
}

/// One scored row of the loop suite (a scenario or a sweep point).
#[derive(Clone, Debug)]
pub struct LoopRow {
    /// Scenario name (`sweep` rows share the compound plan).
    pub scenario: String,
    /// Hysteresis τ the optimizer ran with.
    pub tau: f64,
    /// Fallback penalty the optimizer ran with.
    pub penalty: f64,
    /// Steps the loop completed (must equal [`LOOP_STEPS`]).
    pub(crate) steps: usize,
    /// Steps that executed a configuration.
    pub executed: usize,
    /// Terminal execution failures.
    pub failures: usize,
    /// Steps held out entirely.
    pub held_out: usize,
    /// Steps degraded to the last healthy configuration.
    pub fallbacks: usize,
    /// Recommendation switches.
    pub switches: usize,
    /// Configurations whose breaker tripped.
    pub tripped: usize,
    /// Untrusted recommendations observed (must be zero).
    pub(crate) untrusted: usize,
    /// Cumulative execution-time regret vs the clean-trace oracle, in
    /// seconds.
    pub regret_seconds: f64,
    /// The oracle's total execution time over the run, in seconds.
    pub oracle_seconds: f64,
    /// Breaker trips match the injected-fault oracle exactly.
    pub(crate) breaker_exact: bool,
    /// Every invariant for this row held.
    pub ok: bool,
}

impl LoopRow {
    /// CSV encoding, matching [`LOOP_CSV_HEADER`].
    pub fn csv(&self) -> String {
        format!(
            "{},{:.3},{:.3},{},{},{},{},{},{},{},{},{:.6},{:.6},{},{}",
            self.scenario,
            self.tau,
            self.penalty,
            self.steps,
            self.executed,
            self.failures,
            self.held_out,
            self.fallbacks,
            self.switches,
            self.tripped,
            self.untrusted,
            self.regret_seconds,
            self.oracle_seconds,
            self.breaker_exact as u8,
            self.ok as u8
        )
    }
}

/// Header for `results/loop_regret.csv`.
pub const LOOP_CSV_HEADER: &str = "scenario,tau,penalty,steps,executed,failures,held_out,\
     fallbacks,switches,tripped,untrusted,regret_s,oracle_s,breaker_exact,ok";

/// The whole suite: scenario rows plus the τ × penalty sweep.
#[derive(Clone, Debug, Default)]
pub struct LoopSuite {
    /// All scored rows, scenarios first.
    pub rows: Vec<LoopRow>,
}

/// Ground-truth runtimes: clean simulation per configuration, memoized.
#[derive(Default)]
struct TruthTable {
    memo: BTreeMap<ConfigKey, f64>,
}

impl TruthTable {
    fn runtime(&mut self, spec: &ClusterSpec, key: &ConfigKey) -> f64 {
        if let Some(&t) = self.memo.get(key) {
            return t;
        }
        let cfg = config_of_key(key);
        let t = simulate_hpl(spec, &cfg, &HplParams::order(LOOP_N).with_nb(NB)).wall_seconds;
        self.memo.insert(key.clone(), t);
        t
    }
}

/// Rebuilds the executable configuration a [`ConfigKey`] names.
fn config_of_key(key: &ConfigKey) -> Configuration {
    Configuration {
        uses: key
            .iter()
            .map(|&(kind, pes, procs_per_pe)| KindUse {
                kind: KindId(kind),
                pes,
                procs_per_pe,
            })
            .collect(),
    }
}

/// A stale copy of the campaign (`Ta` off by 10 %), so the loop's
/// measurements actually move the model — same seeding the streaming
/// experiments use.
pub fn stale_seed(db: &MeasurementDb) -> MeasurementDb {
    let mut seed = MeasurementDb::new();
    for key in db.keys() {
        for s in db.samples(key) {
            let mut stale = *s;
            stale.ta *= 1.1;
            seed.upsert(*key, stale);
        }
    }
    seed
}

/// Everything one closed-loop replay produced.
struct LoopRun {
    report: LoopReport,
    tripped: Vec<ConfigKey>,
    failures_by_config: BTreeMap<ConfigKey, usize>,
    engine: Engine,
    optimizer: OnlineOptimizer,
}

/// Drives one closed-loop replay of `fault` at (`tau`, `penalty`).
fn run_loop(
    seed_db: &MeasurementDb,
    fault: &ExecutionFaultPlan,
    tau: f64,
    penalty: f64,
) -> LoopRun {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let engine = Engine::new(Box::new(PolyLsqBackend::paper()), seed_db.clone(), None)
        .expect("stale campaign fits");
    let mut optimizer = OnlineOptimizer::new(evaluation_space(), LOOP_N, tau)
        .expect("loop optimizer inputs are valid")
        .with_fallback_penalty(penalty);
    let mut breaker = CircuitBreaker::new(breaker_policy());
    let mut executor = StepExecutor::new(&spec, LOOP_N, NB, *fault, RetryPolicy::default());
    let report = run_closed_loop(
        &engine,
        &mut optimizer,
        &mut breaker,
        LOOP_STEPS,
        |cfg, step| executor.execute(cfg, step),
    );
    LoopRun {
        report,
        tripped: breaker.tripped_configs(),
        failures_by_config: executor.fault_log().failures_by_config.clone(),
        engine,
        optimizer,
    }
}

/// The breaker-exactness oracle: every configuration the fault log
/// charged `threshold` terminal failures must have tripped, and every
/// tripped configuration must be backed by at least `threshold`
/// failure + flap strikes. With the suite's window spanning the whole
/// run, the two directions pin the trip set exactly.
fn breaker_matches(run: &LoopRun) -> bool {
    let threshold = breaker_policy().threshold;
    let complete = run
        .failures_by_config
        .iter()
        .filter(|&(_, &n)| n >= threshold)
        .all(|(key, _)| run.tripped.contains(key));
    let sound = run.tripped.iter().all(|key| {
        let failures = run.failures_by_config.get(key).copied().unwrap_or(0);
        let flaps = run.report.flap_strikes.get(key).copied().unwrap_or(0);
        failures + flaps >= threshold
    });
    complete && sound
}

/// Per-step executed configurations with hold-over: a held-out step
/// keeps the previously deployed configuration (`None` before any
/// deployment).
fn deployed_trace(report: &LoopReport) -> Vec<Option<ConfigKey>> {
    let mut current: Option<ConfigKey> = None;
    report
        .steps
        .iter()
        .map(|s| {
            if let Some(key) = &s.executed {
                current = Some(key.clone());
            }
            current.clone()
        })
        .collect()
}

/// Cumulative regret of `faulty` against the clean-trace `oracle`,
/// under ground-truth (clean-simulation) runtimes. Returns
/// `(regret, oracle_total)`.
fn regret_vs_oracle(
    truth: &mut TruthTable,
    spec: &ClusterSpec,
    oracle: &LoopReport,
    faulty: &LoopReport,
) -> (f64, f64) {
    let oracle_trace = deployed_trace(oracle);
    let faulty_trace = deployed_trace(faulty);
    let mut regret = 0.0;
    let mut oracle_total = 0.0;
    for (best, ran) in oracle_trace.iter().zip(&faulty_trace) {
        let Some(best) = best else { continue };
        let t_best = truth.runtime(spec, best);
        oracle_total += t_best;
        let t_ran = match ran {
            Some(key) => truth.runtime(spec, key),
            // Nothing ever deployed: charge the oracle's runtime
            // (zero regret contribution) — the loop is still warming.
            None => t_best,
        };
        regret += (t_ran - t_best).max(0.0);
    }
    (regret, oracle_total)
}

/// Fault-free gate: the loop's final bank must be bit-identical to a
/// one-shot fit of the stale seed with every ingested batch upserted —
/// the closed loop converges to exactly the offline workflow's model.
fn clean_bank_converged(seed_db: &MeasurementDb, run: &LoopRun) -> bool {
    let mut replay = seed_db.clone();
    for batch in &run.report.batches {
        for (key, sample) in &batch.trials {
            replay.upsert(*key, *sample);
        }
    }
    let reference = PolyLsqBackend::paper().fit(&replay).expect("one-shot fit");
    banks_bit_equal(run.engine.snapshot().bank(), &reference)
}

/// Fault-free gate: replaying an offline optimizer over the loop's
/// recorded snapshots must reproduce the decision log bit for bit.
fn clean_trace_matches(run: &LoopRun, tau: f64, penalty: f64) -> bool {
    let mut offline = OnlineOptimizer::new(evaluation_space(), LOOP_N, tau)
        .expect("loop optimizer inputs are valid")
        .with_fallback_penalty(penalty);
    for snap in &run.report.snapshots {
        offline.observe_fresh(snap);
    }
    if offline.log().len() != run.optimizer.log().len() {
        return false;
    }
    offline.log().iter().zip(run.optimizer.log()).all(|(a, b)| {
        a.generation == b.generation
            && a.recommended == b.recommended
            && a.recommended_time.to_bits() == b.recommended_time.to_bits()
            && a.switched == b.switched
    })
}

/// Scores one replay into a [`LoopRow`].
#[allow(clippy::too_many_arguments)]
fn score(
    scenario: &str,
    tau: f64,
    penalty: f64,
    run: &LoopRun,
    oracle: &LoopReport,
    truth: &mut TruthTable,
    spec: &ClusterSpec,
    clean_gates: Option<(bool, bool)>,
) -> LoopRow {
    let (regret, oracle_total) = regret_vs_oracle(truth, spec, oracle, &run.report);
    let breaker_exact = breaker_matches(run);
    let completed = run.report.steps.len() == LOOP_STEPS as usize;
    let (converged, trace_matches) = clean_gates.unwrap_or((true, true));
    let zero_regret_ok = clean_gates.is_none() || regret == 0.0;
    let ok = completed
        && run.report.untrusted_recommendations == 0
        && breaker_exact
        && regret <= REGRET_BOUND * oracle_total
        && converged
        && trace_matches
        && zero_regret_ok;
    LoopRow {
        scenario: scenario.to_string(),
        tau,
        penalty,
        steps: run.report.steps.len(),
        executed: run
            .report
            .steps
            .iter()
            .filter(|s| s.executed.is_some() && s.error.is_none())
            .count(),
        failures: run.report.failures,
        held_out: run.report.held_out,
        fallbacks: run.report.fallbacks,
        switches: run.report.switches(),
        tripped: run.tripped.len(),
        untrusted: run.report.untrusted_recommendations,
        regret_seconds: regret,
        oracle_seconds: oracle_total,
        breaker_exact,
        ok,
    }
}

/// τ grid for the hysteresis sweep.
pub(crate) const SWEEP_TAUS: [f64; 4] = [0.0, 0.02, 0.05, 0.1];
/// Fallback-penalty grid for the hysteresis sweep.
pub(crate) const SWEEP_PENALTIES: [f64; 3] = [1.0, 1.5, 2.0];

/// Runs the full `repro loop` suite: every seeded scenario at the
/// pinned (τ, penalty), then the deterministic τ × penalty sweep over
/// the compound faulty campaign, each point's regret measured against
/// its own clean-trace oracle.
pub fn loop_suite(plan: &MeasurementPlan) -> LoopSuite {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let seed_db = stale_seed(&campaign_db(plan));
    let mut truth = TruthTable::default();
    let mut suite = LoopSuite::default();

    // Scenario table at the pinned (τ, penalty); the clean run doubles
    // as every scenario's oracle trace.
    let clean_plan = ExecutionFaultPlan::default();
    let clean = run_loop(&seed_db, &clean_plan, LOOP_TAU, LOOP_PENALTY);
    let clean_gates = (
        clean_bank_converged(&seed_db, &clean),
        clean_trace_matches(&clean, LOOP_TAU, LOOP_PENALTY),
    );
    let oracle = clean.report.clone();
    suite.rows.push(score(
        "clean",
        LOOP_TAU,
        LOOP_PENALTY,
        &clean,
        &oracle,
        &mut truth,
        &spec,
        Some(clean_gates),
    ));
    for (name, fault) in loop_scenarios() {
        if name == "clean" {
            continue;
        }
        let run = run_loop(&seed_db, &fault, LOOP_TAU, LOOP_PENALTY);
        suite.rows.push(score(
            name,
            LOOP_TAU,
            LOOP_PENALTY,
            &run,
            &oracle,
            &mut truth,
            &spec,
            None,
        ));
    }

    // τ × penalty sweep over the compound faulty campaign. The clean
    // oracle depends on τ only (the penalty is inert on a healthy
    // engine), so one oracle per τ serves the whole penalty row.
    let compound = loop_scenarios()
        .into_iter()
        .find(|(name, _)| *name == "compound")
        .expect("compound scenario exists")
        .1;
    for &tau in &SWEEP_TAUS {
        let sweep_oracle = run_loop(&seed_db, &clean_plan, tau, 1.0).report;
        for &penalty in &SWEEP_PENALTIES {
            let run = run_loop(&seed_db, &compound, tau, penalty);
            suite.rows.push(score(
                "sweep",
                tau,
                penalty,
                &run,
                &sweep_oracle,
                &mut truth,
                &spec,
                None,
            ));
        }
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_plans_are_distinctly_seeded() {
        let scenarios = loop_scenarios();
        assert_eq!(scenarios.len(), 8);
        let mut seeds: Vec<u64> = scenarios.iter().map(|(_, p)| p.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "every plan carries its own seed");
    }

    #[test]
    fn config_of_key_round_trips() {
        let cfg = Configuration::p1m1_p2m2(1, 1, 2, 1);
        let key = etm_core::config_key(&cfg);
        assert_eq!(etm_core::config_key(&config_of_key(&key)), key);
    }

    #[test]
    fn deployed_trace_holds_over_gaps() {
        use etm_search::LoopStep;
        let mk = |step: u64, executed: Option<ConfigKey>| LoopStep {
            step,
            generation: 0,
            recommended: None,
            executed,
            fallback: false,
            switched: false,
            error: None,
            wall_seconds: 0.0,
        };
        let report = LoopReport {
            steps: vec![
                mk(0, None),
                mk(1, Some(vec![(0, 1, 1)])),
                mk(2, None),
                mk(3, Some(vec![(1, 2, 1)])),
            ],
            ..LoopReport::default()
        };
        assert_eq!(
            deployed_trace(&report),
            vec![
                None,
                Some(vec![(0, 1, 1)]),
                Some(vec![(0, 1, 1)]),
                Some(vec![(1, 2, 1)]),
            ]
        );
    }

    #[test]
    fn csv_row_is_stable() {
        let row = LoopRow {
            scenario: "clean".into(),
            tau: 0.05,
            penalty: 1.25,
            steps: 12,
            executed: 12,
            failures: 0,
            held_out: 0,
            fallbacks: 0,
            switches: 1,
            tripped: 0,
            untrusted: 0,
            regret_seconds: 0.0,
            oracle_seconds: 120.5,
            breaker_exact: true,
            ok: true,
        };
        assert_eq!(
            row.csv(),
            "clean,0.050,1.250,12,12,0,0,0,1,0,0,0.000000,120.500000,1,1"
        );
        assert_eq!(
            LOOP_CSV_HEADER.split(',').count(),
            row.csv().split(',').count()
        );
    }
}
