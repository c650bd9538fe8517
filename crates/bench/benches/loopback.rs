//! Closed-loop hot paths: the per-step cost of the predict → execute →
//! learn loop behind `repro loop`:
//!
//! * `execute_ingest_roundtrip` — one full loop step: simulate the
//!   recommended configuration on the discrete-event substrate via a
//!   fault-free [`StepExecutor`], then stream the measured batch back
//!   through `Engine::ingest_batch` (a no-op after the first delivery,
//!   since the re-measured samples carry the same bits — the quiescent
//!   steady state);
//! * `breaker_hot_path` — the per-step breaker overhead on a warm
//!   ledger: `allows` + `record_success` across a 62-configuration
//!   strike map;
//! * `breaker_strike_churn` — worst-case strike bookkeeping: a config
//!   flapping against the window-retention path every step.

use etm_bench::Runner;
use etm_cluster::commlib::CommLibProfile;
use etm_cluster::spec::paper_cluster;
use etm_cluster::Configuration;
use etm_core::plan::MeasurementPlan;
use etm_core::stream::TrialBatch;
use etm_core::{
    config_key, BreakerPolicy, CircuitBreaker, ConfigKey, ExecutionFaultPlan, RetryPolicy,
    StepExecutor,
};
use etm_repro::experiments::{engine_for, NB};
use etm_repro::stream::evaluation_space;

fn main() {
    let mut r = Runner::new("loopback");
    let plan = MeasurementPlan::basic();
    let engine = engine_for(&plan);
    let spec = paper_cluster(CommLibProfile::mpich122());
    let n = 1600usize;
    let config = Configuration::p1m1_p2m2(1, 1, 2, 1);
    let mut executor = StepExecutor::new(
        &spec,
        n,
        NB,
        ExecutionFaultPlan::default(),
        RetryPolicy::default(),
    );
    // Prime the engine so the timed ingest is the steady-state no-op
    // (same bits as the stored samples), not a first-delivery refit.
    let primed = executor
        .execute(&config, 0)
        .expect("fault-free execution succeeds");
    engine
        .ingest_batch(&TrialBatch {
            seq: 0,
            sim_time: primed.wall_seconds,
            trials: primed.trials,
        })
        .expect("primed batch fits");

    let mut step = 1u64;
    r.bench("loopback/execute_ingest_roundtrip", || {
        let executed = executor
            .execute(&config, step)
            .expect("fault-free execution succeeds");
        let batch = TrialBatch {
            seq: step,
            sim_time: step as f64,
            trials: executed.trials,
        };
        step += 1;
        engine.ingest_batch(&batch).expect("clean batch fits")
    });

    // A warm breaker ledger over the whole evaluation grid.
    let keys: Vec<ConfigKey> = evaluation_space()
        .enumerate()
        .iter()
        .map(config_key)
        .collect();
    let mut breaker = CircuitBreaker::new(BreakerPolicy::default());
    for (i, key) in keys.iter().enumerate() {
        breaker.record_flap(key, i as u64);
    }
    let mut tick = keys.len() as u64;
    r.bench("loopback/breaker_hot_path", || {
        let key = &keys[(tick as usize) % keys.len()];
        let allowed = breaker.allows(key, tick);
        breaker.record_success(key, tick);
        tick += 1;
        allowed
    });

    let churn_key = keys[0].clone();
    let mut churn = CircuitBreaker::new(BreakerPolicy {
        window: 4,
        threshold: usize::MAX,
        cooldown: 4,
        flap_window: 2,
    });
    let mut churn_tick = 0u64;
    r.bench("loopback/breaker_strike_churn", || {
        churn.record_flap(&churn_key, churn_tick);
        let allowed = churn.allows(&churn_key, churn_tick);
        churn_tick += 1;
        allowed
    });

    r.finish();
}
