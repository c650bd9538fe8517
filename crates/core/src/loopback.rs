//! The execution side of the predict → execute → learn loop: a fault-
//! injected executor that *runs* recommended configurations on the
//! discrete-event substrate, and the per-configuration circuit breaker
//! that keeps a closed-loop controller away from configurations that
//! keep failing or flapping.
//!
//! [`ExecutionFaultPlan`] mirrors [`crate::faults::FaultPlan`] on the
//! execution side: a seeded, plain-data description of node
//! crashes mid-run, stragglers (per-kind CPU slowdown through the
//! processor-sharing kernel), transient cluster-wide network
//! degradation windows, and lost or NaN-poisoned measurements.
//! [`StepExecutor`] applies the plan deterministically — same plan,
//! same decision sequence, bit-identical samples — and records ground
//! truth in an [`ExecutionFaultLog`], the oracle a loop harness
//! compares breaker state against.
//!
//! Crash and lost-measurement faults surface as typed
//! [`ExecutionError`]s after a bounded retry-and-backoff
//! ([`RetryPolicy`]; backoff is *virtual* seconds, accounted but never
//! slept). Crashes keyed on the session-wide attempt counter can be
//! outrun by a retry; crash *windows* keyed on the step cannot, which
//! is what drives a configuration's failures into the
//! [`CircuitBreaker`]: `threshold` strikes (failures or flaps) within
//! `window` steps open the breaker, the configuration is held out for
//! `cooldown` steps, then half-open-probed — one success closes it,
//! one more failure re-opens it — the quarantine ledger's state
//! machine transplanted to the decision side.

use std::collections::BTreeMap;
use std::fmt;

use etm_support::rng::Rng64;

use etm_cluster::{ClusterSpec, Configuration, KindId};
use etm_hpl::{simulate_hpl_perturbed, ExecutionPerturbation, HplParams};

use crate::measurement::{Sample, SampleKey};
use crate::pipeline::sample_from_run;

/// Identity of a configuration on the decision side: the used
/// `(kind, Pᵢ, Mᵢ)` triples in kind order. Two configurations with the
/// same key are the same point of the §4 search space.
pub type ConfigKey = Vec<(usize, usize, usize)>;

/// The [`ConfigKey`] of `config` (kinds with zero PEs or processes are
/// not part of the identity).
pub fn config_key(config: &Configuration) -> ConfigKey {
    config
        .uses
        .iter()
        .filter(|u| u.pes > 0 && u.procs_per_pe > 0)
        .map(|u| (u.kind.0, u.pes, u.procs_per_pe))
        .collect()
}

/// A seeded, declarative fault plan over closed-loop *executions* —
/// the decision-side mirror of [`crate::faults::FaultPlan`]. All
/// counters are 1-based "every k-th" knobs; 0 disables.
#[derive(Clone, Copy, Debug)]
pub struct ExecutionFaultPlan {
    /// Seed for the straggler RNG (which used kind straggles).
    pub seed: u64,
    /// Crash every k-th execution *attempt* (session-wide count), so a
    /// retry of a crashed step can succeed. 0 off.
    pub crash_every: usize,
    /// First step (inclusive) of a crash window: every attempt at a
    /// step inside the window crashes, so retries are futile and the
    /// recommended configuration accumulates breaker strikes.
    pub crash_from: Option<u64>,
    /// End (exclusive) of the crash window.
    pub crash_until: Option<u64>,
    /// Straggle every k-th step: one seeded-random used kind's CPUs are
    /// derated by [`ExecutionFaultPlan::straggle_factor`]. 0 off.
    pub straggle_every: usize,
    /// CPU slowdown factor of a straggling kind.
    pub straggle_factor: f64,
    /// First step (inclusive) of a cluster-wide degradation window:
    /// every NIC is derated by [`ExecutionFaultPlan::degrade_factor`].
    pub degrade_from: Option<u64>,
    /// End (exclusive) of the degradation window.
    pub degrade_until: Option<u64>,
    /// Network slowdown factor inside the degradation window.
    pub degrade_factor: f64,
    /// Lose every k-th step's measurement (the run happens, the numbers
    /// vanish): surfaces as [`ExecutionError::MeasurementLost`] after
    /// retries. 0 off.
    pub lose_every: usize,
    /// Poison every k-th step's samples with a NaN `Ta` — delivered to
    /// ingest, where the quarantine ladder must absorb them. 0 off.
    pub nan_every: usize,
}

impl Default for ExecutionFaultPlan {
    /// The clean plan: every execution succeeds and measures truthfully.
    fn default() -> Self {
        ExecutionFaultPlan {
            seed: 0,
            crash_every: 0,
            crash_from: None,
            crash_until: None,
            straggle_every: 0,
            straggle_factor: 3.0,
            degrade_from: None,
            degrade_until: None,
            degrade_factor: 8.0,
            lose_every: 0,
            nan_every: 0,
        }
    }
}

impl ExecutionFaultPlan {
    fn in_window(step: u64, from: Option<u64>, until: Option<u64>) -> bool {
        match (from, until) {
            (Some(lo), Some(hi)) => step >= lo && step < hi,
            (Some(lo), None) => step >= lo,
            _ => false,
        }
    }

    fn crashes_at(&self, step: u64, attempt: u64) -> bool {
        Self::in_window(step, self.crash_from, self.crash_until)
            || (self.crash_every > 0 && attempt.is_multiple_of(self.crash_every as u64))
    }

    fn straggles_at(&self, step: u64) -> bool {
        self.straggle_every > 0 && (step + 1).is_multiple_of(self.straggle_every as u64)
    }

    fn degrades_at(&self, step: u64) -> bool {
        Self::in_window(step, self.degrade_from, self.degrade_until)
    }

    fn loses_at(&self, step: u64) -> bool {
        self.lose_every > 0 && (step + 1).is_multiple_of(self.lose_every as u64)
    }

    fn poisons_at(&self, step: u64) -> bool {
        self.nan_every > 0 && (step + 1).is_multiple_of(self.nan_every as u64)
    }
}

/// What the executor actually did — the ground truth a loop harness
/// compares breaker and quarantine state against.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecutionFaultLog {
    /// Execution attempts that crashed.
    pub crashes: usize,
    /// Crashed or lost attempts that were retried.
    pub retries: usize,
    /// Steps executed under a straggling kind.
    pub(crate) straggled: usize,
    /// Steps executed inside a degradation window.
    pub(crate) degraded: usize,
    /// Measurements lost after the run completed.
    pub lost: usize,
    /// Steps whose samples were NaN-poisoned before delivery.
    pub poisoned: usize,
    /// Terminal failures (retries exhausted) per configuration — the
    /// oracle for which breakers must open when failures cluster.
    pub failures_by_config: BTreeMap<ConfigKey, usize>,
    /// Steps that ended in a terminal [`ExecutionError`].
    pub(crate) failed_steps: Vec<u64>,
}

/// A typed execution outcome the loop must survive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecutionError {
    /// A node died mid-run on every allowed attempt.
    NodeCrash {
        /// Loop step of the doomed execution.
        step: u64,
        /// Attempts made (1 + retries).
        attempts: usize,
    },
    /// The run completed but its measurement never came back.
    MeasurementLost {
        /// Loop step of the lost measurement.
        step: u64,
        /// Attempts made (1 + retries).
        attempts: usize,
    },
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::NodeCrash { step, attempts } => {
                write!(f, "node crash at step {step} after {attempts} attempts")
            }
            ExecutionError::MeasurementLost { step, attempts } => {
                write!(
                    f,
                    "measurement lost at step {step} after {attempts} attempts"
                )
            }
        }
    }
}

impl std::error::Error for ExecutionError {}

/// Bounded retry-and-backoff for failed executions. Backoff is
/// *virtual* seconds — charged to the loop's clock, never slept.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = fail fast).
    pub(crate) max_retries: usize,
    /// Backoff before retry `k` (1-based) is `base_backoff · 2^(k−1)`.
    pub(crate) base_backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff: 1.0,
        }
    }
}

impl RetryPolicy {
    /// Virtual backoff before the `k`-th retry (1-based), doubling per
    /// retry.
    pub(crate) fn backoff_for(&self, retry: usize) -> f64 {
        debug_assert!(retry >= 1);
        self.base_backoff * 2f64.powi(retry as i32 - 1)
    }
}

/// One successfully executed step: the measured trials plus the cost
/// accounting the loop charges to its virtual clock.
#[derive(Clone, Debug)]
pub struct ExecutedStep {
    /// One trial per used `(kind, Pᵢ, Mᵢ)` group of the configuration.
    pub trials: Vec<(SampleKey, Sample)>,
    /// Virtual wall seconds of the (final) run.
    pub wall_seconds: f64,
    /// Attempts made (1 + retries).
    pub attempts: usize,
    /// Total virtual backoff charged by retries.
    pub backoff_seconds: f64,
    /// Which kind straggled, if the step ran perturbed.
    pub straggled_kind: Option<usize>,
    /// Whether the step ran inside a degradation window.
    pub degraded: bool,
    /// Whether the delivered samples were NaN-poisoned.
    pub poisoned: bool,
}

/// Executes recommended configurations on the discrete-event substrate
/// under an [`ExecutionFaultPlan`]. Deterministic: the outcome of a
/// step depends only on the plan, the step number, the session-wide
/// attempt counter, and the configuration. It borrows the cluster it
/// runs on.
#[derive(Debug)]
pub struct StepExecutor<'a> {
    spec: &'a ClusterSpec,
    n: usize,
    nb: usize,
    plan: ExecutionFaultPlan,
    retry: RetryPolicy,
    attempts: u64,
    log: ExecutionFaultLog,
}

impl<'a> StepExecutor<'a> {
    /// An executor running order-`n` HPL with block size `nb` on
    /// `spec`, faulted by `plan` and retried per `retry`.
    pub fn new(
        spec: &'a ClusterSpec,
        n: usize,
        nb: usize,
        plan: ExecutionFaultPlan,
        retry: RetryPolicy,
    ) -> StepExecutor<'a> {
        StepExecutor {
            spec,
            n,
            nb,
            plan,
            retry,
            attempts: 0,
            log: ExecutionFaultLog::default(),
        }
    }

    /// Ground truth of every fault injected so far.
    pub fn fault_log(&self) -> &ExecutionFaultLog {
        &self.log
    }

    /// Runs `config` at loop step `step`: simulate, perturb, retry.
    ///
    /// # Errors
    /// [`ExecutionError`] when the plan crashes or loses every allowed
    /// attempt; the failure is recorded against the configuration in
    /// the fault log.
    ///
    /// # Panics
    /// Panics if `config` is invalid for the cluster.
    pub fn execute(
        &mut self,
        config: &Configuration,
        step: u64,
    ) -> Result<ExecutedStep, ExecutionError> {
        let mut attempts = 0usize;
        let mut backoff = 0.0;
        loop {
            attempts += 1;
            self.attempts += 1;
            let doomed = if self.plan.crashes_at(step, self.attempts) {
                self.log.crashes += 1;
                Some(ExecutionError::NodeCrash { step, attempts })
            } else if self.plan.loses_at(step) {
                self.log.lost += 1;
                Some(ExecutionError::MeasurementLost { step, attempts })
            } else {
                None
            };
            if let Some(err) = doomed {
                if attempts > self.retry.max_retries {
                    *self
                        .log
                        .failures_by_config
                        .entry(config_key(config))
                        .or_insert(0) += 1;
                    self.log.failed_steps.push(step);
                    return Err(err);
                }
                self.log.retries += 1;
                backoff += self.retry.backoff_for(attempts);
                continue;
            }
            return Ok(self.run_once(config, step, attempts, backoff));
        }
    }

    /// One fault-free-at-the-attempt-level run: the step-level
    /// perturbations (straggler, degradation, poison) still apply.
    fn run_once(
        &mut self,
        config: &Configuration,
        step: u64,
        attempts: usize,
        backoff: f64,
    ) -> ExecutedStep {
        let mut perturb = ExecutionPerturbation::default();
        let straggled_kind = if self.plan.straggles_at(step) {
            let used: Vec<usize> = config
                .uses
                .iter()
                .filter(|u| u.pes > 0 && u.procs_per_pe > 0)
                .map(|u| u.kind.0)
                .collect();
            let mut rng = Rng64::seed_from_u64(self.plan.seed ^ step.wrapping_mul(0x9e37_79b9));
            let kind = used[rng.range_usize(used.len())];
            perturb
                .cpu_slowdown
                .push((KindId(kind), self.plan.straggle_factor));
            self.log.straggled += 1;
            Some(kind)
        } else {
            None
        };
        let degraded = self.plan.degrades_at(step);
        if degraded {
            perturb.net_slowdown = self.plan.degrade_factor;
            self.log.degraded += 1;
        }
        let params = HplParams::order(self.n).with_nb(self.nb);
        let run = simulate_hpl_perturbed(self.spec, config, &params, &perturb);
        let poisoned = self.plan.poisons_at(step);
        if poisoned {
            self.log.poisoned += 1;
        }
        let trials = config
            .uses
            .iter()
            .filter(|u| u.pes > 0 && u.procs_per_pe > 0)
            .map(|u| {
                let key = SampleKey::new(u.kind, u.pes, u.procs_per_pe);
                let mut sample = sample_from_run(&run, u.kind, self.n);
                if poisoned {
                    sample.ta = f64::NAN;
                }
                (key, sample)
            })
            .collect();
        ExecutedStep {
            trials,
            wall_seconds: run.wall_seconds,
            attempts,
            backoff_seconds: backoff,
            straggled_kind,
            degraded,
            poisoned,
        }
    }
}

/// Breaker tuning: how many strikes in how many steps open it, and how
/// long it holds a configuration out before probing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Strikes older than `window` steps expire.
    pub window: u64,
    /// Strikes within the window that open the breaker (the issue's K).
    pub threshold: usize,
    /// Steps an open breaker holds the configuration out before a
    /// half-open probe.
    pub cooldown: u64,
    /// A configuration abandoned within `flap_window` decisions of its
    /// adoption counts a flap strike.
    pub flap_window: u64,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            window: 8,
            threshold: 2,
            cooldown: 4,
            flap_window: 2,
        }
    }
}

/// Breaker state of one configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Trusted: executions flow.
    Closed,
    /// Held out: recommendations for this configuration are refused.
    Open,
    /// Cooldown expired: exactly one probe execution is allowed.
    HalfOpen,
}

#[derive(Clone, Debug)]
struct BreakerEntry {
    strikes: Vec<u64>,
    state: BreakerState,
    opened_at: u64,
    ever_opened: bool,
}

/// Per-configuration circuit breaker over closed-loop decisions: the
/// quarantine ledger's open / half-open / closed state machine, keyed
/// by [`ConfigKey`] instead of `(kind, m)` group.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    entries: BTreeMap<ConfigKey, BreakerEntry>,
}

impl CircuitBreaker {
    /// A breaker with `policy`; every configuration starts closed.
    pub fn new(policy: BreakerPolicy) -> CircuitBreaker {
        CircuitBreaker {
            policy,
            entries: BTreeMap::new(),
        }
    }

    /// The tuning in force.
    pub fn policy(&self) -> &BreakerPolicy {
        &self.policy
    }

    /// Whether `config` may execute at `step`. An open breaker whose
    /// cooldown has expired transitions to half-open and admits exactly
    /// this one probe; the caller must report its outcome via
    /// [`CircuitBreaker::record_success`] /
    /// [`CircuitBreaker::record_failure`] before asking again.
    pub fn allows(&mut self, config: &ConfigKey, step: u64) -> bool {
        let Some(entry) = self.entries.get_mut(config) else {
            return true;
        };
        match entry.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if step >= entry.opened_at + self.policy.cooldown {
                    entry.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn strike(&mut self, config: &ConfigKey, step: u64) {
        let entry = self
            .entries
            .entry(config.clone())
            .or_insert_with(|| BreakerEntry {
                strikes: Vec::new(),
                state: BreakerState::Closed,
                opened_at: 0,
                ever_opened: false,
            });
        match entry.state {
            BreakerState::HalfOpen => {
                entry.state = BreakerState::Open;
                entry.opened_at = step;
                entry.strikes.clear();
            }
            BreakerState::Open => {}
            BreakerState::Closed => {
                entry.strikes.push(step);
                entry.strikes.retain(|&s| s + self.policy.window > step);
                if entry.strikes.len() >= self.policy.threshold {
                    entry.state = BreakerState::Open;
                    entry.opened_at = step;
                    entry.ever_opened = true;
                    entry.strikes.clear();
                }
            }
        }
        if entry.state == BreakerState::Open {
            entry.ever_opened = true;
        }
    }

    /// Records a terminal execution failure of `config` at `step`.
    pub fn record_failure(&mut self, config: &ConfigKey, step: u64) {
        self.strike(config, step);
    }

    /// Records a flap — `config` was abandoned within
    /// [`BreakerPolicy::flap_window`] decisions of its adoption.
    pub fn record_flap(&mut self, config: &ConfigKey, step: u64) {
        self.strike(config, step);
    }

    /// Records a successful execution: a half-open probe that succeeds
    /// closes the breaker and clears its strikes. Success does *not*
    /// clear closed-state strikes — a config that flaps on every
    /// otherwise-clean run must still trip the breaker.
    pub fn record_success(&mut self, config: &ConfigKey, _step: u64) {
        if let Some(entry) = self.entries.get_mut(config) {
            if entry.state == BreakerState::HalfOpen {
                entry.state = BreakerState::Closed;
                entry.strikes.clear();
            }
        }
    }

    /// Configurations whose breaker opened at least once — the set the
    /// loop harness compares against the fault log's failure oracle.
    pub fn tripped_configs(&self) -> Vec<ConfigKey> {
        self.entries
            .iter()
            .filter(|(_, e)| e.ever_opened)
            .map(|(k, _)| k.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etm_cluster::commlib::CommLibProfile;
    use etm_cluster::spec::paper_cluster;

    fn spec() -> ClusterSpec {
        paper_cluster(CommLibProfile::mpich122())
    }

    impl CircuitBreaker {
        /// Current state of `config`.
        fn state(&self, config: &ConfigKey) -> BreakerState {
            self.entries
                .get(config)
                .map_or(BreakerState::Closed, |e| e.state)
        }

        /// Configurations currently held out.
        fn open_configs(&self) -> Vec<ConfigKey> {
            self.entries
                .iter()
                .filter(|(_, e)| e.state == BreakerState::Open)
                .map(|(k, _)| k.clone())
                .collect()
        }
    }

    fn cfg() -> Configuration {
        Configuration::p1m1_p2m2(1, 1, 2, 1)
    }

    const N: usize = 800;
    const NB: usize = 64;

    #[test]
    fn clean_executor_matches_direct_simulation_bit_for_bit() {
        let s = spec();
        let mut ex = StepExecutor::new(
            &s,
            N,
            NB,
            ExecutionFaultPlan::default(),
            RetryPolicy::default(),
        );
        let step = ex.execute(&cfg(), 0).expect("clean plan never fails");
        assert_eq!(step.attempts, 1);
        assert_eq!(step.backoff_seconds, 0.0);
        let run = etm_hpl::simulate_hpl(&s, &cfg(), &HplParams::order(N).with_nb(NB));
        assert_eq!(step.wall_seconds.to_bits(), run.wall_seconds.to_bits());
        for (key, sample) in &step.trials {
            let want = sample_from_run(&run, KindId(key.kind), N);
            assert_eq!(sample.ta.to_bits(), want.ta.to_bits());
            assert_eq!(sample.tc.to_bits(), want.tc.to_bits());
        }
        assert_eq!(*ex.fault_log(), ExecutionFaultLog::default());
    }

    #[test]
    fn attempt_keyed_crash_is_outrun_by_a_retry() {
        let s = spec();
        let plan = ExecutionFaultPlan {
            crash_every: 2,
            ..ExecutionFaultPlan::default()
        };
        let mut ex = StepExecutor::new(&s, N, NB, plan, RetryPolicy::default());
        // Attempt 1 clean; attempt 2 (step 1) crashes, attempt 3 retries
        // clean.
        ex.execute(&cfg(), 0).expect("first step clean");
        let step = ex.execute(&cfg(), 1).expect("retry outruns the crash");
        assert_eq!(step.attempts, 2);
        assert!(step.backoff_seconds > 0.0);
        let log = ex.fault_log();
        assert_eq!(log.crashes, 1);
        assert_eq!(log.retries, 1);
        assert!(log.failures_by_config.is_empty());
    }

    #[test]
    fn crash_window_exhausts_retries_and_charges_the_config() {
        let s = spec();
        let plan = ExecutionFaultPlan {
            crash_from: Some(0),
            crash_until: Some(1),
            ..ExecutionFaultPlan::default()
        };
        let retry = RetryPolicy {
            max_retries: 2,
            base_backoff: 1.0,
        };
        let mut ex = StepExecutor::new(&s, N, NB, plan, retry);
        let err = ex
            .execute(&cfg(), 0)
            .expect_err("window dooms every attempt");
        assert_eq!(
            err,
            ExecutionError::NodeCrash {
                step: 0,
                attempts: 3
            }
        );
        let log = ex.fault_log();
        assert_eq!(log.crashes, 3);
        assert_eq!(log.retries, 2);
        assert_eq!(log.failures_by_config.get(&config_key(&cfg())), Some(&1));
        assert_eq!(log.failed_steps, [0]);
        // Outside the window the same executor succeeds again.
        ex.execute(&cfg(), 1)
            .expect("step past the window is clean");
    }

    #[test]
    fn lost_measurement_is_typed_and_counted() {
        let s = spec();
        let plan = ExecutionFaultPlan {
            lose_every: 1,
            ..ExecutionFaultPlan::default()
        };
        let retry = RetryPolicy {
            max_retries: 0,
            base_backoff: 1.0,
        };
        let mut ex = StepExecutor::new(&s, N, NB, plan, retry);
        let err = ex.execute(&cfg(), 0).expect_err("every measurement lost");
        assert_eq!(
            err,
            ExecutionError::MeasurementLost {
                step: 0,
                attempts: 1
            }
        );
        assert_eq!(ex.fault_log().lost, 1);
    }

    #[test]
    fn straggler_elongates_the_run_deterministically() {
        let s = spec();
        let plan = ExecutionFaultPlan {
            seed: 11,
            straggle_every: 1,
            straggle_factor: 4.0,
            ..ExecutionFaultPlan::default()
        };
        let mut a = StepExecutor::new(&s, N, NB, plan, RetryPolicy::default());
        let mut b = StepExecutor::new(&s, N, NB, plan, RetryPolicy::default());
        let clean = StepExecutor::new(
            &s,
            N,
            NB,
            ExecutionFaultPlan::default(),
            RetryPolicy::default(),
        )
        .execute(&cfg(), 0)
        .expect("clean");
        let sa = a.execute(&cfg(), 0).expect("straggled");
        let sb = b.execute(&cfg(), 0).expect("straggled");
        assert!(sa.straggled_kind.is_some());
        assert!(sa.wall_seconds > clean.wall_seconds);
        assert_eq!(sa.wall_seconds.to_bits(), sb.wall_seconds.to_bits());
        assert_eq!(sa.straggled_kind, sb.straggled_kind);
    }

    #[test]
    fn degradation_window_slows_communication() {
        let s = spec();
        let plan = ExecutionFaultPlan {
            degrade_from: Some(0),
            degrade_until: Some(1),
            degrade_factor: 10.0,
            ..ExecutionFaultPlan::default()
        };
        let mut ex = StepExecutor::new(&s, N, NB, plan, RetryPolicy::default());
        let degraded = ex.execute(&cfg(), 0).expect("degraded run completes");
        assert!(degraded.degraded);
        let clean = ex.execute(&cfg(), 1).expect("window over");
        assert!(!clean.degraded);
        assert!(degraded.wall_seconds > clean.wall_seconds);
        assert_eq!(ex.fault_log().degraded, 1);
    }

    #[test]
    fn poisoned_step_delivers_nan_ta() {
        let s = spec();
        let plan = ExecutionFaultPlan {
            nan_every: 1,
            ..ExecutionFaultPlan::default()
        };
        let mut ex = StepExecutor::new(&s, N, NB, plan, RetryPolicy::default());
        let step = ex.execute(&cfg(), 0).expect("poison is not a failure");
        assert!(step.poisoned);
        assert!(step.trials.iter().all(|(_, s)| s.ta.is_nan()));
        assert_eq!(ex.fault_log().poisoned, 1);
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let retry = RetryPolicy {
            max_retries: 3,
            base_backoff: 0.5,
        };
        assert_eq!(retry.backoff_for(1), 0.5);
        assert_eq!(retry.backoff_for(2), 1.0);
        assert_eq!(retry.backoff_for(3), 2.0);
    }

    fn key() -> ConfigKey {
        vec![(0, 1, 1)]
    }

    #[test]
    fn breaker_opens_on_threshold_and_probes_after_cooldown() {
        let policy = BreakerPolicy {
            window: 8,
            threshold: 2,
            cooldown: 4,
            flap_window: 2,
        };
        let mut br = CircuitBreaker::new(policy);
        assert!(br.allows(&key(), 0));
        br.record_failure(&key(), 0);
        assert_eq!(br.state(&key()), BreakerState::Closed);
        br.record_failure(&key(), 1);
        assert_eq!(br.state(&key()), BreakerState::Open);
        assert!(!br.allows(&key(), 2), "cooldown holds the config out");
        assert!(!br.allows(&key(), 4));
        assert!(br.allows(&key(), 5), "cooldown expired: half-open probe");
        assert_eq!(br.state(&key()), BreakerState::HalfOpen);
        br.record_success(&key(), 5);
        assert_eq!(br.state(&key()), BreakerState::Closed);
        assert_eq!(br.open_configs(), Vec::<ConfigKey>::new());
        assert_eq!(br.tripped_configs(), vec![key()]);
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let policy = BreakerPolicy {
            window: 8,
            threshold: 1,
            cooldown: 3,
            flap_window: 2,
        };
        let mut br = CircuitBreaker::new(policy);
        br.record_failure(&key(), 0);
        assert!(br.allows(&key(), 3), "probe after cooldown");
        br.record_failure(&key(), 3);
        assert_eq!(br.state(&key()), BreakerState::Open);
        assert!(!br.allows(&key(), 5), "fresh cooldown from the probe step");
        assert!(br.allows(&key(), 6));
    }

    #[test]
    fn strikes_expire_outside_the_window() {
        let policy = BreakerPolicy {
            window: 3,
            threshold: 2,
            cooldown: 4,
            flap_window: 2,
        };
        let mut br = CircuitBreaker::new(policy);
        br.record_failure(&key(), 0);
        // Step 5 is outside the 3-step window of the first strike.
        br.record_failure(&key(), 5);
        assert_eq!(br.state(&key()), BreakerState::Closed);
        br.record_failure(&key(), 6);
        assert_eq!(br.state(&key()), BreakerState::Open);
    }

    #[test]
    fn flaps_strike_like_failures_and_survive_successes() {
        let policy = BreakerPolicy {
            window: 10,
            threshold: 2,
            cooldown: 4,
            flap_window: 2,
        };
        let mut br = CircuitBreaker::new(policy);
        br.record_flap(&key(), 1);
        br.record_success(&key(), 2);
        assert_eq!(
            br.state(&key()),
            BreakerState::Closed,
            "success must not erase closed-state strikes"
        );
        br.record_flap(&key(), 3);
        assert_eq!(br.state(&key()), BreakerState::Open);
        assert_eq!(br.open_configs(), vec![key()]);
    }
}
