//! The three workloads. Each is a single client in a closed loop: the
//! next operation starts when the previous one returns. Every output is
//! checked against a reference outside the timed sections; a mismatch
//! counts the operation as failed.
//!
//! In a traced run, operations alternate between traced and untraced
//! (episode by episode), so both halves see the same host conditions:
//! latencies come from the untraced half, layer times from the traced
//! half.

use std::sync::Arc;

use etm_cluster::Configuration;
use etm_core::backend::{ModelBackend, PolyLsqBackend};
use etm_core::engine::{Engine, EngineSnapshot};
use etm_core::pipeline::PipelineError;
use etm_core::stream::{replay, trials_of_db, StreamConfig};
use etm_core::{
    BreakerPolicy, CircuitBreaker, ExecutionError, ExecutionFaultPlan, MeasurementDb,
    MeasurementPlan, RetryPolicy, StepExecutor,
};
use etm_repro::experiments::NB;
use etm_repro::loopback::{loop_scenarios, LOOP_N, LOOP_PENALTY, LOOP_STEPS, LOOP_TAU};
use etm_repro::stream::banks_bit_equal;
use etm_search::{anytime_search, best_config, run_closed_loop, AnytimeOptions, LoopReport};
use etm_search::{OnlineDecision, OnlineOptimizer};
use etm_support::rng::Rng64;

use crate::harness::{Harness, Phase};
use crate::setup::{stale_seed, Campaign};
use crate::trace::Tracer;

/// Problem sizes in the `query` mix.
const QUERY_SIZES: usize = 64;
/// Problem size and hysteresis `stream-refit` re-optimizes with: those
/// of `repro stream`, the repository's streaming experiment over the
/// Basic campaign.
const STREAM_N: usize = 6400;
/// See [`STREAM_N`].
const STREAM_TAU: f64 = 0.02;

/// How `stream-refit` replays the campaign: the mix of the `streaming`
/// bench suite's `stream/replay_486_trials` (batches of 16, every 5th
/// trial re-delivered, every 6th deferred), the repository's one
/// existing replay with both duplicates and deferred re-deliveries. The
/// shuffle seed is set per episode.
fn stream_config(shuffle_seed: u64) -> StreamConfig {
    StreamConfig {
        batch_size: 16,
        shuffle_seed: Some(shuffle_seed),
        duplicate_every: 5,
        defer_every: 6,
        channel_cap: 0,
    }
}

fn same_estimate(a: &Result<f64, PipelineError>, b: &Result<f64, PipelineError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.to_bits() == y.to_bits(),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// The §4 argmin over one estimate sweep: strict `<`, first minimum
/// wins — exactly `best_config`'s rule.
fn argmin(estimates: &[Result<f64, PipelineError>]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, r) in estimates.iter().enumerate() {
        if let Ok(t) = r {
            if best.is_none_or(|(_, b)| *t < b) {
                best = Some((i, *t));
            }
        }
    }
    best
}

/// The `query` mix: half the sizes on the evaluation grid, half drawn
/// uniformly between its ends and off it.
fn query_sizes(seed: u64) -> Vec<usize> {
    let grid = MeasurementPlan::basic().evaluation_ns;
    let (lo, hi) = (grid[0], grid[grid.len() - 1]);
    let mut rng = Rng64::seed_from_u64(seed ^ 0x0071_7565_7279);
    (0..QUERY_SIZES)
        .map(|i| {
            if i % 2 == 0 {
                return grid[rng.range_usize(grid.len())];
            }
            loop {
                let n = rng.range_inclusive(lo, hi);
                if !grid.contains(&n) {
                    return n;
                }
            }
        })
        .collect()
}

/// `query`: one operation answers the §4 question at one size — the
/// 62-configuration sweep through `estimate_batch` and its argmin, then
/// `anytime_search` — on the fixed Basic snapshot.
pub fn query(c: &Campaign, seed: u64, seconds: f64, traced: bool, h: &mut Harness) {
    struct Case {
        n: usize,
        requests: Vec<(Configuration, usize)>,
        expect: Vec<Result<f64, PipelineError>>,
        best: Option<(Configuration, u64)>,
    }
    let snapshot = c.engine.snapshot();
    let configs = c.space.enumerate();
    let cases: Vec<Case> = query_sizes(seed)
        .into_iter()
        .map(|n| Case {
            n,
            requests: configs.iter().map(|cfg| (cfg.clone(), n)).collect(),
            expect: configs
                .iter()
                .map(|cfg| snapshot.estimate(cfg, n))
                .collect(),
            best: best_config(&snapshot, &c.space, n).map(|b| (b.config, b.time.to_bits())),
        })
        .collect();
    let opts = AnytimeOptions::default();
    let mut phase = Phase::new(seconds);
    while phase.running(h) {
        let k = h.out.next;
        // Operations run in pairs on one input; in a traced run the
        // second of each pair is traced.
        let case = &cases[(k / 2) % cases.len()];
        let trace_this = traced && k % 2 == 1;
        h.tr.set_enabled(trace_this);
        let ((estimates, best, any), dt) = h.tr.op(|tr| {
            let estimates = tr.span("compiled.estimate_batch_us", |_| {
                snapshot.estimate_batch(&case.requests)
            });
            let best = argmin(&estimates);
            let any = tr.span("search.anytime_us", |_| {
                anytime_search(&snapshot, &c.space, case.n, &opts)
            });
            (estimates, best, any)
        });
        h.tr.count("search.evaluated", any.evaluated as f64);
        h.tr.count("search.pruned", any.pruned as f64);
        h.tr.count("search.certificate_hits", any.certificate_hits as f64);
        let ok = phase.check(|| {
            let swept = estimates.len() == case.expect.len()
                && estimates
                    .iter()
                    .zip(&case.expect)
                    .all(|(a, b)| same_estimate(a, b));
            let ranked = best.map(|(i, t)| (configs[i].clone(), t.to_bits())) == case.best;
            let searched =
                any.best.map(|b| (b.config, b.time.to_bits())) == case.best && any.exhausted;
            swept && ranked && searched
        });
        phase.record(h, trace_this, dt, 1);
        if !ok {
            h.out.failed += 1;
            h.out.mismatch(format!(
                "query n={}: sweep or search differs from reference",
                case.n
            ));
        }
        h.out.next += 1;
    }
    h.tr.set_enabled(false);
    phase.finish(h);
}

/// Whether an offline optimizer replayed over `snapshots` reproduces
/// `log` bit for bit.
fn log_replays(
    space: &etm_search::ConfigSpace,
    n: usize,
    snapshots: &[Arc<EngineSnapshot>],
    log: &[OnlineDecision],
) -> bool {
    let mut offline =
        OnlineOptimizer::new(space.clone(), n, STREAM_TAU).expect("valid optimizer inputs");
    for s in snapshots {
        offline.observe_fresh(s);
    }
    offline.log().len() == log.len()
        && offline.log().iter().zip(log).all(|(a, b)| {
            a.generation == b.generation
                && a.recommended == b.recommended
                && a.recommended_time.to_bits() == b.recommended_time.to_bits()
                && a.switched == b.switched
        })
}

/// `stream-refit`: each episode streams the true Basic campaign —
/// shuffled, with duplicates and deferred re-deliveries — into a fresh
/// engine seeded with the stale campaign. One operation is one
/// generation: `ingest_batch`, then `observe` at [`STREAM_N`] when it
/// published.
pub fn stream_refit(c: &Campaign, seed: u64, seconds: f64, traced: bool, h: &mut Harness) {
    let trials = trials_of_db(&c.db);
    let stale = stale_seed(&c.db);
    let reference = PolyLsqBackend::paper()
        .fit(&c.db)
        .expect("the Basic campaign fits");
    let mut phase = Phase::new(seconds);
    while phase.running(h) {
        let episode = h.out.next;
        let trace_this = traced && episode % 2 == 1;
        h.tr.set_enabled(trace_this);
        let cfg = stream_config(
            Rng64::seed_from_u64(seed ^ 0x7374_7265_616d ^ episode as u64).next_u64(),
        );
        let batches = h.tr.span("stream.replay_ms", |_| replay(&trials, &cfg));
        let engine = h.tr.span("engine.new_ms", |_| {
            Engine::new(Box::new(PolyLsqBackend::paper()), stale.clone(), None)
                .expect("the stale campaign fits")
        });
        let mut optimizer = OnlineOptimizer::new(c.space.clone(), STREAM_N, STREAM_TAU)
            .expect("valid optimizer inputs");
        let mut snapshots = vec![engine.snapshot()];
        optimizer.observe(&snapshots[0]);
        let mut errors = 0u64;
        for batch in &batches {
            let (published, dt) =
                h.tr.op(
                    |tr| match tr.span("engine.ingest_ms", |_| engine.ingest_batch(batch)) {
                        Ok(snap)
                            if snap.generation() != snapshots[snapshots.len() - 1].generation() =>
                        {
                            tr.span("online.observe_us", |_| optimizer.observe(&snap));
                            snapshots.push(snap);
                            Some(true)
                        }
                        Ok(_) => Some(false),
                        Err(_) => None,
                    },
                );
            match published {
                Some(true) => {
                    let snap = &snapshots[snapshots.len() - 1];
                    h.tr.count("engine.publishes", 1.0);
                    h.tr.count("engine.groups_refit", snap.refit_groups().len() as f64);
                }
                Some(false) => h.tr.count("engine.noop_ingests", 1.0),
                None => errors += 1,
            }
            phase.record(h, trace_this, dt, 0);
        }
        h.tr.count("online.switches", optimizer.switches() as f64);
        if trace_this {
            h.out.traced_episodes += 1;
        }
        let ok = phase.check(|| {
            banks_bit_equal(engine.snapshot().bank(), &reference)
                && log_replays(&c.space, STREAM_N, &snapshots, optimizer.log())
        });
        if !ok || errors > 0 {
            h.out.failed += batches.len() as u64;
            h.out.mismatch(format!(
                "stream-refit episode {episode}: {errors} ingest errors, final bank or decision log differs from reference"
            ));
        }
        h.out.next += 1;
    }
    h.tr.set_enabled(false);
    phase.finish(h);
}

/// The breaker policy `repro loop` pins.
fn breaker_policy() -> BreakerPolicy {
    BreakerPolicy {
        window: LOOP_STEPS,
        threshold: 2,
        cooldown: 4,
        flap_window: 2,
    }
}

/// One closed-loop episode's results.
struct Episode {
    report: LoopReport,
    engine: Engine,
}

/// One 12-step closed-loop episode at `LOOP_N` from a fresh
/// stale-seeded engine, executing on the discrete-event simulator under
/// `fault`.
fn loop_episode(
    c: &Campaign,
    stale: &MeasurementDb,
    fault: &ExecutionFaultPlan,
    tr: &mut Tracer,
) -> Episode {
    let engine = tr.span("engine.new_ms", |_| {
        Engine::new(Box::new(PolyLsqBackend::paper()), stale.clone(), None)
            .expect("the stale campaign fits")
    });
    let mut optimizer = OnlineOptimizer::new(c.space.clone(), LOOP_N, LOOP_TAU)
        .expect("valid optimizer inputs")
        .with_fallback_penalty(LOOP_PENALTY);
    let mut breaker = CircuitBreaker::new(breaker_policy());
    let mut executor = StepExecutor::new(&c.spec, LOOP_N, NB, *fault, RetryPolicy::default());
    let mut attempts = 0usize;
    let report = tr.span("closed_loop.self_ms", |tr| {
        run_closed_loop(
            &engine,
            &mut optimizer,
            &mut breaker,
            LOOP_STEPS,
            |cfg, step| {
                let r = tr.span("loopback.execute_ms", |_| executor.execute(cfg, step));
                attempts += match &r {
                    Ok(done) => done.attempts,
                    Err(ExecutionError::NodeCrash { attempts, .. })
                    | Err(ExecutionError::MeasurementLost { attempts, .. }) => *attempts,
                };
                r
            },
        )
    });
    let log = executor.fault_log();
    tr.count("loopback.attempts", attempts as f64);
    tr.count("loopback.retries", log.retries as f64);
    tr.count("loopback.crashes", log.crashes as f64);
    tr.count("loopback.lost", log.lost as f64);
    tr.count("loopback.poisoned", log.poisoned as f64);
    tr.count("closed_loop.fallbacks", report.fallbacks as f64);
    tr.count("closed_loop.held_out", report.held_out as f64);
    tr.count("closed_loop.switches", report.switches() as f64);
    let last = engine.snapshot();
    let publishes = last.generation();
    let mut refit: usize = report
        .snapshots
        .iter()
        .map(|s| s.refit_groups().len())
        .sum();
    if report
        .snapshots
        .last()
        .is_none_or(|s| s.generation() != publishes)
    {
        refit += last.refit_groups().len();
    }
    tr.count("engine.publishes", publishes as f64);
    tr.count(
        "engine.noop_ingests",
        (report.batches.len() as u64).saturating_sub(publishes) as f64,
    );
    tr.count("engine.groups_refit", refit as f64);
    Episode { report, engine }
}

/// The episode's reference check: 12 steps, no untrusted
/// recommendation, and for the fault-free plan a final bank equal to a
/// one-shot fit of the seed plus every ingested batch.
fn loop_episode_ok(stale: &MeasurementDb, clean: bool, ep: &Episode) -> bool {
    if ep.report.steps.len() != LOOP_STEPS as usize || ep.report.untrusted_recommendations != 0 {
        return false;
    }
    if !clean {
        return true;
    }
    let mut replayed = stale.clone();
    for batch in &ep.report.batches {
        for (key, sample) in &batch.trials {
            replayed.upsert(*key, *sample);
        }
    }
    let reference = PolyLsqBackend::paper()
        .fit(&replayed)
        .expect("one-shot fit");
    banks_bit_equal(ep.engine.snapshot().bank(), &reference)
}

/// `closed-loop`: one operation is one 12-step episode, the fault plan
/// cycling through the eight `repro loop` scenarios in a seeded order.
pub fn closed_loop(c: &Campaign, seed: u64, seconds: f64, traced: bool, h: &mut Harness) {
    let stale = stale_seed(&c.db);
    let mut scenarios = loop_scenarios();
    Rng64::seed_from_u64(seed ^ 0x6c6f_6f70).shuffle(&mut scenarios);

    // Untimed pass over the episode list: the simulated cluster's
    // seconds per step, a pure function of the decisions made.
    if h.out.cluster_s_per_step.is_none() {
        h.tr.set_enabled(false);
        let mut cluster_s = 0.0;
        for (name, fault) in &scenarios {
            let ep = loop_episode(c, &stale, fault, &mut h.tr);
            cluster_s += ep.report.sim_time;
            if !loop_episode_ok(&stale, *name == "clean", &ep) {
                h.out.mismatch(format!(
                    "closed-loop untimed {name}: reference check failed"
                ));
            }
        }
        h.out.cluster_s_per_step = Some(cluster_s / (scenarios.len() as f64 * LOOP_STEPS as f64));
    }

    let mut phase = Phase::new(seconds);
    while phase.running(h) {
        let k = h.out.next;
        let (name, fault) = &scenarios[(k / 2) % scenarios.len()];
        let trace_this = traced && k % 2 == 1;
        h.tr.set_enabled(trace_this);
        let (ep, dt) = h.tr.op(|tr| loop_episode(c, &stale, fault, tr));
        phase.record(h, trace_this, dt, 1);
        if !phase.check(|| loop_episode_ok(&stale, *name == "clean", &ep)) {
            h.out.failed += 1;
            h.out.mismatch(format!(
                "closed-loop episode {k} ({name}): reference check failed"
            ));
        }
        h.out.next += 1;
    }
    h.tr.set_enabled(false);
    phase.finish(h);
}
