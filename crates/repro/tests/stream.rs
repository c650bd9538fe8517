//! The streaming tentpole's acceptance criteria, at full campaign
//! scale: streaming the complete Basic campaign through
//! `Engine::ingest_batch` — batched, shuffled, with duplicates — must
//! yield a final bank bit-identical to the one-shot fit, and the online
//! optimizer's final recommendation must match the offline §4 optimum.

use etm_core::plan::MeasurementPlan;
use etm_core::stream::StreamConfig;
use etm_repro::stream::stream_experiment;

#[test]
fn streamed_basic_campaign_matches_one_shot_fit_and_offline_optimum() {
    let plan = MeasurementPlan::basic();
    // Adversarial delivery: shuffled, every 5th trial re-delivered,
    // every 6th delivered late, in small batches.
    let cfg = StreamConfig {
        batch_size: 24,
        shuffle_seed: Some(77),
        duplicate_every: 5,
        defer_every: 6,
        ..StreamConfig::default()
    };
    let run = stream_experiment(&plan, cfg, 0.0, 6400);
    assert!(
        run.converged,
        "streamed bank must be bit-identical to the one-shot fit"
    );
    assert!(
        run.report.batches > 1,
        "campaign must arrive in many batches"
    );
    assert_eq!(
        run.recommended, run.offline.config,
        "online recommendation must equal the offline section-4 optimum"
    );
    // With zero hysteresis the last decision *is* the offline search on
    // a bank bit-identical to the offline engine's: same time, bit for
    // bit.
    let last = run.decisions.last().expect("decisions were logged");
    assert_eq!(last.recommended, run.offline.config);
    assert_eq!(last.recommended_time.to_bits(), run.offline.time.to_bits());
    // The decision log tracks strictly increasing generations.
    let gens: Vec<u64> = run.decisions.iter().map(|d| d.generation).collect();
    assert!(gens.windows(2).all(|w| w[0] < w[1]), "{gens:?}");
}

#[test]
fn batch_shape_does_not_change_the_final_model_or_recommendation() {
    let plan = MeasurementPlan::basic();
    let coarse = stream_experiment(
        &plan,
        StreamConfig {
            batch_size: 486, // the whole campaign in one batch
            ..StreamConfig::default()
        },
        0.0,
        6400,
    );
    let fine = stream_experiment(
        &plan,
        StreamConfig {
            batch_size: 16,
            shuffle_seed: Some(2026),
            duplicate_every: 3,
            ..StreamConfig::default()
        },
        0.0,
        6400,
    );
    assert!(coarse.converged && fine.converged);
    assert_eq!(coarse.recommended, fine.recommended);
    assert_eq!(
        coarse.offline.config, fine.offline.config,
        "offline optimum is a property of the campaign, not the stream"
    );
}
