//! Integration tests for the etm-support substrate: PRNG determinism
//! across runs.

use etm_support::rng::Rng64;

/// The PRNG must produce the same stream on every run and platform:
/// these are the first outputs of seed 42, frozen at the time the
/// generator was written. If this test fails, persisted seeds across
/// the workspace (HPL matrices, measurement campaigns, property cases)
/// silently change meaning.
#[test]
fn prng_stream_is_frozen_across_runs() {
    let mut rng = Rng64::seed_from_u64(42);
    let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        got,
        vec![
            12618900322348487378,
            13639555000553200875,
            10127226059668577270,
            6068671050346012240,
        ]
    );
}

#[test]
fn prng_same_seed_same_f64_stream() {
    let mut a = Rng64::seed_from_u64(7);
    let mut b = Rng64::seed_from_u64(7);
    for _ in 0..1000 {
        assert_eq!(a.next_f64().to_bits(), b.next_f64().to_bits());
    }
}
