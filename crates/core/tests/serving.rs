//! Bit-identity and sharing contracts of snapshot serving.
//!
//! Every `EngineSnapshot::estimate_batch` answer — value and error
//! alike — is bit-identical to the scalar `EngineSnapshot::estimate`
//! path on the same snapshot, across healthy, quarantined-with-fallback,
//! and untrusted snapshots, and a snapshot pinned by reader threads
//! keeps answering bit-identically while the engine's owning thread
//! publishes later generations.

use std::sync::Arc;

use etm_cluster::{Configuration, KindId, KindUse};
use etm_core::backend::PolyLsqBackend;
use etm_core::engine::{Engine, QUARANTINE_BUDGET};
use etm_core::pipeline::{AdjustmentPolicy, Estimator, ModelBank, RawParts};
use etm_core::{EngineSnapshot, MeasurementDb, NtModel, PtModel, Sample, SampleKey};
use etm_support::prop;
use etm_support::rng::Rng64;

mod walk;

const NS: [usize; 6] = [400, 800, 1600, 2400, 3200, 6400];

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

/// Two-kind database: fast kind 0 with multiplicities up to 6 (so the
/// §4.1 adjustment's reference groups exist), slow kind 1 across PE
/// counts.
fn synth_db() -> MeasurementDb {
    let mut db = MeasurementDb::new();
    for m in 1..=6usize {
        for n in NS {
            db.record(SampleKey { kind: 0, pes: 1, m }, synth_sample(0, 1, m, n));
        }
    }
    for pes in [1usize, 2, 4, 8] {
        for m in 1..=6usize {
            for n in NS {
                db.record(SampleKey { kind: 1, pes, m }, synth_sample(1, pes, m, n));
            }
        }
    }
    db
}

/// Single-kind database: a quarantined group here has no donor kind, so
/// it stays untrusted instead of getting a composed fallback.
fn single_kind_db() -> MeasurementDb {
    let mut db = MeasurementDb::new();
    for pes in [1usize, 2, 4] {
        for m in 1..=3usize {
            for n in NS {
                db.record(SampleKey { kind: 0, pes, m }, synth_sample(0, pes, m, n));
            }
        }
    }
    db
}

/// An adjustment policy whose gate (`M₁ ≥ 3`) is reachable by the
/// candidate configurations, so the §4.1 baseline fold is exercised.
fn adjustment_policy() -> AdjustmentPolicy {
    AdjustmentPolicy {
        min_m1: 3,
        ref_n: 3200,
        ref_p2: 4,
        fast_kind: 0,
        walls: vec![(3, 5.0), (4, 5.2), (5, 5.6), (6, 6.3)],
    }
}

/// A candidate mix covering every serving branch: single-PE (N-T),
/// multi-PE (P-T), adjustment-gated (`M₁ ≥ 3`), missing models, and the
/// empty configuration.
fn candidates() -> Vec<(Configuration, usize)> {
    let mut out = Vec::new();
    for m1 in 0..=7usize {
        for p2 in [0usize, 1, 2, 4, 8] {
            for m2 in 0..=3usize {
                let cfg = Configuration::p1m1_p2m2(usize::from(m1 > 0), m1, p2, m2);
                for n in [400usize, 1600, 6400, 9999] {
                    out.push((cfg.clone(), n));
                }
            }
        }
    }
    // A kind the bank has never seen.
    out.push((
        Configuration {
            uses: vec![KindUse {
                kind: KindId(7),
                pes: 2,
                procs_per_pe: 1,
            }],
        },
        1600,
    ));
    out
}

/// Asserts `estimate_batch` over `requests` is element-wise
/// bit-identical (values) and equal (errors) to the scalar loop.
fn assert_batch_matches_scalar(
    snapshot: &Arc<EngineSnapshot>,
    requests: &[(Configuration, usize)],
) {
    let batched = snapshot.estimate_batch(requests);
    assert_eq!(batched.len(), requests.len());
    for (i, (config, n)) in requests.iter().enumerate() {
        let scalar = snapshot.estimate(config, *n);
        match (&batched[i], &scalar) {
            (Ok(b), Ok(s)) => assert_eq!(
                b.to_bits(),
                s.to_bits(),
                "request {i}: batched {b} != scalar {s}"
            ),
            (Err(b), Err(s)) => assert_eq!(b, s, "request {i}: error mismatch"),
            (b, s) => panic!("request {i}: batched {b:?} vs scalar {s:?}"),
        }
    }
}

#[test]
fn batch_is_bit_identical_on_healthy_snapshots() {
    // Unadjusted and adjusted engines: the latter exercises the
    // §4.1 baseline path.
    let plain =
        Engine::new(Box::new(PolyLsqBackend::paper()), synth_db(), None).expect("synth db fits");
    let adjusted = Engine::new(
        Box::new(PolyLsqBackend::paper()),
        synth_db(),
        Some(adjustment_policy()),
    )
    .expect("synth db fits with adjustment");
    assert!(adjusted.snapshot().adjustment().min_m1 == 3);
    prop::check(16, 0x5e21_0001, |rng| {
        let mut requests = candidates();
        rng.shuffle(&mut requests);
        let take = rng.range_inclusive(1, requests.len());
        requests.truncate(take);
        assert_batch_matches_scalar(&plain.snapshot(), &requests);
        assert_batch_matches_scalar(&adjusted.snapshot(), &requests);
    });
}

/// Poisons one more distinct `(key, N)` slot of one group than the
/// quarantine budget allows.
fn quarantine_group(engine: &Engine, key: SampleKey) {
    for (i, &n) in NS.iter().enumerate().take(QUARANTINE_BUDGET + 1) {
        let mut bad = synth_sample(key.kind, key.pes, key.m, n);
        if i % 2 == 0 {
            bad.wall = f64::NAN;
        } else {
            bad.tc = f64::INFINITY;
        }
        engine
            .ingest(&[(key, bad)])
            .expect("rejection is not an error");
    }
}

#[test]
fn batch_is_bit_identical_on_fallback_and_untrusted_snapshots() {
    // Two-kind engine: the poisoned slow-kind group gets a §3.5
    // composed fallback from the healthy fast kind.
    let with_donor =
        Engine::new(Box::new(PolyLsqBackend::paper()), synth_db(), None).expect("synth db fits");
    quarantine_group(
        &with_donor,
        SampleKey {
            kind: 0,
            pes: 1,
            m: 2,
        },
    );
    let fallback_snap = with_donor.snapshot();
    assert!(
        fallback_snap.health().is_fallback((0, 2)),
        "expected a composed fallback, health: {:?}",
        fallback_snap.health()
    );

    // Single-kind engine: no donor exists, so the group stays
    // quarantined without a fallback — untrusted.
    let no_donor = Engine::new(Box::new(PolyLsqBackend::paper()), single_kind_db(), None)
        .expect("single-kind db fits");
    quarantine_group(
        &no_donor,
        SampleKey {
            kind: 0,
            pes: 2,
            m: 2,
        },
    );
    let untrusted_snap = no_donor.snapshot();
    assert!(
        untrusted_snap.health().is_untrusted((0, 2)),
        "expected an untrusted group, health: {:?}",
        untrusted_snap.health()
    );

    // The per-configuration health checks agree with the group ledger,
    // and the estimates stay bit-identical on both degraded snapshots.
    let probe = Configuration::p1m1_p2m2(1, 2, 4, 1);
    assert!(fallback_snap.health().any_fallback(&probe));
    assert_eq!(fallback_snap.health().first_untrusted(&probe), None);
    let single_probe = Configuration {
        uses: vec![KindUse {
            kind: KindId(0),
            pes: 2,
            procs_per_pe: 2,
        }],
    };
    assert_eq!(
        untrusted_snap.health().first_untrusted(&single_probe),
        Some((0, 2))
    );

    prop::check(16, 0x5e21_0002, |rng| {
        let mut requests = candidates();
        rng.shuffle(&mut requests);
        assert_batch_matches_scalar(&fallback_snap, &requests);
        assert_batch_matches_scalar(&untrusted_snap, &requests);
    });
}

#[test]
fn pinned_snapshot_survives_refits_and_concurrent_readers() {
    let engine =
        Engine::new(Box::new(PolyLsqBackend::paper()), synth_db(), None).expect("synth db fits");
    let pinned = engine.snapshot();
    let configs: Vec<Configuration> = (1..=6usize)
        .flat_map(|m1| {
            [0usize, 2, 4, 8]
                .into_iter()
                .map(move |p2| Configuration::p1m1_p2m2(1, m1, p2, 1))
        })
        .collect();
    let ns = vec![800usize, 1600, 3200];
    // The scalar truth on the pinned snapshot, captured before any
    // concurrent traffic.
    let expected: Vec<Vec<Result<f64, _>>> = configs
        .iter()
        .map(|c| ns.iter().map(|&n| pinned.estimate(c, n)).collect())
        .collect();
    std::thread::scope(|scope| {
        // Four readers hammer the pinned snapshot in shuffled cell orders.
        for reader in 0..4u64 {
            let pinned = Arc::clone(&pinned);
            let (configs, ns, expected) = (&configs, &ns, &expected);
            scope.spawn(move || {
                let mut rng = Rng64::seed_from_u64(0xbeef ^ reader);
                let mut cells: Vec<(usize, usize)> = (0..configs.len())
                    .flat_map(|ci| (0..3usize).map(move |ni| (ci, ni)))
                    .collect();
                for _ in 0..50 {
                    rng.shuffle(&mut cells);
                    for &(ci, ni) in &cells {
                        let got = pinned.estimate(&configs[ci], ns[ni]);
                        match (&got, &expected[ci][ni]) {
                            (Ok(g), Ok(e)) => assert_eq!(g.to_bits(), e.to_bits()),
                            (Err(g), Err(e)) => assert_eq!(g, e),
                            (g, e) => panic!("cell ({ci},{ni}): {g:?} vs {e:?}"),
                        }
                    }
                }
            });
        }
        // Meanwhile the thread that owns the engine publishes later
        // generations: perturbed samples force refits while readers hold
        // the pinned snapshot.
        for round in 0..10usize {
            let mut s = synth_sample(1, 2, 1, 1600);
            s.ta *= 1.0 + 0.01 * (round + 1) as f64;
            engine
                .ingest(&[(
                    SampleKey {
                        kind: 1,
                        pes: 2,
                        m: 1,
                    },
                    s,
                )])
                .expect("clean ingest");
        }
    });

    // The engine moved on; the pinned snapshot stayed at generation 0
    // and still answers with its own bits.
    assert!(engine.snapshot().generation() > 0);
    assert_eq!(pinned.generation(), 0);
    for (config, row) in configs.iter().zip(&expected) {
        for (&n, e) in ns.iter().zip(row) {
            match (pinned.estimate(config, n), e) {
                (Ok(g), Ok(e)) => assert_eq!(g.to_bits(), e.to_bits()),
                (Err(g), Err(e)) => assert_eq!(&g, e),
                (g, e) => panic!("{config:?} at {n}: {g:?} vs {e:?}"),
            }
        }
    }
}

/// Asserts that `estimate_raw` and `estimate_raw_parts` equal the bank
/// walk at every `(config, n)`: totals and splits bit for bit, errors
/// exactly.
fn assert_raw_matches_walk(estimator: &Estimator, cases: &[(Configuration, usize)]) {
    for (config, n) in cases {
        let want = walk::raw_walk(&estimator.bank, config, *n);
        let raw = estimator.estimate_raw(config, *n);
        let parts = estimator.estimate_raw_parts(config, *n);
        match (&want, raw, parts) {
            (Ok(w), Ok(t), Ok(p)) => {
                let bits = |p: &RawParts| [p.total, p.ta, p.tc].map(f64::to_bits);
                assert_eq!(t.to_bits(), w.total.to_bits(), "{config:?} at {n}");
                assert_eq!(bits(&p), bits(w), "{config:?} at {n}: split");
            }
            (Err(w), Err(a), Err(b)) => {
                assert_eq!(&a, w, "{config:?} at {n}");
                assert_eq!(&b, w, "{config:?} at {n}");
            }
            (w, a, b) => panic!("{config:?} at {n}: walk {w:?} vs raw {a:?}, parts {b:?}"),
        }
    }
}

/// `estimate_raw_parts` returns the makespan kind's `Ta`/`Tc` split with
/// a total bit-identical to `estimate_raw`. Both are the estimate fold
/// under the identity rule, so the bank walk they replaced checks them
/// on the fitted synthetic bank: single-PE and multi-PE, estimable or
/// not.
#[test]
fn raw_parts_split_is_bit_identical_to_the_raw_estimate() {
    let engine =
        Engine::new(Box::new(PolyLsqBackend::paper()), synth_db(), None).expect("synth db fits");
    assert_raw_matches_walk(engine.snapshot().estimator(), &candidates());
}

/// Two kinds whose P-T totals tie exactly at every `P` but split
/// differently (`a + c` against `c + a`): the makespan term is the first
/// use in use order, so the split follows the configuration's order.
#[test]
fn tied_makespan_terms_resolve_to_the_first_use() {
    let (a, c) = (3.0, 0.25);
    let model = |ta: f64, tc: f64| PtModel {
        ka: [0.0, ta],
        kc: [0.0, 0.0, tc],
        reference: NtModel {
            ka: [0.0; 4],
            kc: [0.0; 3],
        },
    };
    let mut bank = ModelBank::default();
    bank.pt.insert((0, 1), model(a, c));
    bank.pt.insert((1, 1), model(c, a));
    let estimator = Estimator::unadjusted(bank);
    let forward = Configuration::p1m1_p2m2(1, 1, 2, 1);
    let mut reversed = forward.clone();
    reversed.uses.reverse();
    let cases = [(forward.clone(), 1600), (reversed.clone(), 1600)];
    assert_raw_matches_walk(&estimator, &cases);
    for (config, split) in [(forward, (a, c)), (reversed, (c, a))] {
        let parts = estimator.estimate_raw_parts(&config, 1600).expect("tied");
        assert_eq!((parts.ta, parts.tc), split, "{config:?}");
    }
}

/// The monotone-in-P certificate is honest: within every certified
/// region the P-T total is non-increasing in P (checked against
/// `PtModel::total` itself), and the synthetic database's communication
/// growth keeps at least one model's region bounded.
#[test]
fn monotone_certificate_regions_are_honest() {
    let engine =
        Engine::new(Box::new(PolyLsqBackend::paper()), synth_db(), None).expect("synth db fits");
    let snapshot = engine.snapshot();

    let mut certified = 0usize;
    let mut bounded_regions = 0usize;
    for (&(kind, m), pt) in &snapshot.bank().pt {
        for n in [400usize, 1600, 6400] {
            let Some(limit) = pt.monotone_p_limit(n) else {
                continue;
            };
            certified += 1;
            assert!(limit >= 0.0 && !limit.is_nan());
            if limit.is_finite() {
                bounded_regions += 1;
            }
            let hi = if limit.is_finite() {
                (limit.floor() as usize).min(54)
            } else {
                54
            };
            let mut prev = f64::INFINITY;
            for p in 1..=hi {
                let t = pt.total(n, p);
                assert!(
                    t <= prev * (1.0 + 1e-12) + 1e-12,
                    "kind {kind} m {m} n {n}: t({p}) = {t} rose above t({}) = {prev} \
                     inside the certified region [1, {limit}]",
                    p - 1
                );
                prev = t;
            }
        }
    }
    assert!(
        certified > 0,
        "the synthetic models must certify at least one region"
    );
    assert!(
        bounded_regions > 0,
        "communication growth must bound at least one certified region"
    );
}
