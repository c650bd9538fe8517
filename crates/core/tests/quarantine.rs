//! Property tests for the quarantine ladder's accounting, on the
//! deterministic `etm_support::prop` harness.
//!
//! The two contracts a streaming transport leans on:
//!
//! * **At-least-once delivery is safe**: re-delivering one bad sample
//!   any number of times counts as *one* distinct bad slot — a group is
//!   quarantined only when the number of distinct bad `(key, N)` slots
//!   exceeds the budget, never because a duplicate flood repeated one.
//! * **Re-admission is immediate and complete**: one admitted sample
//!   for a quarantined group clears its bad ledger, and the group then
//!   has its whole budget again.
//!
//! A last test audits the degraded snapshot a quarantine publishes with
//! [`etm_core::validate::audit_degraded`].

use etm_core::backend::PolyLsqBackend;
use etm_core::engine::{Engine, QUARANTINE_BUDGET};
use etm_core::validate::{self, Severity};
use etm_core::{MeasurementDb, Sample, SampleKey};
use etm_support::prop;
use etm_support::rng::Rng64;

const NS: [usize; 5] = [400, 800, 1600, 2400, 3200];
const PES: [usize; 3] = [1, 2, 4];

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

/// Both kinds fully measured, so every group is fittable and any group
/// can be poisoned without disturbing the others.
fn synth_db() -> MeasurementDb {
    let mut db = MeasurementDb::new();
    for kind in 0..2usize {
        for pes in PES {
            for m in 1..=2usize {
                for n in NS {
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

/// A sample the engine must reject, poisoned a randomly chosen way.
fn poisoned(rng: &mut Rng64, kind: usize, pes: usize, m: usize, n: usize) -> Sample {
    let mut s = synth_sample(kind, pes, m, n);
    match rng.range_usize(4) {
        0 => s.wall = f64::NAN,
        1 => s.tc = f64::INFINITY,
        2 => s.ta = -1.0,
        _ => s.wall = 2e6, // finite but past the largest plausible time
    }
    s
}

#[test]
fn duplicate_bad_delivery_never_double_counts() {
    prop::check(32, 0xe7a_0001, |rng| {
        let budget = QUARANTINE_BUDGET;
        let e = engine();
        let kind = rng.range_usize(2);
        let m = rng.range_inclusive(1, 2);
        let pes = PES[rng.range_usize(PES.len())];
        let key = SampleKey { kind, pes, m };
        let mut ns: Vec<usize> = NS.to_vec();
        rng.shuffle(&mut ns);
        // Deliver budget+1 distinct bad slots, each repeated a random
        // number of times. If duplicates were double-counted, the group
        // would quarantine before the (budget+1)-th *distinct* slot.
        for (i, &n) in ns.iter().take(budget + 1).enumerate() {
            let bad = poisoned(rng, kind, pes, m, n);
            for _ in 0..rng.range_inclusive(1, 4) {
                e.ingest(&[(key, bad)]).expect("rejection is not an error");
            }
            if i < budget {
                assert!(
                    e.quarantined().is_empty(),
                    "{} distinct bad slot(s) within budget {budget} must not quarantine",
                    i + 1
                );
            } else {
                assert_eq!(
                    e.quarantined(),
                    vec![(kind, m)],
                    "budget {budget} exceeded by slot {}",
                    i + 1
                );
            }
        }
    });
}

#[test]
fn quarantined_group_readmits_after_a_clean_ingest() {
    prop::check(32, 0xe7a_0002, |rng| {
        let budget = QUARANTINE_BUDGET;
        let e = engine();
        let kind = rng.range_usize(2);
        let m = rng.range_inclusive(1, 2);
        let pes = PES[rng.range_usize(PES.len())];
        let key = SampleKey { kind, pes, m };
        let mut ns: Vec<usize> = NS.to_vec();
        rng.shuffle(&mut ns);
        for &n in ns.iter().take(budget + 1) {
            let bad = poisoned(rng, kind, pes, m, n);
            e.ingest(&[(key, bad)]).expect("rejection is not an error");
        }
        assert_eq!(e.quarantined(), vec![(kind, m)]);
        // One admitted sample clears the whole ledger...
        let mut clean = synth_sample(kind, pes, m, ns[0]);
        clean.ta *= rng.range_f64(0.8, 1.2);
        let snap = e.ingest(&[(key, clean)]).expect("clean ingest refits");
        assert!(e.quarantined().is_empty(), "clean data re-admits");
        assert!(snap.health().quarantined.is_empty());
        // ...and the budget starts from zero again: the same number of
        // distinct bad slots is needed to re-quarantine.
        for (i, &n) in ns.iter().take(budget + 1).enumerate() {
            let bad = poisoned(rng, kind, pes, m, n);
            e.ingest(&[(key, bad)]).expect("rejection is not an error");
            if i < budget {
                assert!(
                    e.quarantined().is_empty(),
                    "re-admission must restore the full budget {budget}"
                );
            } else {
                assert_eq!(e.quarantined(), vec![(kind, m)]);
            }
        }
    });
}

/// Poisons one group past its quarantine budget and audits the degraded
/// snapshot: the health metadata must be self-consistent, and the
/// composed fallback (the other kind is the healthy donor) must still
/// be a finite, non-negative model.
#[test]
fn quarantined_group_serves_an_audited_composed_fallback() {
    const TARGET: (usize, usize) = (1, 1);
    let e = engine();
    let key = SampleKey {
        kind: TARGET.0,
        pes: 1,
        m: TARGET.1,
    };
    let mut snap = e.snapshot();
    // Three distinct bad (key, N) slots exceed the budget of two.
    for n in [400, 800, 1600] {
        let mut bad = synth_sample(TARGET.0, 1, TARGET.1, n);
        bad.wall = f64::NAN;
        snap = e.ingest(&[(key, bad)]).expect("rejection is not an error");
    }
    let health = snap.health();
    assert_eq!(health.quarantined, vec![TARGET]);
    assert_eq!(health.composed_fallback, vec![TARGET]);
    let findings = validate::audit_degraded(snap.bank(), health);
    for f in &findings {
        println!("{f}");
    }
    assert!(
        findings.iter().all(|f| f.severity == Severity::Warning),
        "degraded-health violations: {findings:#?}"
    );
}
