//! Integration tests for the etm-support substrate: PRNG determinism
//! across runs and JSON round-trips through the macro-generated impls.

use etm_support::json::{self, FromJson, Json, ToJson};
use etm_support::rng::Rng64;
use etm_support::{json_enum, json_struct};

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

#[derive(Clone, Debug, PartialEq)]
struct Report {
    title: String,
    kind: ReportKind,
    coefficients: Vec<[f64; 3]>,
    condition: Option<f64>,
    rows: Vec<(usize, f64)>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum ReportKind {
    Fitted,
    Composed,
}

json_struct!(Report {
    title,
    kind,
    coefficients,
    condition,
    rows
});
json_enum!(ReportKind { Fitted, Composed });

#[test]
fn report_like_struct_roundtrips_compact_and_pretty() {
    let r = Report {
        title: "N-T models (3) \"quoted\"\nline2".to_string(),
        kind: ReportKind::Composed,
        coefficients: vec![
            [1e-9, -2.5e-4, 0.1],
            [f64::MIN_POSITIVE, 1.0 / 3.0, 6.02e23],
        ],
        condition: None,
        rows: vec![(400, 1.25), (6400, 981.5)],
    };
    for text in [json::to_string(&r), json::to_string_pretty(&r)] {
        let back: Report = json::from_str(&text).expect("parse back");
        assert_eq!(back, r);
    }
}

#[test]
fn json_tree_survives_reparse() {
    let tree = Json::Obj(vec![
        (
            "entries".to_string(),
            Json::Arr(vec![Json::Num(1.5), Json::Null]),
        ),
        ("name".to_string(), Json::Str("αβ\u{1F980}".to_string())),
    ]);
    let text = json::to_string(&tree);
    assert_eq!(json::parse(&text).expect("reparse"), tree);
}

#[test]
fn missing_field_is_reported_by_name() {
    let err = json::from_str::<Report>("{\"title\": \"x\"}").unwrap_err();
    assert!(err.message.contains("kind"), "{err}");
}

/// `FromJson` consumers see numbers written by `ToJson` bit-exactly.
#[test]
fn f64_round_trip_is_bit_exact_over_random_values() {
    let mut rng = Rng64::seed_from_u64(2024);
    for _ in 0..2000 {
        let x = f64::from_bits(rng.next_u64());
        if !x.is_finite() {
            continue;
        }
        let text = json::to_string(&x);
        let back: f64 = json::from_str(&text).expect("parse");
        assert_eq!(back.to_bits(), x.to_bits(), "{text}");
    }
}

/// ToJson/FromJson are usable through trait objects/bounds the way the
/// workspace crates use them.
#[test]
fn trait_bounds_compose() {
    fn roundtrip<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(v: T) {
        let back: T = json::from_str(&json::to_string(&v)).expect("parse");
        assert_eq!(back, v);
    }
    roundtrip(vec![(1usize, vec![0.5f64]), (2, vec![])]);
    roundtrip(Some(false));
    roundtrip([[1.0f64; 2]; 3]);
}
