//! Backend golden test: `PolyLsqBackend`, behind `build_estimator`, must
//! fit the trimmed campaign below to the pinned coefficients and
//! estimates bit for bit.
//!
//! The golden file `tests/golden/backend_bank.txt` holds one record a
//! line, each `f64` as the 16 hex digits of its bit pattern:
//!
//! ```text
//! nt kind=K pes=P m=M ka=k0,k1,k2,k3 kc=k4,k5,k6
//! pt kind=K m=M ka=k7,k8 kc=k9,k10,k11 ref.ka=… ref.kc=…
//! composed_kinds=K,…
//! adjustment min_m1=M scale=a base_coeff=c
//! fast_kind=K
//! probe n=N uses=kind:pes:procs_per_pe,… raw=t adjusted=t
//! ```
//!
//! N-T and P-T models come in key order, each P-T model with its
//! reference N-T model; the probes are [`probe_points`] in order. Its
//! bits were first pinned from the monolithic `ModelBank::fit` the
//! backend replaced. Regenerate it (only when the *simulator*
//! legitimately changes, never to paper over a fitting regression) with:
//!
//! ```text
//! ETM_REGEN_GOLDEN=1 cargo test -p etm-core --test backend_golden
//! ```

use etm_cluster::spec::paper_cluster;
use etm_cluster::{CommLibProfile, Configuration, KindId};
use etm_core::measurement::SampleKey;
use etm_core::pipeline::{build_estimator, Estimator};
use etm_core::plan::{ConstructionPoint, EvalPoint, MeasurementPlan, PlanKind};

const NB: usize = 64;

/// A trimmed campaign: Athlon m ∈ 1..4 (so the §4.1 adjustment has two
/// reference multiplicities ≥ 3 and fits a real rule), P-II pes ∈
/// {1, 2, 4, 8} with matching m ∈ 1..4 (composition needs donors at the
/// same multiplicity).
fn mini_plan() -> MeasurementPlan {
    let ns = [400usize, 800, 1600, 2400, 3200];
    let mut construction = Vec::new();
    for &n in &ns {
        for m1 in 1..=4 {
            construction.push(ConstructionPoint {
                key: SampleKey::new(KindId(0), 1, m1),
                n,
            });
        }
        for &p2 in &[1usize, 2, 4, 8] {
            for m2 in 1..=4 {
                construction.push(ConstructionPoint {
                    key: SampleKey::new(KindId(1), p2, m2),
                    n,
                });
            }
        }
    }
    MeasurementPlan {
        kind: PlanKind::NL,
        construction,
        construction_ns: ns.to_vec(),
        evaluation: Vec::<EvalPoint>::new(),
        evaluation_ns: vec![],
    }
}

/// The configurations and sizes whose estimates the golden file pins.
fn probe_points() -> Vec<(Configuration, usize)> {
    let cfgs = [
        Configuration::p1m1_p2m2(1, 1, 0, 0),
        Configuration::p1m1_p2m2(0, 0, 4, 1),
        Configuration::p1m1_p2m2(0, 0, 8, 2),
        Configuration::p1m1_p2m2(1, 1, 8, 3),
        Configuration::p1m1_p2m2(1, 2, 4, 2),
        Configuration::p1m1_p2m2(1, 3, 8, 1),
        Configuration::p1m1_p2m2(1, 4, 8, 1),
    ];
    cfgs.iter()
        .flat_map(|c| [1600usize, 3200].map(|n| (c.clone(), n)))
        .collect()
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("backend_bank.txt")
}

/// The bit patterns of `xs`, comma-separated.
fn bits(xs: &[f64]) -> String {
    let hex: Vec<String> = xs.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
    hex.join(",")
}

/// `est` in the golden format (module docs), one record a line: the
/// bank, the adjustment, the fast kind, then each probe's estimates.
fn render(est: &Estimator) -> Vec<String> {
    let mut lines = Vec::new();
    for (key, model) in &est.bank.nt {
        lines.push(format!(
            "nt kind={} pes={} m={} ka={} kc={}",
            key.kind,
            key.pes,
            key.m,
            bits(&model.ka),
            bits(&model.kc)
        ));
    }
    for ((kind, m), model) in &est.bank.pt {
        lines.push(format!(
            "pt kind={kind} m={m} ka={} kc={} ref.ka={} ref.kc={}",
            bits(&model.ka),
            bits(&model.kc),
            bits(&model.reference.ka),
            bits(&model.reference.kc)
        ));
    }
    let kinds: Vec<String> = est
        .bank
        .composed_kinds
        .iter()
        .map(usize::to_string)
        .collect();
    lines.push(format!("composed_kinds={}", kinds.join(",")));
    let rule = &est.adjustment;
    lines.push(format!(
        "adjustment min_m1={} scale={} base_coeff={}",
        rule.min_m1,
        bits(&[rule.scale]),
        bits(&[rule.base_coeff])
    ));
    lines.push(format!("fast_kind={}", est.fast_kind));
    for (cfg, n) in probe_points() {
        let raw = est.estimate_raw(&cfg, n).expect("probe estimable");
        let adjusted = est.estimate(&cfg, n).expect("probe estimable");
        let uses: Vec<String> = cfg
            .uses
            .iter()
            .map(|u| format!("{}:{}:{}", u.kind.0, u.pes, u.procs_per_pe))
            .collect();
        lines.push(format!(
            "probe n={n} uses={} raw={} adjusted={}",
            uses.join(","),
            bits(&[raw]),
            bits(&[adjusted])
        ));
    }
    lines
}

/// Builds the estimator under test through the current pipeline entry
/// point (the engine's `PolyLsqBackend` path).
fn fit_current() -> Estimator {
    let spec = paper_cluster(CommLibProfile::mpich122());
    build_estimator(&spec, &mini_plan(), NB)
        .expect("pipeline fits")
        .0
}

#[test]
fn poly_lsq_backend_matches_seed_golden() {
    let got = render(&fit_current());
    if std::env::var("ETM_REGEN_GOLDEN").is_ok() {
        let path = golden_path();
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got.join("\n") + "\n").unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(golden_path()).expect("golden file exists");
    let want: Vec<&str> = text.lines().collect();
    // Record by record: every N-T and P-T coefficient (with each P-T
    // model's key and reference), the composed kinds, the §4.1 rule,
    // the fast kind, and each probe's size, configuration and raw and
    // adjusted estimates.
    for (i, (want, got)) in want.iter().zip(&got).enumerate() {
        assert_eq!(want, got, "golden record {}", i + 1);
    }
    let count = |lines: &[&str], tag: &str| lines.iter().filter(|l| l.starts_with(tag)).count();
    let got: Vec<&str> = got.iter().map(String::as_str).collect();
    for tag in ["nt ", "pt ", "probe "] {
        assert_eq!(count(&want, tag), count(&got, tag), "{tag}record count");
    }
    assert_eq!(want.len(), got.len(), "record count");
}
