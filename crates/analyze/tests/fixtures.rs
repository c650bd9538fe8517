//! Fixture tests: every pass must fire on the seeded-violation fixture
//! and stay silent on the clean fixture. The fixtures under
//! `tests/fixtures/` are loaded as data, never compiled.

use etm_analyze::passes::{policy, Context, Pass};
use etm_analyze::{all_passes, run_passes, Baseline, Workspace};

fn ws(path: &str, src: &str) -> Workspace {
    Workspace::from_sources(vec![(path.to_string(), src.to_string())])
}

fn run_one(pass: &dyn Pass, path: &str, src: &str) -> Vec<String> {
    let baseline = Baseline::default();
    let mut ctx = Context::new(&baseline);
    pass.run(&ws(path, src), &mut ctx);
    ctx.diagnostics.iter().map(|d| d.to_string()).collect()
}

const POLICY_FIX: &str = include_str!("fixtures/policy.rs");
const CLEAN_FIX: &str = include_str!("fixtures/clean.rs");

#[test]
fn policy_rules_fire_on_policy_fixture() {
    // Loaded as a numerics-crate lib root: P001, P003, P004, P005 fire.
    let baseline = Baseline::default();
    let mut ctx = Context::new(&baseline);
    let w = ws("crates/core/src/lib.rs", POLICY_FIX);
    for pass in all_passes() {
        pass.run(&w, &mut ctx);
    }
    let ids: Vec<&str> = ctx.diagnostics.iter().map(|d| d.rule.id).collect();
    for id in ["P001", "P003", "P004", "P005"] {
        assert!(ids.contains(&id), "expected {id} in {ids:?}");
    }
    // P002 only under a binary root.
    let got = run_one(
        &policy::BinExpectPass,
        "crates/core/src/bin/tool.rs",
        POLICY_FIX,
    );
    assert_eq!(got.len(), 1, "{got:?}");
    let got = run_one(&policy::BinExpectPass, "crates/core/src/lib.rs", POLICY_FIX);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn all_passes_stay_silent_on_clean_fixture() {
    let baseline = Baseline::default();
    let report = run_passes(
        &ws("crates/demo/src/a.rs", CLEAN_FIX),
        &baseline,
        &all_passes(),
    );
    assert!(
        report.diagnostics.is_empty(),
        "clean fixture produced: {}",
        report.render_human()
    );
}

#[test]
fn baseline_suppresses_and_goes_stale() {
    // A P003 entry suppresses the placeholder finding in the fixture…
    let baseline =
        Baseline::parse("P003 crates/demo/src/lib.rs fixture placeholder is deliberate\n")
            .expect("parses");
    let mut ctx = Context::new(&baseline);
    policy::PlaceholderPass.run(&ws("crates/demo/src/lib.rs", POLICY_FIX), &mut ctx);
    assert!(
        ctx.diagnostics.iter().all(|d| d.rule.id != "P003"),
        "{:?}",
        ctx.diagnostics
    );
    assert!(!ctx.suppressed.is_empty());
    assert!(baseline.stale().is_empty());

    // …and the same entry against the clean fixture is stale, which
    // fails the gate (deleting findings must force deleting entries).
    let baseline = Baseline::parse("P003 crates/demo/src/a.rs fixture placeholder is deliberate\n")
        .expect("parses");
    let report = run_passes(
        &ws("crates/demo/src/a.rs", CLEAN_FIX),
        &baseline,
        &all_passes(),
    );
    assert!(report.diagnostics.is_empty(), "{}", report.render_human());
    assert_eq!(report.stale.len(), 1, "{:?}", report.stale);
    assert!(!report.is_clean(), "stale entries must fail the gate");
}
