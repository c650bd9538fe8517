//! Fixture tests: every pass must fire on its seeded-violation fixture
//! and stay silent on the clean fixture. The fixtures under
//! `tests/fixtures/` are loaded as data, never compiled.

use etm_analyze::passes::{blocking, lock_order, panic_boundary, policy, snapshot, Context, Pass};
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

const LOCK_ORDER_FIX: &str = include_str!("fixtures/lock_order.rs");
const BLOCKING_FIX: &str = include_str!("fixtures/blocking.rs");
const SNAPSHOT_FIX: &str = include_str!("fixtures/snapshot.rs");
const PANIC_FIX: &str = include_str!("fixtures/panic_boundary.rs");
const POLICY_FIX: &str = include_str!("fixtures/policy.rs");
const CLEAN_FIX: &str = include_str!("fixtures/clean.rs");

#[test]
fn c001_fires_on_lock_order_fixture() {
    let got = run_one(
        &lock_order::LockOrderPass,
        "crates/demo/src/lib.rs",
        LOCK_ORDER_FIX,
    );
    assert!(
        got.iter().any(|m| m.contains("cycle")),
        "expected an order cycle: {got:?}"
    );
    assert!(
        got.iter().any(|m| m.contains("re-acquired")),
        "expected a re-entrant acquisition: {got:?}"
    );
    assert!(
        got.iter().any(|m| m.contains("tick")),
        "expected the indirect self-deadlock through tick(): {got:?}"
    );
}

#[test]
fn c002_fires_on_blocking_fixture() {
    let got = run_one(
        &blocking::BlockingPass,
        "crates/demo/src/lib.rs",
        BLOCKING_FIX,
    );
    for op in ["recv", "send", "join", "par_map"] {
        assert!(
            got.iter().any(|m| m.contains(&format!("`{op}()`"))),
            "expected a finding for {op}: {got:?}"
        );
    }
}

#[test]
fn c003_fires_on_snapshot_fixture() {
    let got = run_one(
        &snapshot::SnapshotPass,
        "crates/demo/src/lib.rs",
        SNAPSHOT_FIX,
    );
    assert!(
        got.iter().any(|m| m.contains("AtomicU64")),
        "expected transitive interior mutability: {got:?}"
    );
    assert!(
        got.iter()
            .any(|m| m.contains("ServingTables") && m.contains("AtomicUsize")),
        "expected interior mutability inside the serving tables: {got:?}"
    );
    assert!(
        got.iter()
            .any(|m| m.contains("BoundCache") && m.contains("AtomicU32")),
        "expected interior mutability inside the bound cache: {got:?}"
    );
    assert!(
        got.iter().any(|m| m.contains("&mut self")),
        "expected the mutating method: {got:?}"
    );
    assert!(
        got.iter().any(|m| m.contains("&mut EngineSnapshot")),
        "expected the mutable borrow: {got:?}"
    );
    assert!(
        got.iter().any(|m| m.contains("make_mut")),
        "expected the Arc::make_mut hit: {got:?}"
    );
}

#[test]
fn c004_fires_on_panic_boundary_fixture() {
    let got = run_one(
        &panic_boundary::PanicBoundaryPass,
        "crates/demo/src/lib.rs",
        PANIC_FIX,
    );
    assert!(
        got.iter().any(|m| m.contains("fire_and_forget")),
        "expected the unsupervised spawn: {got:?}"
    );
    assert!(
        got.iter().any(|m| m.contains("named_fire_and_forget")),
        "expected the builder spawn: {got:?}"
    );
    assert!(
        got.iter().any(|m| m.contains("`panic!`")),
        "expected the consumer-loop panic: {got:?}"
    );
    assert!(
        got.iter().any(|m| m.contains("`unreachable!`")),
        "expected the consumer-loop unreachable: {got:?}"
    );
}

#[test]
fn policy_rules_fire_on_policy_fixture() {
    // Loaded as a numerics-crate lib root: P001, P003, P004, P005 fire.
    let baseline = Baseline::default();
    let mut ctx = Context::new(&baseline);
    let w = ws("crates/core/src/lib.rs", POLICY_FIX);
    for pass in etm_analyze::policy_passes() {
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
    // A C004 entry suppresses the spawn findings in the fixture…
    let baseline =
        Baseline::parse("C004 crates/demo/src/lib.rs fixture threads are joined by the harness\n")
            .expect("parses");
    let mut ctx = Context::new(&baseline);
    panic_boundary::PanicBoundaryPass.run(&ws("crates/demo/src/lib.rs", PANIC_FIX), &mut ctx);
    assert!(
        ctx.diagnostics.iter().all(|d| d.rule.id != "C004"),
        "{:?}",
        ctx.diagnostics
    );
    assert!(!ctx.suppressed.is_empty());
    assert!(baseline.stale().is_empty());

    // …and the same entry against the clean fixture is stale, which
    // fails the gate (deleting findings must force deleting entries).
    let baseline =
        Baseline::parse("C004 crates/demo/src/a.rs fixture threads are joined by the harness\n")
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
