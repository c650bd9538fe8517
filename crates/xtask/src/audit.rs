//! Pass 4: model-validity audit.
//!
//! Builds a measurement database by running the simulated Basic
//! campaign (Table 2) on the paper's two-kind cluster, fits a full
//! model bank with the paper's `poly_lsq` backend, and runs every
//! check registered in [`etm_core::validate`] over the bank. The Basic
//! plan is the only one whose construction sizes span the audit's whole
//! [400, 6400] sweep — the reduced NL/NS plans fit on a sub-range, and
//! a cubic extrapolated outside its fitting range legitimately goes
//! negative. Violations fail the gate; warnings are printed but pass.
//!
//! Every run measures the campaign afresh ([`run_construction`], fanned
//! out over the machine's cores) and fits the bank from it, so the gate
//! always judges what the current simulator and fitter compute.
//!
//! A final **degraded-health** stage drives a live [`Engine`] into
//! quarantine on a synthetic fully-measured two-kind database and runs
//! [`etm_core::validate::audit_degraded`] over the published snapshot:
//! the health metadata must be self-consistent and the composed
//! fallback's coefficients must still pass the finite / non-negative
//! checks. (The paper cluster itself has a single measured kind, so its
//! quarantines never earn a donor — the synthetic database is what lets
//! the gate exercise the fallback rung at all.)

use std::path::Path;
use std::time::Instant;

use etm_cluster::spec::paper_cluster;
use etm_cluster::CommLibProfile;
use etm_core::backend::{ModelBackend, PolyLsqBackend};
use etm_core::engine::{Engine, QuarantinePolicy};
use etm_core::pipeline::run_construction;
use etm_core::plan::MeasurementPlan;
use etm_core::validate::{self, Severity};
use etm_core::{MeasurementDb, Sample, SampleKey};

/// HPL block size the audit campaign uses (the repro's NB).
const NB: usize = 64;

/// Runs the pass. Returns one message per violated invariant.
pub fn run(_root: &Path) -> Result<Vec<String>, String> {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let plan = MeasurementPlan::basic();
    let backend = PolyLsqBackend::paper();
    let name = backend.name();

    let mut violations = Vec::new();
    let t0 = Instant::now();
    let db = run_construction(&spec, &plan, NB);
    let bank = backend
        .fit(&db)
        .map_err(|e| format!("{name} bank fit failed: {e}"))?;
    println!(
        "    [{name}] campaign + fit took {:.2} s",
        t0.elapsed().as_secs_f64()
    );
    println!(
        "    [{name}] bank: {} N-T model(s), {} P-T model(s), {} composed kind(s)",
        bank.nt.len(),
        bank.pt.len(),
        bank.composed_kinds.len()
    );

    for check in validate::registry() {
        let findings = check.run(&bank);
        println!(
            "    [{name}] {:<28} {:<48} {}",
            check.name,
            check.what,
            if findings.is_empty() {
                "ok".to_string()
            } else {
                format!("{} finding(s)", findings.len())
            }
        );
        for f in &findings {
            match f.severity {
                Severity::Warning => println!("      warn: {}", f.message),
                Severity::Violation => violations.push(format!("[{name}] {f}")),
            }
        }
    }
    degraded_health(&mut violations)?;
    Ok(violations)
}

/// Poisons one group of a live engine past its quarantine budget and
/// audits the degraded snapshot's health metadata and fallback bank.
fn degraded_health(violations: &mut Vec<String>) -> Result<(), String> {
    const TARGET: (usize, usize) = (1, 1);
    let engine = Engine::new(Box::new(PolyLsqBackend::paper()), degraded_synth_db(), None)
        .map_err(|e| format!("degraded-health: engine build failed: {e}"))?
        .with_quarantine_policy(QuarantinePolicy {
            budget: 2,
            max_seconds: 1e6,
        });
    let key = SampleKey {
        kind: TARGET.0,
        pes: 1,
        m: TARGET.1,
    };
    let mut snapshot = engine.snapshot();
    // Three distinct bad (key, N) slots exceed the budget of two.
    for n in [400usize, 800, 1600] {
        let mut bad = degraded_synth_sample(TARGET.0, 1, TARGET.1, n);
        bad.wall = f64::NAN;
        snapshot = engine
            .ingest(&[(key, bad)])
            .map_err(|e| format!("degraded-health: poisoned ingest failed: {e}"))?;
    }
    let health = snapshot.health();
    if health.quarantined != vec![TARGET] {
        violations.push(format!(
            "degraded-health: expected quarantined {TARGET:?}, got {:?}",
            health.quarantined
        ));
    }
    if health.composed_fallback != vec![TARGET] {
        violations.push(format!(
            "degraded-health: expected composed fallback for {TARGET:?}, got {:?}",
            health.composed_fallback
        ));
    }
    let findings = validate::audit_degraded(snapshot.bank(), health);
    println!(
        "    [degraded-health] quarantined {:?}, fallback {:?}, {} finding(s)",
        health.quarantined,
        health.composed_fallback,
        findings.len()
    );
    for f in &findings {
        match f.severity {
            Severity::Warning => println!("      warn: {f}"),
            Severity::Violation => violations.push(format!("degraded-health: {f}")),
        }
    }
    Ok(())
}

/// A synthetic sample obeying the paper's shapes: cubic Ta that scales
/// with P, quadratic Tc with contention and parallel terms.
fn degraded_synth_sample(kind: usize, pes: usize, m: usize, n: usize) -> Sample {
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

/// Both kinds fully measured so the quarantined group has a healthy
/// donor and the engine can compose a fallback for it.
fn degraded_synth_db() -> MeasurementDb {
    let mut db = MeasurementDb::new();
    for kind in 0..2usize {
        for pes in [1usize, 2, 4] {
            for m in 1..=2usize {
                for n in [400usize, 800, 1600, 2400, 3200] {
                    db.record(
                        SampleKey { kind, pes, m },
                        degraded_synth_sample(kind, pes, m, n),
                    );
                }
            }
        }
    }
    db
}
