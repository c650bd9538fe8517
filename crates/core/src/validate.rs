//! Model-validity audit: a registry of invariant checks over a fitted
//! [`ModelBank`].
//!
//! The checks encode what a *physically meaningful* execution-time model
//! must satisfy regardless of the cluster it was fit on:
//!
//! * every coefficient is finite (a NaN/∞ coefficient means a fit
//!   silently went wrong);
//! * predicted times are non-negative over the paper's problem-size
//!   range `N ∈ [400, 6400]` (Table 2's grid) and realistic process
//!   counts;
//! * every kind listed as composed (§3.5) actually has a P-T model;
//! * the fitting bases are well-conditioned enough for the QR solver
//!   (condition blow-ups surface as warnings before coefficients go
//!   visibly bad);
//! * predictions are monotone in the processing-element count at
//!   compute-bound sizes — adding PEs must not make the predicted run
//!   slower where `Ta ∝ N³/P` dominates.
//!
//! The tier-1 test `basic_bank_passes_the_model_audit`
//! (`tests/campaign.rs`) runs the registry over the bank fit from the
//! simulated Basic campaign; library consumers can run it over
//! any bank they fit or build by hand.

use std::fmt;

use etm_lsq::condition_estimate;

use crate::engine::EngineHealth;
use crate::pipeline::ModelBank;

/// The paper's construction grid (Table 2): the sizes every audit
/// prediction sweep covers.
pub(crate) const AUDIT_SIZES: [usize; 9] = [400, 600, 800, 1200, 1600, 2400, 3200, 4800, 6400];

/// Process counts the prediction sweep exercises per P-T model.
const AUDIT_PS: [usize; 5] = [1, 2, 4, 8, 16];

/// Fraction of a model's dynamic range (its largest-magnitude
/// prediction over the audit grid) by which a prediction may dip below
/// zero before it counts as a violation. Unconstrained least squares
/// legitimately crosses zero at the edge of the fitting range when the
/// true time there is near zero; dips within this tolerance are
/// reported as warnings, anything larger is a violation.
const NEGATIVE_TOLERANCE: f64 = 0.01;

/// Condition-estimate threshold above which a fitting basis is reported.
/// QR in f64 loses roughly half the mantissa at 1e12; the paper's cubic
/// basis over `[400, 6400]` sits orders of magnitude below this.
const CONDITION_WARN: f64 = 1e12;

/// Problem sizes treated as compute-bound for the monotonicity check:
/// the upper half of the audit grid, where `Ta ∝ N³/P` dominates and
/// adding PEs must not slow the predicted run down. Small N are
/// excluded — there the communication term legitimately makes more PEs
/// slower, which is the very trade-off the paper's optimizer exploits.
const MONOTONE_SIZES: [usize; 3] = [3200, 4800, 6400];

/// Process counts the monotonicity sweep covers: the campaign's fitted
/// P range. `AUDIT_PS`'s extrapolation point (P = 16, beyond the paper
/// cluster's 9 CPUs) is deliberately excluded — out there the fitted
/// `k9·P·TcRef` communication term dominates and predicted time
/// *should* rise with P, which is a property of the regime, not a model
/// defect.
const MONOTONE_PS: [usize; 4] = [1, 2, 4, 8];

/// Relative increase tolerated between consecutive P (or PE) steps
/// before a monotonicity finding escalates from warning to violation.
/// Unconstrained least squares can put a shallow local bump into the
/// `k9·P·TcRef` term; a few percent of wobble is fit noise, a large
/// reversal means the model slopes the wrong way.
const MONOTONE_TOLERANCE: f64 = 0.05;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Suspicious but not necessarily wrong; reported, does not fail the
    /// audit.
    Warning,
    /// An invariant violation; the audit fails.
    Violation,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Violation => write!(f, "violation"),
        }
    }
}

/// One audit finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Name of the check that produced this finding.
    pub(crate) check: &'static str,
    /// Whether the finding fails the audit.
    pub severity: Severity,
    /// Human-readable description, including the offending key.
    pub(crate) message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.severity, self.check, self.message)
    }
}

/// A registered invariant check.
pub struct Check {
    /// Stable identifier, usable for filtering.
    pub name: &'static str,
    /// One-line description of the invariant.
    pub what: &'static str,
    run: fn(&ModelBank) -> Vec<Finding>,
}

impl Check {
    /// Runs the check over a bank.
    pub fn run(&self, bank: &ModelBank) -> Vec<Finding> {
        (self.run)(bank)
    }
}

/// The full check registry, in the order the audit runs them.
pub fn registry() -> Vec<Check> {
    vec![
        Check {
            name: "finite_coefficients",
            what: "every fitted/composed coefficient is a finite number",
            run: finite_coefficients,
        },
        Check {
            name: "non_negative_predictions",
            what: "predictions >= 0 for N in [400, 6400] (1%-of-scale edge tolerance)",
            run: non_negative_predictions,
        },
        Check {
            name: "composed_kinds_have_models",
            what: "every kind recorded as composed has a P-T model",
            run: composed_kinds_have_models,
        },
        Check {
            name: "basis_condition",
            what: "fitting bases are well-conditioned for the QR solver",
            run: basis_condition,
        },
        Check {
            name: "monotone_in_p",
            what: "compute-bound predictions non-increasing in P (5% step tolerance)",
            run: monotone_in_p,
        },
    ]
}

/// Audits the health metadata of a *degraded* serving bank — what
/// `tests/quarantine.rs` runs after poisoning a group past the
/// quarantine budget:
///
/// * every composed-fallback group must also be quarantined (a fallback
///   for a healthy group means the bookkeeping disagrees with itself);
/// * every fallback group must be tagged in the serving bank's
///   `composed_groups` and carry a P-T model whose coefficients are
///   finite and whose predictions stay non-negative over the audit grid
///   — a degraded answer must still be a *physical* answer;
/// * a quarantined group with no fallback is reported as a warning:
///   it is served stale and untrusted, which health-aware consumers
///   must refuse (not a bank defect, but worth surfacing).
pub fn audit_degraded(bank: &ModelBank, health: &EngineHealth) -> Vec<Finding> {
    const CHECK: &str = "degraded_health";
    let mut out = Vec::new();
    for &group in &health.composed_fallback {
        let (kind, m) = group;
        if !health.quarantined.contains(&group) {
            out.push(violation(
                CHECK,
                format!("fallback group ({kind}, {m}) is not quarantined"),
            ));
        }
        if !bank.composed_groups.contains(&group) {
            out.push(violation(
                CHECK,
                format!("fallback group ({kind}, {m}) is untagged in the serving bank"),
            ));
        }
        let Some(pt) = bank.pt.get(&group) else {
            out.push(violation(
                CHECK,
                format!("fallback group ({kind}, {m}) has no P-T model to serve"),
            ));
            continue;
        };
        if pt
            .ka
            .iter()
            .chain(pt.kc.iter())
            .chain(pt.reference.ka.iter())
            .chain(pt.reference.kc.iter())
            .any(|c| !c.is_finite())
        {
            out.push(violation(
                CHECK,
                format!("fallback P-T model for ({kind}, {m}) has non-finite coefficients"),
            ));
        }
        let preds: Vec<(String, f64)> = AUDIT_SIZES
            .iter()
            .flat_map(|&n| {
                AUDIT_PS.iter().map(move |&p| {
                    (
                        format!("fallback P-T model for ({kind}, {m}) at N={n}, P={p}"),
                        pt.total(n, p),
                    )
                })
            })
            .collect();
        sweep_negatives(CHECK, &preds, &mut out);
    }
    for &(kind, m) in &health.quarantined {
        if !health.composed_fallback.contains(&(kind, m)) {
            out.push(warning(
                CHECK,
                format!(
                    "quarantined group ({kind}, {m}) has no fallback donor: served stale, \
                     health-aware consumers must refuse it"
                ),
            ));
        }
    }
    out
}

fn violation(check: &'static str, message: String) -> Finding {
    Finding {
        check,
        severity: Severity::Violation,
        message,
    }
}

fn warning(check: &'static str, message: String) -> Finding {
    Finding {
        check,
        severity: Severity::Warning,
        message,
    }
}

fn finite_coefficients(bank: &ModelBank) -> Vec<Finding> {
    const CHECK: &str = "finite_coefficients";
    let mut out = Vec::new();
    for (key, nt) in &bank.nt {
        let bad = nt.ka.iter().chain(nt.kc.iter()).any(|c| !c.is_finite());
        if bad {
            out.push(violation(
                CHECK,
                format!(
                    "N-T model for kind {} pes {} m {} has non-finite coefficients: ka {:?} kc {:?}",
                    key.kind, key.pes, key.m, nt.ka, nt.kc
                ),
            ));
        }
    }
    for ((kind, m), pt) in &bank.pt {
        let bad = pt
            .ka
            .iter()
            .chain(pt.kc.iter())
            .chain(pt.reference.ka.iter())
            .chain(pt.reference.kc.iter())
            .any(|c| !c.is_finite());
        if bad {
            out.push(violation(
                CHECK,
                format!("P-T model for kind {kind} M={m} has non-finite coefficients"),
            ));
        }
    }
    out
}

/// Classifies one model's prediction sweep: NaNs and negatives beyond
/// the edge tolerance are violations, small edge dips are warnings.
fn sweep_negatives(check: &'static str, preds: &[(String, f64)], out: &mut Vec<Finding>) {
    let scale = preds.iter().map(|(_, t)| t.abs()).fold(0.0_f64, f64::max);
    let tol = NEGATIVE_TOLERANCE * scale;
    for (at, t) in preds {
        if t.is_nan() || *t < -tol {
            out.push(violation(check, format!("{at} predicts {t} s")));
        } else if *t < 0.0 {
            out.push(warning(
                check,
                format!("{at} predicts {t} s (within the {NEGATIVE_TOLERANCE:.0e}-of-scale edge tolerance)"),
            ));
        }
    }
}

fn non_negative_predictions(bank: &ModelBank) -> Vec<Finding> {
    const CHECK: &str = "non_negative_predictions";
    let mut out = Vec::new();
    for (key, nt) in &bank.nt {
        let preds: Vec<(String, f64)> = AUDIT_SIZES
            .iter()
            .map(|&n| {
                (
                    format!(
                        "N-T model for kind {} pes {} m {} at N={n}",
                        key.kind, key.pes, key.m
                    ),
                    nt.total(n),
                )
            })
            .collect();
        sweep_negatives(CHECK, &preds, &mut out);
    }
    for ((kind, m), pt) in &bank.pt {
        let preds: Vec<(String, f64)> = AUDIT_SIZES
            .iter()
            .flat_map(|&n| {
                AUDIT_PS.iter().map(move |&p| {
                    (
                        format!("P-T model for kind {kind} M={m} at N={n}, P={p}"),
                        pt.total(n, p),
                    )
                })
            })
            .collect();
        sweep_negatives(CHECK, &preds, &mut out);
    }
    out
}

fn composed_kinds_have_models(bank: &ModelBank) -> Vec<Finding> {
    const CHECK: &str = "composed_kinds_have_models";
    let mut out = Vec::new();
    for &kind in &bank.composed_kinds {
        if !bank.pt.keys().any(|(k, _)| *k == kind) {
            out.push(violation(
                CHECK,
                format!("kind {kind} is recorded as composed but has no P-T model at any M"),
            ));
        }
    }
    out
}

fn basis_condition(bank: &ModelBank) -> Vec<Finding> {
    const CHECK: &str = "basis_condition";
    let mut out = Vec::new();
    // The N-T cubic basis over the audit sizes — shared by every N-T fit,
    // so one finding covers them all.
    let mut nt_rows: Vec<[f64; 4]> = AUDIT_SIZES
        .iter()
        .map(|&n| {
            let x = n as f64;
            [x * x * x, x * x, x, 1.0]
        })
        .collect();
    match condition_estimate(&mut nt_rows) {
        Ok(c) if c > CONDITION_WARN => out.push(warning(
            CHECK,
            format!("N-T cubic basis condition estimate {c:.3e} exceeds {CONDITION_WARN:.0e}"),
        )),
        Ok(_) => {}
        Err(e) => out.push(violation(CHECK, format!("N-T basis not factorable: {e}"))),
    }
    // The P-T communication basis [P·TcRef, TcRef/P, 1] per model: this
    // one depends on the reference model's magnitudes, so check each.
    for ((kind, m), pt) in &bank.pt {
        let mut rows: Vec<[f64; 3]> = AUDIT_PS
            .iter()
            .flat_map(|&p| {
                AUDIT_SIZES.iter().map(move |&n| {
                    let tc = pt.reference.tc(n);
                    [p as f64 * tc, tc / p as f64, 1.0]
                })
            })
            .collect();
        match condition_estimate(&mut rows) {
            Ok(c) if c > CONDITION_WARN => out.push(warning(
                CHECK,
                format!(
                    "P-T basis for kind {kind} M={m} condition estimate {c:.3e} exceeds {CONDITION_WARN:.0e}"
                ),
            )),
            Ok(_) => {}
            Err(e) => out.push(violation(
                CHECK,
                format!("P-T basis for kind {kind} M={m} not factorable: {e}"),
            )),
        }
    }
    out
}

/// Cross-model monotonicity (ROADMAP): at compute-bound sizes, giving a
/// run more processing elements must not *increase* its predicted time.
///
/// Two sweeps:
/// * within each P-T model, `total(n, p)` over ascending `p`
///   (the §3.3 form's P-slope must point the right way);
/// * across N-T models of the same `(kind, m)` at ascending `pes` —
///   these are independently fitted models, so a reversal means two fits
///   disagree about which sub-cluster is faster.
///
/// Steps that go up by less than [`MONOTONE_TOLERANCE`] are warnings
/// (fit noise); larger reversals are violations.
fn monotone_in_p(bank: &ModelBank) -> Vec<Finding> {
    const CHECK: &str = "monotone_in_p";
    let mut out = Vec::new();
    let mut sweep = |label: &str, points: &[(usize, f64)]| {
        for w in points.windows(2) {
            let ((p_lo, t_lo), (p_hi, t_hi)) = (w[0], w[1]);
            // Skip degenerate/negative predictions; the non-negativity
            // check owns those.
            if !(t_lo.is_finite() && t_hi.is_finite()) || t_lo <= 0.0 {
                continue;
            }
            let rel = (t_hi - t_lo) / t_lo;
            if rel > MONOTONE_TOLERANCE {
                out.push(violation(
                    CHECK,
                    format!(
                        "{label}: predicted time rises {:.1}% from P={p_lo} ({t_lo:.3} s) \
                         to P={p_hi} ({t_hi:.3} s)",
                        rel * 100.0
                    ),
                ));
            } else if rel > 0.0 {
                out.push(warning(
                    CHECK,
                    format!(
                        "{label}: predicted time rises {:.2}% from P={p_lo} to P={p_hi} \
                         (within the {MONOTONE_TOLERANCE:.0e} step tolerance)",
                        rel * 100.0
                    ),
                ));
            }
        }
    };
    for ((kind, m), pt) in &bank.pt {
        for &n in &MONOTONE_SIZES {
            let points: Vec<(usize, f64)> =
                MONOTONE_PS.iter().map(|&p| (p, pt.total(n, p))).collect();
            sweep(
                &format!("P-T model for kind {kind} M={m} at N={n}"),
                &points,
            );
        }
    }
    // Group N-T models by (kind, m) and sweep across their PE counts.
    let mut groups: std::collections::BTreeMap<(usize, usize), Vec<(usize, &crate::NtModel)>> =
        std::collections::BTreeMap::new();
    for (key, nt) in &bank.nt {
        groups
            .entry((key.kind, key.m))
            .or_default()
            .push((key.pes, nt));
    }
    for ((kind, m), mut models) in groups {
        models.sort_by_key(|(pes, _)| *pes);
        if models.len() < 2 {
            continue;
        }
        for &n in &MONOTONE_SIZES {
            let points: Vec<(usize, f64)> =
                models.iter().map(|&(pes, nt)| (pes, nt.total(n))).collect();
            sweep(
                &format!("N-T models for kind {kind} M={m} at N={n} (across PEs)"),
                &points,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridKey, KeyGrid};
    use crate::measurement::SampleKey;
    use crate::ntmodel::NtModel;
    use crate::ptmodel::PtModel;

    /// Runs every registered check over `bank` and returns all findings.
    fn audit(bank: &ModelBank) -> Vec<Finding> {
        registry().iter().flat_map(|c| c.run(bank)).collect()
    }

    /// True when no finding is a [`Severity::Violation`].
    fn passes(findings: &[Finding]) -> bool {
        findings.iter().all(|f| f.severity != Severity::Violation)
    }

    /// Applies `f` to the stored model at `key`.
    fn edit<K: GridKey, V: Clone>(grid: &mut KeyGrid<K, V>, key: K, f: impl FnOnce(&mut V)) {
        let mut model = grid.get(&key).expect("seeded model").clone();
        f(&mut model);
        grid.insert(key, model);
    }

    fn healthy_bank() -> ModelBank {
        let nt = NtModel {
            ka: [1e-9, 2e-7, 1e-4, 0.3],
            kc: [1e-8, 1e-5, 0.05],
        };
        let pt = PtModel {
            ka: [1.0, 0.01],
            kc: [0.1, 0.4, 0.02],
            reference: nt,
        };
        let mut bank = ModelBank {
            nt: KeyGrid::new(),
            pt: KeyGrid::new(),
            composed_kinds: vec![0],
            composed_groups: vec![(0, 1)],
        };
        bank.nt
            .insert(SampleKey::new(etm_cluster::KindId(0), 1, 1), nt);
        bank.pt.insert((0, 1), pt);
        bank
    }

    #[test]
    fn healthy_bank_passes_all_checks() {
        let findings = audit(&healthy_bank());
        assert!(passes(&findings), "unexpected findings: {findings:?}");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn nan_coefficient_is_a_violation() {
        let mut bank = healthy_bank();
        let key = *bank.nt.keys().next().expect("seeded key");
        edit(&mut bank.nt, key, |m| m.ka[0] = f64::NAN);
        let findings = audit(&bank);
        assert!(!passes(&findings));
        assert!(findings.iter().any(|f| f.check == "finite_coefficients"));
    }

    #[test]
    fn negative_prediction_is_a_violation() {
        let mut bank = healthy_bank();
        let key = *bank.nt.keys().next().expect("seeded key");
        // A large negative constant term drives small-N predictions
        // below zero.
        edit(&mut bank.nt, key, |m| m.ka[3] = -1e6);
        let findings = audit(&bank);
        assert!(!passes(&findings));
        assert!(findings
            .iter()
            .any(|f| f.check == "non_negative_predictions"));
    }

    #[test]
    fn composed_kind_without_model_is_a_violation() {
        let mut bank = healthy_bank();
        bank.composed_kinds.push(7);
        let findings = audit(&bank);
        assert!(!passes(&findings));
        assert!(findings
            .iter()
            .any(|f| f.check == "composed_kinds_have_models" && f.message.contains('7')));
    }

    #[test]
    fn healthy_bank_is_monotone() {
        let findings = monotone_in_p(&healthy_bank());
        assert!(
            findings.iter().all(|f| f.severity != Severity::Violation),
            "{findings:?}"
        );
    }

    #[test]
    fn anti_scaling_pt_model_is_a_violation() {
        let mut bank = healthy_bank();
        // k7·TaRef/P with negative k7 plus a large constant makes the
        // prediction *grow* with P at every size.
        edit(&mut bank.pt, (0, 1), |pt| {
            pt.ka = [-2.0, 500.0];
            pt.kc = [10.0, 0.0, 0.0];
        });
        let findings = monotone_in_p(&bank);
        assert!(!passes(&findings));
        assert!(findings
            .iter()
            .any(|f| f.check == "monotone_in_p" && f.severity == Severity::Violation));
    }

    #[test]
    fn nt_models_compared_across_pes() {
        let mut bank = healthy_bank();
        // Two N-T models of the same (kind, m): the 4-PE one predicts
        // *slower* than the 2-PE one at every compute-bound size.
        let fast = NtModel {
            ka: [1e-9, 0.0, 0.0, 0.1],
            kc: [0.0, 0.0, 0.01],
        };
        let slow = NtModel {
            ka: [3e-9, 0.0, 0.0, 0.1],
            kc: [0.0, 0.0, 0.01],
        };
        bank.nt
            .insert(SampleKey::new(etm_cluster::KindId(1), 2, 1), fast);
        bank.nt
            .insert(SampleKey::new(etm_cluster::KindId(1), 4, 1), slow);
        let findings = monotone_in_p(&bank);
        assert!(
            findings.iter().any(|f| f.severity == Severity::Violation
                && f.message.contains("across PEs")
                && f.message.contains("kind 1")),
            "{findings:?}"
        );
    }

    #[test]
    fn small_wobble_is_only_a_warning() {
        let mut bank = healthy_bank();
        // 2% slower at 4 PEs than at 2: inside the step tolerance.
        let fast = NtModel {
            ka: [1e-9, 0.0, 0.0, 0.1],
            kc: [0.0, 0.0, 0.01],
        };
        let wobble = NtModel {
            ka: [1.02e-9, 0.0, 0.0, 0.1],
            kc: [0.0, 0.0, 0.01],
        };
        bank.nt
            .insert(SampleKey::new(etm_cluster::KindId(1), 2, 1), fast);
        bank.nt
            .insert(SampleKey::new(etm_cluster::KindId(1), 4, 1), wobble);
        let findings = monotone_in_p(&bank);
        assert!(passes(&findings), "{findings:?}");
        assert!(
            findings.iter().any(|f| f.check == "monotone_in_p"
                && f.severity == Severity::Warning
                && f.message.contains("across PEs")),
            "{findings:?}"
        );
    }

    #[test]
    fn degraded_audit_accepts_consistent_health_metadata() {
        let bank = healthy_bank();
        let health = EngineHealth {
            quarantined: vec![(0, 1)],
            composed_fallback: vec![(0, 1)],
            healthy_generation: 3,
            rejected_samples: 5,
        };
        let findings = audit_degraded(&bank, &health);
        assert!(passes(&findings), "{findings:?}");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn degraded_audit_flags_inconsistent_bookkeeping() {
        let bank = healthy_bank();
        // A fallback for a group that is not quarantined: the health
        // metadata disagrees with itself.
        let health = EngineHealth {
            quarantined: Vec::new(),
            composed_fallback: vec![(0, 1)],
            healthy_generation: 0,
            rejected_samples: 0,
        };
        let findings = audit_degraded(&bank, &health);
        assert!(!passes(&findings));
        assert!(findings
            .iter()
            .any(|f| f.check == "degraded_health" && f.message.contains("not quarantined")));
        // An untagged fallback group: the serving bank must record it.
        let mut untagged = healthy_bank();
        untagged.composed_groups.clear();
        let health = EngineHealth {
            quarantined: vec![(0, 1)],
            composed_fallback: vec![(0, 1)],
            healthy_generation: 0,
            rejected_samples: 0,
        };
        let findings = audit_degraded(&untagged, &health);
        assert!(!passes(&findings));
        assert!(findings.iter().any(|f| f.message.contains("untagged")));
        // A non-finite fallback model must never be served.
        let mut poisoned = healthy_bank();
        edit(&mut poisoned.pt, (0, 1), |m| m.ka[0] = f64::NAN);
        let findings = audit_degraded(&poisoned, &health);
        assert!(!passes(&findings));
        assert!(findings.iter().any(|f| f.message.contains("non-finite")));
    }

    #[test]
    fn quarantined_group_without_donor_is_a_warning_not_a_violation() {
        let bank = healthy_bank();
        let health = EngineHealth {
            quarantined: vec![(1, 1)],
            composed_fallback: Vec::new(),
            healthy_generation: 0,
            rejected_samples: 3,
        };
        let findings = audit_degraded(&bank, &health);
        assert!(passes(&findings), "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.severity == Severity::Warning && f.message.contains("no fallback donor")));
    }

    #[test]
    fn registry_names_are_unique() {
        let reg = registry();
        let mut names: Vec<_> = reg.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len());
    }
}
