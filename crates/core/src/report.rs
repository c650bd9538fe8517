//! Human-readable reports of a fitted model bank — what a cluster
//! operator would inspect before trusting the estimator.

use std::fmt::Write as _;

use crate::pipeline::{Estimator, ModelBank};

/// Renders the bank's coefficient tables as aligned text.
pub(crate) fn render_bank(bank: &ModelBank) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "N-T models ({}):", bank.nt.len());
    let _ = writeln!(
        out,
        "  {:<22} {:>11} {:>11} {:>11} {:>11} | {:>11} {:>11} {:>11}",
        "(kind,pes,m)", "k0", "k1", "k2", "k3", "k4", "k5", "k6"
    );
    for (key, m) in &bank.nt {
        let _ = writeln!(
            out,
            "  {:<22} {:>11.3e} {:>11.3e} {:>11.3e} {:>11.3e} | {:>11.3e} {:>11.3e} {:>11.3e}",
            format!("({},{},{})", key.kind, key.pes, key.m),
            m.ka[0],
            m.ka[1],
            m.ka[2],
            m.ka[3],
            m.kc[0],
            m.kc[1],
            m.kc[2],
        );
    }
    let _ = writeln!(out, "P-T models ({}):", bank.pt.len());
    let _ = writeln!(
        out,
        "  {:<12} {:>11} {:>11} | {:>11} {:>11} {:>11}  origin",
        "(kind,m)", "k7", "k8", "k9", "k10", "k11"
    );
    for ((kind, m), model) in &bank.pt {
        let origin = if bank.composed_kinds.contains(kind) {
            "composed"
        } else {
            "measured"
        };
        let _ = writeln!(
            out,
            "  {:<12} {:>11.3e} {:>11.3e} | {:>11.3e} {:>11.3e} {:>11.3e}  {}",
            format!("({kind},{m})"),
            model.ka[0],
            model.ka[1],
            model.kc[0],
            model.kc[1],
            model.kc[2],
            origin,
        );
    }
    out
}

/// Renders the estimator (bank + adjustment) as text.
pub fn render_estimator(est: &Estimator) -> String {
    let mut out = render_bank(&est.bank);
    let _ = writeln!(
        out,
        "adjustment (M1 >= {}): t = {:.4}*T + {:.4}*T1",
        est.adjustment.min_m1, est.adjustment.scale, est.adjustment.base_coeff
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::{MeasurementDb, Sample, SampleKey};
    use etm_cluster::KindId;

    fn tiny_bank() -> ModelBank {
        let mut db = MeasurementDb::new();
        for &n in &[400usize, 800, 1200, 1600] {
            for &pes in &[1usize, 2, 4] {
                let x = n as f64;
                let p = pes as f64;
                db.record(
                    SampleKey::new(KindId(0), pes, 1),
                    Sample {
                        n,
                        ta: 1e-9 * x * x * x / p,
                        tc: 1e-8 * p * x * x + 0.01,
                        wall: 1.0,
                        multi_node: pes > 1,
                    },
                );
            }
        }
        ModelBank::fit(&db).expect("fit")
    }

    #[test]
    fn report_lists_every_model() {
        let bank = tiny_bank();
        let text = render_bank(&bank);
        assert!(text.contains("N-T models (3)"));
        assert!(text.contains("P-T models (1)"));
        assert!(text.contains("measured"));
        assert!(text.contains("(0,1,1)"));
    }

    #[test]
    fn estimator_report_includes_adjustment() {
        let est = Estimator::unadjusted(tiny_bank());
        let text = render_estimator(&est);
        assert!(text.contains("adjustment"));
        assert!(text.contains("1.0000*T"));
    }
}
