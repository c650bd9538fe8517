//! Model composition (§3.5).
//!
//! Building a P-T model needs measurements at ≥3 process counts, i.e. ≥3
//! PEs of the kind. A heterogeneous cluster often has too few of some
//! kind — the paper has exactly one Athlon — so that kind's P-T model is
//! *composed* from a measured kind's model by constant scale factors
//! (the paper scales Pentium-II `Ta` by 0.27 and `Tc` by 0.85).
//!
//! Besides the paper's hand-picked constants, `fit_ta_scale` derives
//! the computation factor from data the campaign already has: the
//! single-PE N-T models of both kinds (the ratio of their `Ta` curves in
//! a least-squares sense).

use crate::ntmodel::NtModel;
use crate::ptmodel::PtModel;

/// The paper's hand-picked Athlon/Pentium-II communication scale.
pub(crate) const PAPER_TC_SCALE: f64 = 0.85;

/// Least-squares scale between two kinds' single-PE `Ta` curves over a
/// grid of problem sizes: minimizes `Σ (Ta_target(N) − s·Ta_source(N))²`,
/// giving `s = Σ Ta_t·Ta_s / Σ Ta_s²`.
///
/// This is the data-driven replacement for the paper's 0.27: both N-T
/// models come from trials the construction campaign already ran.
///
/// # Panics
/// Panics if `ns` is empty or the source curve is identically zero on it.
pub(crate) fn fit_ta_scale(
    target_single_pe: &NtModel,
    source_single_pe: &NtModel,
    ns: &[usize],
) -> f64 {
    assert!(!ns.is_empty(), "need at least one problem size");
    let mut num = 0.0;
    let mut den = 0.0;
    for &n in ns {
        let s = source_single_pe.ta(n);
        let t = target_single_pe.ta(n);
        num += t * s;
        den += s * s;
    }
    assert!(den > 0.0, "source Ta curve is zero on the grid");
    num / den
}

/// Composes the target's P-T model with a fitted `Ta` scale and an
/// explicit `Tc` scale (single-PE trials have no inter-PE communication,
/// so `Tc` cannot be fitted the same way — the paper keeps a constant).
pub(crate) fn compose_fitted(
    source_pt: &PtModel,
    target_single_pe: &NtModel,
    source_single_pe: &NtModel,
    ns: &[usize],
    tc_scale: f64,
) -> PtModel {
    let ta_scale = fit_ta_scale(target_single_pe, source_single_pe, ns);
    source_pt.scaled(ta_scale, tc_scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::Sample;

    fn nt_from_curve(f: impl Fn(f64) -> f64, g: impl Fn(f64) -> f64) -> NtModel {
        let samples: Vec<Sample> = [400usize, 800, 1600, 3200, 6400]
            .iter()
            .map(|&n| Sample {
                n,
                ta: f(n as f64),
                tc: g(n as f64),
                wall: 0.0,
                multi_node: true,
            })
            .collect();
        NtModel::fit(&samples).unwrap()
    }

    #[test]
    fn fitted_scale_recovers_exact_ratio() {
        let slow = nt_from_curve(|x| 4e-9 * x * x * x + 1e-5 * x * x, |x| 1e-7 * x * x);
        let fast = nt_from_curve(
            |x| 0.27 * (4e-9 * x * x * x + 1e-5 * x * x),
            |x| 1e-7 * x * x,
        );
        let s = fit_ta_scale(&fast, &slow, &[1600, 3200, 6400]);
        assert!((s - 0.27).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn fitted_scale_weights_large_n() {
        // When the ratio varies with N, the LSQ scale lands between the
        // endpoint ratios, dominated by large N (largest magnitudes).
        let slow = nt_from_curve(|x| 4e-9 * x * x * x, |x| 1e-7 * x * x);
        let fast = nt_from_curve(|x| 1e-9 * x * x * x + 1e-4 * x * x, |x| 1e-7 * x * x);
        let s = fit_ta_scale(&fast, &slow, &[400, 1600, 6400]);
        let r_small = fast.ta(400) / slow.ta(400);
        let r_large = fast.ta(6400) / slow.ta(6400);
        let (lo, hi) = if r_small < r_large {
            (r_small, r_large)
        } else {
            (r_large, r_small)
        };
        assert!(s >= lo && s <= hi, "{s} outside [{lo}, {hi}]");
        assert!(
            (s - r_large).abs() < (s - r_small).abs(),
            "biased to large N"
        );
    }

    #[test]
    fn compose_fitted_end_to_end() {
        let slow_single = nt_from_curve(|x| 4e-9 * x * x * x, |x| 1e-7 * x * x);
        let fast_single = nt_from_curve(|x| 1e-9 * x * x * x, |x| 1e-7 * x * x);
        let pt = PtModel {
            ka: [1.0, 0.0],
            kc: [0.02, 0.3, 0.0],
            reference: slow_single,
        };
        let composed = compose_fitted(&pt, &fast_single, &slow_single, &[1600, 6400], 0.85);
        // Ta scale = 1/4 exactly.
        assert!((composed.ta(3200, 2) - 0.25 * pt.ta(3200, 2)).abs() < 1e-9);
    }
}
