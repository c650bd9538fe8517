//! The P-T model (§3.3): N-T models for the same `Mᵢ` at several process
//! counts integrated into a single model with `P` as a variable.
//!
//! The paper's equations:
//!
//! ```text
//! Ta(N,P)|Mi = k7 · TaRef(N) / P + k8
//! Tc(N,P)|Mi = k9 · P · TcRef(N) + k10 · TcRef(N) / P + k11
//! ```
//!
//! where `TaRef`/`TcRef` are the **reference N-T model** of the group (we
//! use the *largest* measured `P` — the smallest is typically a single
//! PE whose `Tc` is degenerate — with any constant factor absorbed into
//! `k7`–`k10` by the fit). The forms mirror the algorithm: `update`
//! scales as `1/P`, `bcast` as `(P−1) ≈ P`, `laswp` as `1/P`.

use etm_lsq::{FactoredDesign, LsqError};

use crate::ntmodel::NtModel;

/// P-T model for one `(kind, Mᵢ)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PtModel {
    /// `Ta` coefficients `[k7, k8]`.
    pub ka: [f64; 2],
    /// `Tc` coefficients `[k9, k10, k11]`.
    pub kc: [f64; 3],
    /// The reference N-T model the bases are built from.
    pub reference: NtModel,
}

impl PtModel {
    /// The model at one problem size `n`: both reference polynomials
    /// evaluated once, ready to price any `P`.
    #[inline]
    pub fn at(&self, n: usize) -> PtAt {
        let ta_ref = self.reference.ta(n);
        let tc_ref = self.reference.tc(n);
        PtAt {
            ka: self.ka,
            kc: self.kc,
            ta_ref,
            tc_ref,
            ta_num: self.ka[0] * ta_ref,
            tc_num: self.kc[1] * tc_ref,
        }
    }

    /// Predicted computation time at `(N, P)`.
    pub fn ta(&self, n: usize, p: usize) -> f64 {
        self.at(n).ta(p)
    }

    /// Predicted communication time at `(N, P)`.
    pub fn tc(&self, n: usize, p: usize) -> f64 {
        self.at(n).tc(p)
    }

    /// Predicted total time at `(N, P)`.
    pub fn total(&self, n: usize, p: usize) -> f64 {
        self.at(n).total(p)
    }

    /// The largest process count up to which [`PtModel::total`] is
    /// certified non-increasing in `P` at size `n`; see
    /// [`PtAt::monotone_p_limit`].
    pub fn monotone_p_limit(&self, n: usize) -> Option<f64> {
        self.at(n).monotone_p_limit()
    }

    /// Scales the model by constant factors (§3.5 model composition):
    /// the paper derives Athlon models from Pentium-II models with
    /// `Ta × 0.27`, `Tc × 0.85`.
    pub(crate) fn scaled(&self, ta_scale: f64, tc_scale: f64) -> PtModel {
        PtModel {
            ka: [self.ka[0] * ta_scale, self.ka[1] * ta_scale],
            kc: [
                self.kc[0] * tc_scale,
                self.kc[1] * tc_scale,
                self.kc[2] * tc_scale,
            ],
            reference: self.reference,
        }
    }
}

/// A [`PtModel`] at one problem size `N` ([`PtModel::at`]): the
/// reference polynomials evaluated once, so pricing a process count
/// costs a handful of multiplies. Every method performs the same float
/// operations, in the same order, as the model's own `(N, P)` methods,
/// which are written through it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PtAt {
    ka: [f64; 2],
    kc: [f64; 3],
    /// `TaRef(N)`.
    ta_ref: f64,
    /// `TcRef(N)`.
    tc_ref: f64,
    /// `k7 · TaRef(N)`.
    ta_num: f64,
    /// `k10 · TcRef(N)`.
    tc_num: f64,
}

impl PtAt {
    /// Predicted computation time `k7·TaRef(N)/P + k8`.
    #[inline]
    pub fn ta(&self, p: usize) -> f64 {
        assert!(p > 0);
        self.ta_num / p as f64 + self.ka[1]
    }

    /// Predicted communication time
    /// `k9·P·TcRef(N) + k10·TcRef(N)/P + k11`.
    #[inline]
    pub fn tc(&self, p: usize) -> f64 {
        assert!(p > 0);
        self.tc_rising(p) + self.tc_falling(p) + self.kc[2]
    }

    /// Predicted total time `Ta + Tc`.
    #[inline]
    pub fn total(&self, p: usize) -> f64 {
        self.ta(p) + self.tc(p)
    }

    /// The largest process count up to which [`PtAt::total`] is
    /// certified non-increasing in `P`, or `None` when the coefficients
    /// cannot vouch for it.
    ///
    /// The total is `t(P) = A/P + B + C·P` with
    /// `A = k7·TaRef(N) + k10·TcRef(N)`, `C = k9·TcRef(N)` and `B`
    /// independent of `P`. When `k7, k9, k10 ≥ 0` and both reference
    /// polynomials are finite and non-negative at `N`, `A, C ≥ 0`, so
    /// `t` is convex on `P > 0` with its vertex at `√(A/C)`: it is
    /// non-increasing on `P ∈ [1, √(A/C)]` and non-decreasing beyond;
    /// `Some(f64::INFINITY)` means non-increasing on every `P ≥ 1` (the
    /// `C = 0` case). [`convex_min`] reads any P-range's minimum off
    /// this vertex, which is how the branch-and-bound optimizer bounds
    /// a range without scanning it ([`PtAt::certified_min`]).
    pub fn monotone_p_limit(&self) -> Option<f64> {
        if !(self.ka[0] >= 0.0 && self.kc[0] >= 0.0 && self.kc[1] >= 0.0) {
            return None;
        }
        let (ref_ta, ref_tc) = (self.ta_ref, self.tc_ref);
        // `>= 0.0` is false for NaN, so this also rejects NaN refs.
        if !(ref_ta.is_finite() && ref_tc.is_finite() && ref_ta >= 0.0 && ref_tc >= 0.0) {
            return None;
        }
        let a = self.ta_num + self.tc_num;
        let c = self.kc[0] * ref_tc;
        Some(if c == 0.0 {
            f64::INFINITY
        } else {
            (a / c).sqrt()
        })
    }

    /// The minimum of [`PtAt::total`] over `lo..=hi` (`1 ≤ lo ≤ hi`),
    /// read off the convexity certificate of [`PtAt::monotone_p_limit`]
    /// with at most two evaluations ([`convex_min`]); `None` when the
    /// certificate cannot vouch. The float evaluation of a convex curve
    /// is convex only up to rounding, so a caller that lower-bounds with
    /// this minimum keeps a relative margin.
    pub fn certified_min(&self, lo: usize, hi: usize) -> Option<f64> {
        let vertex = self.monotone_p_limit()?;
        Some(convex_min(vertex, lo, hi, |p| self.total(p)))
    }

    /// `(k9·P)·TcRef(N)`, the rising term of [`PtAt::tc`].
    #[inline]
    fn tc_rising(&self, p: usize) -> f64 {
        self.kc[0] * p as f64 * self.tc_ref
    }

    /// `k10·TcRef(N)/P`, the falling term of [`PtAt::tc`].
    #[inline]
    fn tc_falling(&self, p: usize) -> f64 {
        self.tc_num / p as f64
    }

    /// Whether [`PtAt::ta`] and [`PtAt::tc`] are both finite and
    /// non-negative at every `P` in `lo..=hi` (`1 ≤ lo ≤ hi`).
    ///
    /// Decided from the range's ends where the coefficient signs allow,
    /// else by evaluating every `P`; either way the answer is the
    /// per-`P` check's. Every float operation is monotone, so `Ta`, a
    /// constant plus a multiple of `1/P`, is monotone in `P` as
    /// evaluated, and so is `Tc` when its two `P` terms move the same
    /// way. When they move apart with both terms non-negative
    /// (`k9·TcRef ≥ 0` and `k10·TcRef ≥ 0`), `Tc` lies below the sum of
    /// each term's value at the end where it is largest, plus `k11`, and
    /// above `2·√(k9·TcRef·k10·TcRef) + k11` up to a rounding far below
    /// the `1e-12` margin kept.
    pub fn split_non_negative(&self, lo: usize, hi: usize) -> bool {
        debug_assert!(1 <= lo && lo <= hi);
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        if !(ok(self.ta(lo)) && ok(self.ta(hi))) {
            return false;
        }
        let (k9, c, a) = (self.kc[0], self.tc_ref, self.tc_num);
        let rising_up = (k9 >= 0.0 && c >= 0.0) || (k9 <= 0.0 && c <= 0.0);
        let rising_down = (k9 >= 0.0 && c <= 0.0) || (k9 <= 0.0 && c >= 0.0);
        if (rising_up && a <= 0.0) || (rising_down && a >= 0.0) {
            return ok(self.tc(lo)) && ok(self.tc(hi));
        }
        if rising_up && a >= 0.0 {
            let peak = self.tc_rising(hi) + self.tc_falling(lo) + self.kc[2];
            let ka = k9 * c * a;
            if peak.is_finite()
                && ka.is_finite()
                && 2.0 * ka.sqrt() * (1.0 - 1e-12) + self.kc[2] > 0.0
            {
                return true;
            }
        }
        (lo..=hi).all(|p| ok(self.ta(p)) && ok(self.tc(p)))
    }
}

/// The minimum over `lo..=hi` (`1 ≤ lo ≤ hi`) of `total`, a curve that
/// is convex on `P > 0` with its vertex at `vertex` (see
/// [`PtAt::monotone_p_limit`]): its value at `hi` when the vertex lies
/// at or above the range, at `lo` when at or below it, and otherwise
/// the smaller of its values at `⌊vertex⌋` and `⌈vertex⌉`.
#[inline]
pub fn convex_min(vertex: f64, lo: usize, hi: usize, total: impl Fn(usize) -> f64) -> f64 {
    debug_assert!(1 <= lo && lo <= hi);
    if vertex >= hi as f64 {
        total(hi)
    } else if vertex <= lo as f64 {
        total(lo)
    } else {
        let (floor, ceil) = (
            total(vertex.floor() as usize),
            total(vertex.ceil() as usize),
        );
        if ceil < floor {
            ceil
        } else {
            floor
        }
    }
}

/// The inputs of one P-T fit, gathered into buffers that outlive it:
/// each half's `(N, P)` row layout, in gather order, and its measured
/// times.
#[derive(Debug, Default)]
pub(crate) struct PtInputs {
    pub(crate) ta_layout: Vec<(usize, usize)>,
    pub(crate) ta: Vec<f64>,
    pub(crate) tc_layout: Vec<(usize, usize)>,
    pub(crate) tc: Vec<f64>,
}

impl PtInputs {
    /// Empties every buffer, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.ta_layout.clear();
        self.ta.clear();
        self.tc_layout.clear();
        self.tc.clear();
    }
}

/// One half of a P-T fit, factored, with the inputs its rows were built
/// from: the bits of the `K` reference coefficients the rows read and
/// the `(N, P)` layout of the rows.
#[derive(Debug)]
struct FactoredHalf<const K: usize, const C: usize> {
    coeffs: [u64; K],
    layout: Vec<(usize, usize)>,
    design: FactoredDesign<Vec<[f64; C]>, C>,
}

/// One group's factored P-T designs, `Ta`'s (rows `[TaRef(N)/P, 1]`,
/// read from the reference's `ka`) and `Tc`'s (rows
/// `[P·TcRef(N), TcRef(N)/P, 1]`, read from its `kc`), kept from one fit
/// to the next.
///
/// A fit reuses a half only when the coefficient bits and the layout it
/// was built from equal the new ones, so the rows would come out
/// bitwise the same; anything else is re-factored and replaces it.
/// Every fit therefore returns bit for bit what a fresh design would,
/// and no change needs to invalidate anything.
#[derive(Debug, Default)]
pub(crate) struct PtDesigns {
    ta: Option<FactoredHalf<4, 2>>,
    tc: Option<FactoredHalf<3, 3>>,
}

impl PtDesigns {
    /// Fits the P-T model of `inputs` against `reference`, `Ta` before
    /// `Tc`. Returns the model and how many designs were factored (0–2).
    /// `inputs` is scratch: the solves overwrite the times, and a
    /// re-factored half swaps its old layout buffer in.
    ///
    /// # Errors
    /// [`LsqError::Underdetermined`] when a half has fewer rows than
    /// coefficients; [`LsqError::RankDeficient`] on a collinear design.
    /// A half factored before a failing solve stays stored: it is still
    /// the design of its inputs.
    pub(crate) fn fit(
        &mut self,
        reference: NtModel,
        inputs: &mut PtInputs,
    ) -> Result<(PtModel, usize), LsqError> {
        let (ka, ta_factored) = solve_half(
            &mut self.ta,
            reference.ka.map(f64::to_bits),
            &mut inputs.ta_layout,
            &mut inputs.ta,
            |n, p| [reference.ta(n) / p as f64, 1.0],
        )?;
        let (kc, tc_factored) = solve_half(
            &mut self.tc,
            reference.kc.map(f64::to_bits),
            &mut inputs.tc_layout,
            &mut inputs.tc,
            |n, p| {
                let c = reference.tc(n);
                [p as f64 * c, c / p as f64, 1.0]
            },
        )?;
        let factored = usize::from(ta_factored) + usize::from(tc_factored);
        Ok((PtModel { ka, kc, reference }, factored))
    }

    /// The reference `kc` bits the stored `Tc` design was built from.
    #[cfg(test)]
    pub(crate) fn tc_coeffs(&self) -> Option<[u64; 3]> {
        self.tc.as_ref().map(|half| half.coeffs)
    }
}

/// Solves one half against `y`: on the stored design when `coeffs` and
/// `layout` equal its inputs, otherwise on rows built by `row` at each
/// `(N, P)` of `layout`, factored and stored in place of the old half
/// (whose layout buffer `layout` takes over). Also returns whether it
/// factored.
fn solve_half<const K: usize, const C: usize>(
    half: &mut Option<FactoredHalf<K, C>>,
    coeffs: [u64; K],
    layout: &mut Vec<(usize, usize)>,
    y: &mut [f64],
    row: impl Fn(usize, usize) -> [f64; C],
) -> Result<([f64; C], bool), LsqError> {
    if let Some(stored) = half {
        if stored.coeffs == coeffs && stored.layout == *layout {
            return Ok((stored.design.solve(y)?, false));
        }
    }
    let design = FactoredDesign::factor(layout.iter().map(|&(n, p)| row(n, p)).collect())?;
    let mut kept = half.take().map(|old| old.layout).unwrap_or_default();
    std::mem::swap(layout, &mut kept);
    let stored = half.insert(FactoredHalf {
        coeffs,
        layout: kept,
        design,
    });
    Ok((stored.design.solve(y)?, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::Sample;

    /// One measured `(N, P)` trial of the kind at this multiplicity.
    #[derive(Clone, Copy)]
    struct PtObservation {
        n: usize,
        p: usize,
        ta: f64,
        tc: f64,
    }

    /// Fits `k7..k11` from observations spanning several `P`, both
    /// halves on every observation, through fresh designs.
    fn fit(reference: NtModel, obs: &[PtObservation]) -> Result<PtModel, LsqError> {
        let layout: Vec<(usize, usize)> = obs.iter().map(|o| (o.n, o.p)).collect();
        let mut inputs = PtInputs {
            ta_layout: layout.clone(),
            ta: obs.iter().map(|o| o.ta).collect(),
            tc_layout: layout,
            tc: obs.iter().map(|o| o.tc).collect(),
        };
        PtDesigns::default()
            .fit(reference, &mut inputs)
            .map(|(model, _)| model)
    }

    /// Synthetic world with known structure: Ta = W(N)/P + 0.3,
    /// Tc = 0.2·P·C(N) + 0.4·C(N)/P + 0.001 with C = 1e-7·N².
    /// (The Tc constant is kept small: the paper's P-T form scales the
    /// *whole* reference Tc — constant included — by P, so a large
    /// constant is structurally unrepresentable.)
    fn world(n: usize, p: usize) -> PtObservation {
        let x = n as f64;
        let w = 2e-9 * x * x * x + 1e-5 * x * x;
        let c = 1e-7 * x * x;
        PtObservation {
            n,
            p,
            ta: w / p as f64 + 0.3,
            tc: 0.2 * p as f64 * c + 0.4 * c / p as f64 + 0.001,
        }
    }

    fn reference() -> NtModel {
        // The N-T model at P = 1 of the same world.
        let samples: Vec<Sample> = [400, 800, 1600, 3200, 6400]
            .iter()
            .map(|&n| {
                let o = world(n, 1);
                Sample {
                    n,
                    ta: o.ta,
                    tc: o.tc,
                    wall: 0.0,
                    multi_node: true,
                }
            })
            .collect();
        NtModel::fit(&samples).unwrap()
    }

    #[test]
    fn recovers_structured_world() {
        let obs: Vec<PtObservation> = [1usize, 2, 4, 8]
            .iter()
            .flat_map(|&p| [800, 1600, 3200, 6400].iter().map(move |&n| world(n, p)))
            .collect();
        let m = fit(reference(), &obs).unwrap();
        // Interpolation and extrapolation in P.
        for (n, p) in [(1600, 3), (3200, 6), (6400, 10), (9600, 12)] {
            let truth = world(n, p);
            let rel_a = (m.ta(n, p) - truth.ta).abs() / truth.ta;
            let rel_c = (m.tc(n, p) - truth.tc).abs() / truth.tc;
            assert!(rel_a < 0.02, "Ta at N={n},P={p}: rel {rel_a}");
            assert!(rel_c < 0.05, "Tc at N={n},P={p}: rel {rel_c}");
        }
    }

    #[test]
    fn needs_p_variation() {
        let obs: Vec<PtObservation> = [400, 800, 1600, 3200]
            .iter()
            .map(|&n| world(n, 4))
            .collect();
        // Single P: the Tc design matrix columns P·C and C/P are
        // proportional -> rank deficient.
        assert!(fit(reference(), &obs).is_err());
    }

    #[test]
    fn too_few_observations_rejected() {
        let obs = [world(400, 1), world(400, 2)];
        assert!(matches!(
            fit(reference(), &obs),
            Err(LsqError::Underdetermined { .. })
        ));
    }

    /// Per-size models over a grid of coefficient and reference signs,
    /// zeros and magnitudes included: `(ka, kc, TaRef, TcRef)`.
    fn sign_grid() -> Vec<PtAt> {
        let vals = [-2.5, -0.04, 0.0, 0.03, 1.7];
        let refs = [-3.0, 0.0, 0.6, 250.0];
        let mut out = Vec::new();
        for &k7 in &vals {
            for &k8 in &[-1.2, 0.0, 0.4] {
                for &k9 in &vals {
                    for &k10 in &vals {
                        for &k11 in &[-1.5, -0.02, 0.0, 0.8] {
                            for &ta_ref in &refs {
                                for &tc_ref in &refs {
                                    out.push(PtAt {
                                        ka: [k7, k8],
                                        kc: [k9, k10, k11],
                                        ta_ref,
                                        tc_ref,
                                        ta_num: k7 * ta_ref,
                                        tc_num: k10 * tc_ref,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn certified_minimum_is_the_scanned_minimum_of_every_range() {
        let mut certified = 0usize;
        for at in sign_grid() {
            for lo in 1..=12usize {
                let mut scanned = f64::INFINITY;
                for hi in lo..=40usize {
                    scanned = scanned.min(at.total(hi));
                    let Some(min) = at.certified_min(lo, hi) else {
                        continue;
                    };
                    certified += 1;
                    let tol = 1e-12 * scanned.abs().max(1.0);
                    assert!(
                        (min - scanned).abs() <= tol,
                        "{at:?} over {lo}..={hi}: certified {min}, scanned {scanned}"
                    );
                }
            }
        }
        assert!(certified > 0);
    }

    #[test]
    fn split_sign_check_agrees_with_evaluating_every_p() {
        let every_p = |at: &PtAt, lo: usize, hi: usize| {
            (lo..=hi).all(|p| {
                let (ta, tc) = (at.ta(p), at.tc(p));
                ta.is_finite() && tc.is_finite() && ta >= 0.0 && tc >= 0.0
            })
        };
        let (mut safe, mut unsafe_) = (0usize, 0usize);
        for at in sign_grid() {
            for (lo, hi) in [(1, 1), (1, 14), (3, 60), (7, 774)] {
                let expect = every_p(&at, lo, hi);
                assert_eq!(
                    at.split_non_negative(lo, hi),
                    expect,
                    "{at:?} over {lo}..={hi}"
                );
                if expect {
                    safe += 1;
                } else {
                    unsafe_ += 1;
                }
            }
        }
        assert!(safe > 0 && unsafe_ > 0);
    }

    #[test]
    fn scaled_multiplies_predictions() {
        let obs: Vec<PtObservation> = [1usize, 2, 4]
            .iter()
            .flat_map(|&p| [800, 1600, 3200, 6400].iter().map(move |&n| world(n, p)))
            .collect();
        let m = fit(reference(), &obs).unwrap();
        let s = m.scaled(0.27, 0.85);
        let (n, p) = (3200, 5);
        assert!((s.ta(n, p) - 0.27 * m.ta(n, p)).abs() < 1e-9);
        assert!((s.tc(n, p) - 0.85 * m.tc(n, p)).abs() < 1e-9);
        assert!((s.total(n, p) - (s.ta(n, p) + s.tc(n, p))).abs() < 1e-12);
    }
}
