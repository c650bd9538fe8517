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

use etm_lsq::{lstsq, LsqError};
use etm_support::json_struct;

use crate::ntmodel::NtModel;

/// One fitting observation for a P-T model: a measured `(N, P)` trial of
/// the kind at this multiplicity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PtObservation {
    /// Matrix order.
    pub n: usize,
    /// Total process count of the trial.
    pub p: usize,
    /// Measured computation time.
    pub ta: f64,
    /// Measured communication time.
    pub tc: f64,
}

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

json_struct!(PtModel { ka, kc, reference });

impl PtModel {
    /// Fits `k7..k11` from observations spanning several `P`.
    ///
    /// # Errors
    /// [`LsqError::Underdetermined`] with fewer than 3 observations (the
    /// paper's "at least three different P": `Tc` has three coefficients);
    /// [`LsqError::RankDeficient`] if all observations share one `P`.
    pub fn fit(reference: NtModel, obs: &[PtObservation]) -> Result<PtModel, LsqError> {
        Self::fit_split(reference, obs, obs)
    }

    /// Fits with separate observation sets for the computation and
    /// communication halves. Used by the §3.4 communication-regime
    /// binning: `Ta` is fit on everything, `Tc` only on trials that had
    /// real inter-node communication.
    ///
    /// # Errors
    /// Same contract as [`PtModel::fit`], applied per half.
    pub fn fit_split(
        reference: NtModel,
        obs_ta: &[PtObservation],
        obs_tc: &[PtObservation],
    ) -> Result<PtModel, LsqError> {
        let mut rows_a: Vec<[f64; 2]> = obs_ta
            .iter()
            .map(|o| [reference.ta(o.n) / o.p as f64, 1.0])
            .collect();
        let mut ya: Vec<f64> = obs_ta.iter().map(|o| o.ta).collect();
        let ka = lstsq(&mut rows_a, &mut ya)?;

        let mut rows_c: Vec<[f64; 3]> = obs_tc
            .iter()
            .map(|o| {
                let c = reference.tc(o.n);
                [o.p as f64 * c, c / o.p as f64, 1.0]
            })
            .collect();
        let mut yc: Vec<f64> = obs_tc.iter().map(|o| o.tc).collect();
        let kc = lstsq(&mut rows_c, &mut yc)?;

        Ok(PtModel { ka, kc, reference })
    }

    /// Predicted computation time at `(N, P)`.
    pub fn ta(&self, n: usize, p: usize) -> f64 {
        assert!(p > 0);
        self.ka[0] * self.reference.ta(n) / p as f64 + self.ka[1]
    }

    /// Predicted communication time at `(N, P)`.
    pub fn tc(&self, n: usize, p: usize) -> f64 {
        assert!(p > 0);
        let c = self.reference.tc(n);
        self.kc[0] * p as f64 * c + self.kc[1] * c / p as f64 + self.kc[2]
    }

    /// Predicted total time at `(N, P)`.
    pub fn total(&self, n: usize, p: usize) -> f64 {
        self.ta(n, p) + self.tc(n, p)
    }

    /// The largest process count up to which [`PtModel::total`] is
    /// certified non-increasing in `P` at size `n`, or `None` when the
    /// coefficients cannot vouch for it.
    ///
    /// The total is `t(P) = A/P + B + C·P` with
    /// `A = k7·TaRef(N) + k10·TcRef(N)`, `C = k9·TcRef(N)` and `B`
    /// independent of `P`. When `k7, k9, k10 ≥ 0` and both reference
    /// polynomials are finite and non-negative at `n`, `t` is
    /// non-increasing on `P ∈ [1, √(A/C)]`; `Some(f64::INFINITY)` means
    /// on every `P ≥ 1` (the `C = 0` case). The branch-and-bound
    /// optimizer uses this to take a P-range's minimum at the range's
    /// upper end without scanning.
    pub fn monotone_p_limit(&self, n: usize) -> Option<f64> {
        if !(self.ka[0] >= 0.0 && self.kc[0] >= 0.0 && self.kc[1] >= 0.0) {
            return None;
        }
        let ref_ta = self.reference.ta(n);
        let ref_tc = self.reference.tc(n);
        // `>= 0.0` is false for NaN, so this also rejects NaN refs.
        if !(ref_ta.is_finite() && ref_tc.is_finite() && ref_ta >= 0.0 && ref_tc >= 0.0) {
            return None;
        }
        let a = self.ka[0] * ref_ta + self.kc[1] * ref_tc;
        let c = self.kc[0] * ref_tc;
        Some(if c == 0.0 {
            f64::INFINITY
        } else {
            (a / c).sqrt()
        })
    }

    /// Scales the model by constant factors (§3.5 model composition):
    /// the paper derives Athlon models from Pentium-II models with
    /// `Ta × 0.27`, `Tc × 0.85`.
    pub fn scaled(&self, ta_scale: f64, tc_scale: f64) -> PtModel {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::Sample;

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
        let m = PtModel::fit(reference(), &obs).unwrap();
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
        assert!(PtModel::fit(reference(), &obs).is_err());
    }

    #[test]
    fn too_few_observations_rejected() {
        let obs = [world(400, 1), world(400, 2)];
        assert!(matches!(
            PtModel::fit(reference(), &obs),
            Err(LsqError::Underdetermined { .. })
        ));
    }

    #[test]
    fn scaled_multiplies_predictions() {
        let obs: Vec<PtObservation> = [1usize, 2, 4]
            .iter()
            .flat_map(|&p| [800, 1600, 3200, 6400].iter().map(move |&n| world(n, p)))
            .collect();
        let m = PtModel::fit(reference(), &obs).unwrap();
        let s = m.scaled(0.27, 0.85);
        let (n, p) = (3200, 5);
        assert!((s.ta(n, p) - 0.27 * m.ta(n, p)).abs() < 1e-9);
        assert!((s.tc(n, p) - 0.85 * m.tc(n, p)).abs() < 1e-9);
        assert!((s.total(n, p) - (s.ta(n, p) + s.tc(n, p))).abs() < 1e-12);
    }
}
