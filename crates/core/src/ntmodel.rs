//! The N-T model (§3.2): per configuration `(P, Mᵢ)`, polynomials in N
//! for computation and communication time.

use etm_lsq::{FactoredDesign, LsqError};

use crate::measurement::Sample;

/// N-T model: `Ta(N) = k0·N³ + k1·N² + k2·N + k3`,
/// `Tc(N) = k4·N² + k5·N + k6`.
///
/// The orders come from the HPL algorithm (§3.2): `update = 2N³/3P + …`
/// dominates computation (O(N³)); `laswp` and `bcast` make communication
/// O(N²). Coefficients are extracted from ≥4 measured problem sizes by
/// least squares.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NtModel {
    /// `[k0, k1, k2, k3]`, descending powers.
    pub ka: [f64; 4],
    /// `[k4, k5, k6]`, descending powers.
    pub kc: [f64; 3],
}

impl NtModel {
    /// Fits both polynomials from measured samples: one `NtDesign`
    /// over their sizes, solved once.
    ///
    /// # Errors
    /// [`LsqError::Underdetermined`] with fewer than 4 samples — the
    /// paper's "at least four different N" requirement (Ta has four
    /// coefficients).
    pub fn fit(samples: &[Sample]) -> Result<NtModel, LsqError> {
        NtDesign::new(samples)?.fit(samples, &mut Vec::new())
    }

    /// Predicted computation time `Ta(N)`.
    pub fn ta(&self, n: usize) -> f64 {
        let n = n as f64;
        ((self.ka[0] * n + self.ka[1]) * n + self.ka[2]) * n + self.ka[3]
    }

    /// Predicted communication time `Tc(N)`.
    pub fn tc(&self, n: usize) -> f64 {
        let n = n as f64;
        (self.kc[0] * n + self.kc[1]) * n + self.kc[2]
    }

    /// Predicted total `T(N) = Ta + Tc`.
    pub fn total(&self, n: usize) -> f64 {
        self.ta(n) + self.tc(n)
    }
}

/// The two §3.2 least-squares designs of one list of problem sizes —
/// `[N³, N², N, 1]` for `Ta` and `[N², N, 1]` for `Tc` — each factored
/// once. Every key measured at exactly these sizes fits its N-T model
/// against them: in the Basic campaign all 54 configurations share the
/// same 9 sizes, so one design serves every fit.
///
/// A fit reads only the factors and the key's own times, so it is
/// bitwise what [`NtModel::fit`] gives on that key's samples alone, and
/// a design kept from an earlier refit serves a later one unchanged.
#[derive(Debug)]
pub(crate) struct NtDesign {
    ns: Vec<usize>,
    ta: FactoredDesign<Vec<[f64; 4]>, 4>,
    tc: FactoredDesign<Vec<[f64; 3]>, 3>,
}

impl NtDesign {
    /// Factors the designs over the sizes of `samples`, in order.
    ///
    /// # Errors
    /// [`LsqError::Underdetermined`] with fewer than 4 samples.
    pub(crate) fn new(samples: &[Sample]) -> Result<NtDesign, LsqError> {
        let ns: Vec<usize> = samples.iter().map(|s| s.n).collect();
        let ta = FactoredDesign::factor(
            ns.iter()
                .map(|&n| {
                    let n = n as f64;
                    [n * n * n, n * n, n, 1.0]
                })
                .collect(),
        )?;
        let tc = FactoredDesign::factor(
            ns.iter()
                .map(|&n| {
                    let n = n as f64;
                    [n * n, n, 1.0]
                })
                .collect(),
        )?;
        Ok(NtDesign { ns, ta, tc })
    }

    /// Whether `samples` were measured at exactly this design's sizes,
    /// in order.
    pub(crate) fn matches(&self, samples: &[Sample]) -> bool {
        self.ns.len() == samples.len() && self.ns.iter().zip(samples).all(|(&n, s)| n == s.n)
    }

    /// Fits one key's N-T model from its samples, which must match
    /// ([`NtDesign::matches`]) the design. `y` is scratch for the
    /// times each solve overwrites.
    ///
    /// # Errors
    /// [`LsqError::RankDeficient`] on a numerically singular design,
    /// `Ta`'s before `Tc`'s; [`LsqError::DimensionMismatch`] when
    /// `samples` has another length than the design.
    pub(crate) fn fit(&self, samples: &[Sample], y: &mut Vec<f64>) -> Result<NtModel, LsqError> {
        debug_assert!(
            samples.len() != self.ns.len() || self.matches(samples),
            "samples at other sizes than the design"
        );
        y.clear();
        y.extend(samples.iter().map(|s| s.ta));
        let ka = self.ta.solve(y)?;
        y.clear();
        y.extend(samples.iter().map(|s| s.tc));
        let kc = self.tc.solve(y)?;
        Ok(NtModel { ka, kc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(n: usize) -> Sample {
        let x = n as f64;
        Sample {
            n,
            ta: 1e-9 * x * x * x + 2e-6 * x * x + 3e-4 * x + 0.01,
            tc: 5e-7 * x * x + 1e-4 * x + 0.02,
            wall: 0.0,
            multi_node: true,
        }
    }

    #[test]
    fn recovers_exact_polynomials() {
        let samples: Vec<Sample> = [400, 800, 1600, 3200, 6400]
            .iter()
            .map(|&n| synth(n))
            .collect();
        let m = NtModel::fit(&samples).unwrap();
        assert!((m.ka[0] - 1e-9).abs() < 1e-13);
        assert!((m.kc[0] - 5e-7).abs() < 1e-11);
        for s in &samples {
            assert!((m.ta(s.n) - s.ta).abs() < 1e-6 * s.ta);
            assert!((m.tc(s.n) - s.tc).abs() < 1e-6 * s.tc);
        }
        assert!((m.total(1600) - (m.ta(1600) + m.tc(1600))).abs() < 1e-12);
    }

    #[test]
    fn four_samples_suffice_three_do_not() {
        let four: Vec<Sample> = [400, 800, 1200, 1600].iter().map(|&n| synth(n)).collect();
        assert!(NtModel::fit(&four).is_ok());
        assert!(matches!(
            NtModel::fit(&four[..3]),
            Err(LsqError::Underdetermined { .. })
        ));
    }

    #[test]
    fn extrapolation_is_polynomial() {
        let samples: Vec<Sample> = [400, 800, 1200, 1600].iter().map(|&n| synth(n)).collect();
        let m = NtModel::fit(&samples).unwrap();
        // Noise-free cubic data: extrapolation must stay exact.
        let s = synth(6400);
        assert!((m.ta(6400) - s.ta).abs() < 1e-4 * s.ta);
    }
}
