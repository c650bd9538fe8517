//! Polynomial least squares on the power basis.
//!
//! The N-T model's `Ta(N)` and `Tc(N)` are plain polynomials in `N`; this
//! module evaluates such polynomials and fits them through
//! [`lstsq`](crate::lstsq) on the `[x^(C−1), …, x, 1]` basis.

use crate::{lstsq, LsqError};

/// Evaluates a polynomial with coefficients in descending powers (Horner).
pub fn eval_poly(coeffs: &[f64], x: f64) -> f64 {
    coeffs.iter().fold(0.0, |acc, &c| acc * x + c)
}

/// Fits a polynomial with `C` coefficients (degree `C − 1`) to
/// `(xs, ys)` by least squares, returning the coefficients in descending
/// powers of `x` (matching how the paper writes `k0·N³ + … + k3`).
///
/// # Errors
/// As [`lstsq`]: [`LsqError::DimensionMismatch`] when the slices differ
/// in length; [`LsqError::Underdetermined`] with fewer than `C` samples —
/// e.g. a `Ta` model (four coefficients) from only three problem sizes,
/// which the paper explicitly calls out; [`LsqError::RankDeficient`]
/// when too few of the `xs` are distinct.
pub fn fit_poly<const C: usize>(xs: &[f64], ys: &[f64]) -> Result<[f64; C], LsqError> {
    let mut rows: Vec<[f64; C]> = xs
        .iter()
        .map(|&x| {
            let mut row = [1.0; C];
            for j in (0..C.saturating_sub(1)).rev() {
                row[j] = row[j + 1] * x;
            }
            row
        })
        .collect();
    lstsq(&mut rows, &mut ys.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r_squared;

    #[test]
    fn horner_matches_direct() {
        // 2x² + 3x + 4 at x = 5 → 50 + 15 + 4.
        assert_eq!(eval_poly(&[2.0, 3.0, 4.0], 5.0), 69.0);
        assert_eq!(eval_poly(&[7.0], 100.0), 7.0);
    }

    #[test]
    fn cubic_recovered_exactly_from_four_points() {
        let truth = [1e-9, -2e-5, 3e-2, 1.0];
        let xs = [400.0, 800.0, 1200.0, 1600.0];
        let ys: Vec<f64> = xs.iter().map(|&x| eval_poly(&truth, x)).collect();
        let c = fit_poly::<4>(&xs, &ys).unwrap();
        for (got, want) in c.iter().zip(&truth) {
            assert!(
                (got - want).abs() < 1e-9 * want.abs().max(1.0),
                "got {got}, want {want}"
            );
        }
        for (&x, &y) in xs.iter().zip(&ys) {
            assert!((eval_poly(&c, x) - y).abs() < 1e-9 * y.abs().max(1.0));
        }
    }

    #[test]
    fn too_few_points_is_underdetermined() {
        assert!(matches!(
            fit_poly::<4>(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]),
            Err(LsqError::Underdetermined { .. })
        ));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(matches!(
            fit_poly::<2>(&[1.0, 2.0], &[1.0]),
            Err(LsqError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn overdetermined_quadratic_smooths_noise() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| x * x + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let c = fit_poly::<3>(&xs, &ys).unwrap();
        assert!((c[0] - 1.0).abs() < 1e-3);
        let pred: Vec<f64> = xs.iter().map(|&x| eval_poly(&c, x)).collect();
        assert!(r_squared(&ys, &pred) > 0.999999);
    }
}
