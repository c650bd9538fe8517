//! In-place Householder QR factorization.
//!
//! [`FactoredDesign`](crate::FactoredDesign) (and through it
//! [`lstsq`](crate::lstsq)) computes `min ‖Xc − y‖₂` the numerically
//! stable way: factor `X = QR` with Householder reflections, apply `Qᵀ`
//! to `y`, and back-substitute against the upper-triangular `R`. The
//! reflectors overwrite the lower trapezoid of the caller's rows and `R`
//! the upper triangle, exactly like LAPACK's `dgeqrf`; τ lives on the
//! stack, so a factorization allocates nothing.

use crate::LsqError;

/// Factors `rows` (`m × C`, `m ≥ C`) in place and returns the
/// Householder scalar τ of each column.
pub(crate) fn factor<const C: usize>(rows: &mut [[f64; C]]) -> [f64; C] {
    let mut tau = [0.0; C];
    for k in 0..C {
        // Build the Householder reflector annihilating column k below
        // the diagonal.
        let mut norm2 = 0.0;
        for r in &rows[k..] {
            norm2 += r[k] * r[k];
        }
        let norm = norm2.sqrt();
        if norm == 0.0 {
            continue;
        }
        let (head, tail) = rows[k..].split_first_mut().expect("k < m");
        let akk = head[k];
        let alpha = if akk >= 0.0 { -norm } else { norm };
        let v0 = akk - alpha;
        // Normalize so the reflector's first component is 1.
        for r in tail.iter_mut() {
            r[k] /= v0;
        }
        tau[k] = -v0 / alpha;
        head[k] = alpha;
        // Apply the reflector to the remaining columns:
        // A := (I − τ v vᵀ) A.
        for j in (k + 1)..C {
            let mut dot = head[j];
            for r in tail.iter() {
                dot += r[k] * r[j];
            }
            let scale = tau[k] * dot;
            head[j] -= scale;
            for r in tail.iter_mut() {
                r[j] -= scale * r[k];
            }
        }
    }
    tau
}

/// Applies the factored `Qᵀ` to `y` in place.
pub(crate) fn apply_qt<const C: usize>(rows: &[[f64; C]], tau: &[f64; C], y: &mut [f64]) {
    for k in 0..C {
        if tau[k] == 0.0 {
            continue;
        }
        let mut dot = y[k];
        for (r, &yi) in rows[k + 1..].iter().zip(&y[k + 1..]) {
            dot += r[k] * yi;
        }
        let scale = tau[k] * dot;
        y[k] -= scale;
        for (r, yi) in rows[k + 1..].iter().zip(&mut y[k + 1..]) {
            *yi -= scale * r[k];
        }
    }
}

/// Cheap condition-number estimate of a design matrix, used by the
/// model-validity audit to warn about ill-conditioned fitting bases
/// before coefficients go bad: the ratio `max|r_jj| / min|r_jj|` over
/// the diagonal of the same `R` [`lstsq`](crate::lstsq) factors (`rows` is
/// overwritten with it).
///
/// This lower-bounds the true 2-norm condition number, which is all an
/// audit needs: a large ratio already certifies a badly conditioned
/// basis. Returns `f64::INFINITY` for a numerically singular `R`.
///
/// # Errors
/// [`LsqError::Underdetermined`] when there are fewer rows than columns.
pub fn condition_estimate<const C: usize>(rows: &mut [[f64; C]]) -> Result<f64, LsqError> {
    if rows.len() < C {
        return Err(LsqError::Underdetermined {
            rows: rows.len(),
            cols: C,
        });
    }
    factor(rows);
    let mut lo = f64::INFINITY;
    let mut hi = 0.0_f64;
    for (j, r) in rows.iter().enumerate().take(C) {
        let d = r[j].abs();
        lo = lo.min(d);
        hi = hi.max(d);
    }
    Ok(if lo == 0.0 { f64::INFINITY } else { hi / lo })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq;

    fn solve<const C: usize>(mut rows: Vec<[f64; C]>, y: &[f64]) -> [f64; C] {
        lstsq(&mut rows, &mut y.to_vec()).unwrap()
    }

    #[test]
    fn exact_square_system() {
        // [2 1; 1 3] c = [4; 7] -> c = [1, 2].
        let c = solve(vec![[2.0, 1.0], [1.0, 3.0]], &[4.0, 7.0]);
        assert!((c[0] - 1.0).abs() < 1e-12);
        assert!((c[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_consistent_system() {
        // y = 3x + 1 sampled at 5 points, no noise.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let rows: Vec<[f64; 2]> = xs.iter().map(|&x| [x, 1.0]).collect();
        let y: Vec<f64> = xs.iter().map(|&x| 3.0 * x + 1.0).collect();
        let c = solve(rows, &y);
        assert!((c[0] - 3.0).abs() < 1e-12);
        assert!((c[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Inconsistent system: best fit of a constant to [0, 1] is 0.5.
        let c = solve(vec![[1.0], [1.0]], &[0.0, 1.0]);
        assert!((c[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn underdetermined_rejected() {
        assert!(matches!(
            lstsq(&mut [[1.0, 2.0]], &mut [1.0]),
            Err(LsqError::Underdetermined { rows: 1, cols: 2 })
        ));
    }

    #[test]
    fn rank_deficient_detected() {
        // Second column is 2x the first.
        assert!(matches!(
            lstsq(
                &mut [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]],
                &mut [1.0, 2.0, 3.0]
            ),
            Err(LsqError::RankDeficient { .. })
        ));
    }

    #[test]
    fn condition_estimate_flags_near_collinear_basis() {
        let cw = condition_estimate(&mut [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]).unwrap();
        let ci =
            condition_estimate(&mut [[1.0, 1.0], [1.0, 1.0 + 1e-12], [1.0, 1.0 - 1e-12]]).unwrap();
        assert!(cw < 10.0, "well-conditioned basis reported {cw}");
        assert!(ci > 1e10, "near-collinear basis reported {ci}");
    }

    #[test]
    fn badly_scaled_polynomial_basis() {
        // N³ up to ~1e12 alongside a constant column: QR must stay stable.
        let ns = [400.0, 800.0, 1600.0, 3200.0, 6400.0, 9600.0f64];
        let rows: Vec<[f64; 4]> = ns.iter().map(|&n| [n * n * n, n * n, n, 1.0]).collect();
        let truth = [3.5e-10, 2.0e-7, 1.0e-4, 0.3];
        let y: Vec<f64> = rows
            .iter()
            .map(|r| r.iter().zip(&truth).map(|(a, b)| a * b).sum())
            .collect();
        let c = solve(rows, &y);
        for (got, want) in c.iter().zip(&truth) {
            assert!(
                (got - want).abs() <= 1e-6 * want.abs().max(1e-12),
                "got {got}, want {want}"
            );
        }
    }
}
