//! Property tests for the least-squares kernel, driven by the
//! deterministic in-tree harness ([`etm_support::prop`]). Every run uses
//! the same frozen seeds, so failures reproduce exactly. Residuals and
//! predictions are computed here from the returned coefficients.

use etm_lsq::lstsq;
use etm_support::prop::{check, gen};
use etm_support::rng::Rng64;

/// A small vector of well-separated ascending abscissae.
fn separated_xs(rng: &mut Rng64, min_len: usize, max_len: usize) -> Vec<f64> {
    let gaps = gen::vec_f64(rng, min_len, max_len, 0.1, 10.0);
    let mut x = 1.0;
    gaps.into_iter()
        .map(|g| {
            x += g;
            x
        })
        .collect()
}

/// Solves on copies, leaving the caller's rows and observations intact.
fn fit<const C: usize>(rows: &[[f64; C]], ys: &[f64]) -> [f64; C] {
    lstsq(&mut rows.to_vec(), &mut ys.to_vec()).expect("well-posed fit")
}

/// `row · c`.
fn predict<const C: usize>(row: &[f64; C], c: &[f64; C]) -> f64 {
    row.iter().zip(c).map(|(x, k)| x * k).sum()
}

/// Fitting noise-free quadratic samples on the `[x², x, 1]` basis
/// reproduces them (coefficients may trade off only when
/// ill-conditioned; predictions must match regardless).
#[test]
fn polyfit_interpolates_noise_free_samples() {
    check(64, 0x4c53_5131, |rng| {
        let xs = separated_xs(rng, 5, 10);
        let truth = [
            rng.range_f64(-2.0, 2.0),
            rng.range_f64(-2.0, 2.0),
            rng.range_f64(-2.0, 2.0),
        ];
        let rows: Vec<[f64; 3]> = xs.iter().map(|&x| [x * x, x, 1.0]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| predict(r, &truth)).collect();
        let c = fit(&rows, &ys);
        for ((r, &y), &x) in rows.iter().zip(&ys).zip(&xs) {
            let scale = y.abs().max(1.0);
            let got = predict(r, &c);
            assert!(
                (got - y).abs() < 1e-7 * scale,
                "at x={x}: fit={got} truth={y}"
            );
        }
    });
}

/// OLS residuals are orthogonal to every regressor column (the normal
/// equations), regardless of the data.
#[test]
fn residuals_orthogonal_to_design_columns() {
    check(64, 0x4c53_5132, |rng| {
        let xs = separated_xs(rng, 6, 12);
        let n = xs.len();
        let ys = gen::vec_f64(rng, n, n, -100.0, 100.0);
        let rows: Vec<[f64; 3]> = xs.iter().map(|&x| [x * x, x, 1.0]).collect();
        let c = fit(&rows, &ys);
        let residuals: Vec<f64> = rows
            .iter()
            .zip(&ys)
            .map(|(r, y)| y - predict(r, &c))
            .collect();
        for col in 0..3 {
            let dot: f64 = residuals.iter().zip(&rows).map(|(e, r)| e * r[col]).sum();
            let scale: f64 = rows.iter().map(|r| r[col].abs()).sum::<f64>()
                * ys.iter().map(|y| y.abs()).fold(1.0, f64::max);
            assert!(
                dot.abs() <= 1e-8 * scale.max(1.0),
                "column {col}: dot={dot}"
            );
        }
    });
}

/// The OLS solution minimizes the residual sum of squares: perturbing
/// any coefficient can only increase it.
#[test]
fn ols_is_a_minimum() {
    check(64, 0x4c53_5133, |rng| {
        let xs = separated_xs(rng, 5, 8);
        let n = xs.len();
        let ys = gen::vec_f64(rng, n, n, -10.0, 10.0);
        let delta = rng.range_f64(-0.5, 0.5);
        let which = rng.range_usize(2);
        let rows: Vec<[f64; 2]> = xs.iter().map(|&x| [x, 1.0]).collect();
        let c = fit(&rows, &ys);
        let rss = |c: &[f64; 2]| -> f64 {
            rows.iter()
                .zip(&ys)
                .map(|(r, y)| (predict(r, c) - y) * (predict(r, c) - y))
                .sum()
        };
        let mut perturbed = c;
        perturbed[which] += delta;
        let (optimal, ss) = (rss(&c), rss(&perturbed));
        assert!(
            ss + 1e-9 >= optimal,
            "perturbed SS {ss} < optimal {optimal}"
        );
    });
}

/// A two-column `[x, 1]` fit (the affine shape of the §4.1 adjustment)
/// recovers exact affine data.
#[test]
fn linear_transform_recovers_affine_maps() {
    check(64, 0x4c53_5134, |rng| {
        let xs = separated_xs(rng, 2, 6);
        let a = rng.range_f64(-5.0, 5.0);
        let b = rng.range_f64(-5.0, 5.0);
        let rows: Vec<[f64; 2]> = xs.iter().map(|&x| [x, 1.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| a * x + b).collect();
        let [scale, offset] = fit(&rows, &ys);
        assert!((scale - a).abs() < 1e-8, "scale {scale} vs {a}");
        assert!((offset - b).abs() < 1e-7, "offset {offset} vs {b}");
    });
}
