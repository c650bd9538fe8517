//! Property tests for the linear-algebra substrate, driven by the
//! deterministic in-tree harness ([`etm_support::prop`]).

use etm_linalg::blas3::{dgemm, dgemm_naive};
use etm_linalg::gen::{hpl_matrix, seeded_matrix, seeded_vector};
use etm_linalg::lu::{apply_pivots, dgetrf, lu_reconstruct};
use etm_linalg::solve::dgesv;
use etm_linalg::verify::residual;
use etm_linalg::Matrix;
use etm_support::prop::check;

fn close(a: &Matrix, b: &Matrix, tol: f64) -> bool {
    (0..a.cols()).all(|j| (0..a.rows()).all(|i| (a[(i, j)] - b[(i, j)]).abs() < tol))
}

/// Blocked and naive dgemm agree on arbitrary shapes.
#[test]
fn gemm_kernels_agree() {
    check(32, 0x4c41_4731, |rng| {
        let m = rng.range_inclusive(1, 23);
        let k = rng.range_inclusive(1, 23);
        let n = rng.range_inclusive(1, 23);
        let seed = rng.next_u64() % 1000;
        let alpha = rng.range_f64(-2.0, 2.0);
        let beta = rng.range_f64(-2.0, 2.0);
        let a = seeded_matrix(m, k, seed);
        let b = seeded_matrix(k, n, seed + 1);
        let c0 = seeded_matrix(m, n, seed + 2);
        let mut c1 = c0.clone();
        let mut c2 = c0;
        dgemm_naive(alpha, &a, &b, beta, &mut c1);
        dgemm(alpha, &a, &b, beta, &mut c2);
        assert!(close(&c1, &c2, 1e-10));
    });
}

/// dgemm is linear in alpha: C(2α) − C(0) = 2·(C(α) − C(0)).
#[test]
fn gemm_linear_in_alpha() {
    check(32, 0x4c41_4732, |rng| {
        let n = rng.range_inclusive(1, 11);
        let seed = rng.next_u64() % 1000;
        let alpha = rng.range_f64(-1.5, 1.5);
        let a = seeded_matrix(n, n, seed);
        let b = seeded_matrix(n, n, seed + 1);
        let mut c1 = Matrix::zeros(n, n);
        let mut c2 = Matrix::zeros(n, n);
        dgemm(alpha, &a, &b, 0.0, &mut c1);
        dgemm(2.0 * alpha, &a, &b, 0.0, &mut c2);
        for j in 0..n {
            for i in 0..n {
                assert!((2.0 * c1[(i, j)] - c2[(i, j)]).abs() < 1e-10);
            }
        }
    });
}

/// P·A = L·U for the blocked factorization at any block size.
#[test]
fn getrf_factors_reconstruct_pa() {
    check(32, 0x4c41_4733, |rng| {
        let n = rng.range_inclusive(1, 39);
        let nb = rng.range_inclusive(1, 11);
        let seed = rng.next_u64() % 10_000;
        let a0 = hpl_matrix(n, seed);
        let mut f = a0.clone();
        let piv = dgetrf(&mut f, nb).expect("non-singular HPL matrix");
        let pa = apply_pivots(&a0, &piv);
        let lu = lu_reconstruct(&f);
        assert!(close(&pa, &lu, 1e-8 * (n as f64).max(1.0)));
    });
}

/// The blocked factorization is invariant to the block size.
#[test]
fn getrf_block_size_invariance() {
    check(32, 0x4c41_4734, |rng| {
        let n = rng.range_inclusive(2, 31);
        let seed = rng.next_u64() % 10_000;
        let nb1 = rng.range_inclusive(1, 9);
        let nb2 = rng.range_inclusive(10, 39);
        let a0 = hpl_matrix(n, seed);
        let mut f1 = a0.clone();
        let mut f2 = a0;
        let p1 = dgetrf(&mut f1, nb1).expect("non-singular HPL matrix");
        let p2 = dgetrf(&mut f2, nb2).expect("non-singular HPL matrix");
        assert_eq!(p1, p2);
        assert!(close(&f1, &f2, 1e-9));
    });
}

/// dgesv solutions pass the HPL acceptance residual.
#[test]
fn solver_passes_hpl_residual() {
    check(32, 0x4c41_4735, |rng| {
        let n = rng.range_inclusive(1, 47);
        let seed = rng.next_u64() % 10_000;
        let a = hpl_matrix(n, seed);
        let b = seeded_vector(n, seed + 13);
        let x = dgesv(&a, &b, 8).expect("non-singular HPL matrix");
        let r = residual(&a, &x, &b);
        assert!(r.passes(), "n={n} scaled={}", r.scaled);
    });
}

/// Partial pivoting keeps every multiplier bounded by 1.
#[test]
fn multipliers_bounded() {
    check(32, 0x4c41_4736, |rng| {
        let n = rng.range_inclusive(2, 31);
        let seed = rng.next_u64() % 10_000;
        let mut a = hpl_matrix(n, seed);
        dgetrf(&mut a, 6).expect("non-singular HPL matrix");
        for j in 0..n {
            for i in (j + 1)..n {
                assert!(a[(i, j)].abs() <= 1.0 + 1e-12);
            }
        }
    });
}
