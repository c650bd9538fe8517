//! Deterministic matrix/vector generators.
//!
//! HPL generates its test matrix with a portable pseudo-random generator
//! so every process can reproduce any block locally. We keep that spirit:
//! everything is seeded, so distributed generation (each rank building
//! only its own block-cyclic columns) agrees with monolithic generation.

use etm_support::rng::Rng64;

use crate::Matrix;

/// Uniform(-0.5, 0.5) matrix from a seed — the HPL test-matrix
/// distribution.
pub fn seeded_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.range_f64(-0.5, 0.5))
}

/// Uniform(-0.5, 0.5) vector from a seed.
pub fn seeded_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n).map(|_| rng.range_f64(-0.5, 0.5)).collect()
}

/// Generates a single element `(i, j)` of the virtual `n × n` HPL matrix
/// for a given seed, independent of any other element.
///
/// This is the *distributed generation* primitive: a rank that owns only
/// some block-cyclic columns can materialize exactly its share, and the
/// result is identical to slicing [`hpl_matrix`]. The construction hashes
/// `(seed, i, j)` with SplitMix64 and maps to Uniform(-0.5, 0.5).
pub fn hpl_element(seed: u64, i: usize, j: usize) -> f64 {
    let mut z = seed
        .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(1 + i as u64))
        .wrapping_add(0xbf58476d1ce4e5b9u64.wrapping_mul(1 + j as u64));
    // SplitMix64 finalizer.
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) - 0.5
}

/// The full `n × n` HPL test matrix for a seed (see [`hpl_element`]).
pub fn hpl_matrix(n: usize, seed: u64) -> Matrix {
    Matrix::from_fn(n, n, |i, j| hpl_element(seed, i, j))
}

/// The length-`n` HPL right-hand side for a seed (column `n` of the
/// virtual augmented matrix, as HPL generates `[A | b]` together).
pub fn hpl_rhs(n: usize, seed: u64) -> Vec<f64> {
    (0..n).map(|i| hpl_element(seed, i, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_matrix_is_reproducible() {
        let a = seeded_matrix(4, 5, 42);
        let b = seeded_matrix(4, 5, 42);
        assert_eq!(a, b);
        let c = seeded_matrix(4, 5, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn elements_in_range() {
        let m = seeded_matrix(10, 10, 7).into_col_major();
        assert!(m.iter().all(|&v| (-0.5..0.5).contains(&v)));
        let x = hpl_matrix(10, 7).into_col_major();
        assert!(x.iter().all(|&v| (-0.5..=0.5).contains(&v)));
    }

    #[test]
    fn hpl_element_matches_matrix_slicing() {
        let n = 8;
        let seed = 99;
        let full = hpl_matrix(n, seed);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(full[(i, j)], hpl_element(seed, i, j));
            }
        }
        let rhs = hpl_rhs(n, seed);
        assert_eq!(rhs[3], hpl_element(seed, 3, n));
    }

    #[test]
    fn hpl_elements_look_uniform() {
        // Crude sanity: mean near 0, spread over the interval.
        let n = 64;
        let m = hpl_matrix(n, 1).into_col_major();
        let mean: f64 = m.iter().sum::<f64>() / (n * n) as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        let lo = m.iter().filter(|v| **v < -0.4).count();
        let hi = m.iter().filter(|v| **v > 0.4).count();
        assert!(lo > 100 && hi > 100, "tails lo={lo} hi={hi}");
    }
}
