//! A deterministic property-test harness — the in-tree replacement for
//! proptest, driven by [`Rng64`].
//!
//! [`check`] runs a property over `cases` pseudo-random cases derived
//! from a fixed seed, so `cargo test` is fully reproducible offline. On
//! failure the panic message carries the case index and the per-case
//! seed; running the property on `Rng64::seed_from_u64(case_seed)`
//! reproduces the failure. There is no shrinking: keep generators
//! small-biased instead.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::{splitmix64, Rng64};

/// Runs `property` over `cases` deterministic pseudo-random cases.
///
/// # Panics
/// Re-raises the property's panic, prefixed (via stderr) with the case
/// index and seed that produced it.
pub fn check(cases: usize, run_seed: u64, mut property: impl FnMut(&mut Rng64)) {
    let mut s = run_seed;
    for case in 0..cases {
        let case_seed = splitmix64(&mut s);
        let mut rng = Rng64::seed_from_u64(case_seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!(
                "property failed at case {case}/{cases} (run seed {run_seed}, case seed {case_seed})"
            );
            resume_unwind(payload);
        }
    }
}

/// Generator helpers commonly needed by the workspace's properties.
pub mod gen {
    use crate::rng::Rng64;

    /// A `Vec<f64>` of length `[min_len, max_len]` with entries in
    /// `[lo, hi)`.
    pub fn vec_f64(rng: &mut Rng64, min_len: usize, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
        let len = rng.range_inclusive(min_len, max_len);
        (0..len).map(|_| rng.range_f64(lo, hi)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed the `i`-th case of a [`check`] run uses.
    fn case_seed(run_seed: u64, case: usize) -> u64 {
        let mut s = run_seed;
        let mut last = splitmix64(&mut s);
        for _ in 0..case {
            last = splitmix64(&mut s);
        }
        last
    }

    #[test]
    fn runs_every_case() {
        let mut count = 0;
        check(37, 1, |_| count += 1);
        assert_eq!(count, 37);
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = Vec::new();
        check(5, 99, |rng| a.push(rng.next_u64()));
        let mut b = Vec::new();
        check(5, 99, |rng| b.push(rng.next_u64()));
        assert_eq!(a, b);
    }

    #[test]
    fn case_seed_matches_check_order() {
        let mut seen = Vec::new();
        check(4, 7, |rng| seen.push(rng.clone()));
        for (i, rng) in seen.iter().enumerate() {
            assert_eq!(*rng, Rng64::seed_from_u64(case_seed(7, i)));
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn failures_propagate() {
        check(10, 3, |rng| {
            if rng.next_u64() % 3 == 0 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn generators_respect_bounds() {
        check(50, 11, |rng| {
            let v = gen::vec_f64(rng, 1, 8, -2.0, 3.0);
            assert!((1..=8).contains(&v.len()));
            assert!(v.iter().all(|x| (-2.0..3.0).contains(x)));
        });
    }
}
