//! Seedable, portable pseudo-random numbers: SplitMix64 for seeding and
//! hashing, xorshift128+ for the stream.
//!
//! The generators are deterministic functions of their seed on every
//! platform, which is what the measurement campaigns, the HPL test-matrix
//! generator and the property-test harness all rely on. Not
//! cryptographic.

/// One step of the SplitMix64 sequence: advances `state` and returns the
/// next output. Also usable as a 64-bit finalizer/hash by seeding with
/// the value to mix.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xorshift128+ generator seeded via SplitMix64 (the reference seeding
/// procedure, so a zero seed is fine).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng64 {
    s0: u64,
    s1: u64,
}

impl Rng64 {
    /// Creates a generator whose stream is a pure function of `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s0 = splitmix64(&mut sm);
        let s1 = splitmix64(&mut sm);
        Rng64 { s0, s1 }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.s0;
        let y = self.s1;
        self.s0 = y;
        x ^= x << 23;
        self.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        self.s1.wrapping_add(y)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range [{lo}, {hi})"
        );
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform `usize` in `[0, n)` by rejection sampling (unbiased).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn range_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        let n64 = n as u64;
        // Rejection zone keeps the modulo unbiased.
        let zone = u64::MAX - u64::MAX % n64;
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % n64) as usize;
            }
        }
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "bad range [{lo}, {hi}]");
        lo + self.range_usize(hi - lo + 1)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.range_usize(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::seed_from_u64(7);
        let mut b = Rng64::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::seed_from_u64(3);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_usize_covers_all_residues() {
        let mut r = Rng64::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.range_usize(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::seed_from_u64(5);
        let mut xs: Vec<usize> = (0..20).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
