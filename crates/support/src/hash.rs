//! Stable, dependency-free content hashing: 64-bit FNV-1a.
//!
//! `std::hash::DefaultHasher` makes no stability promise across Rust
//! releases, so a digest committed to a test (the golden digests of
//! simulated virtual times in `etm-hpl`) hashes with this instead.
//! FNV-1a is tiny, well-specified, and plenty for that — these are
//! content fingerprints, not cryptographic digests.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv1a_64(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.update(bytes);
        h.finish()
    }

    /// Reference vectors from the FNV specification (Noll's test suite).
    #[test]
    fn matches_reference_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        assert_ne!(fnv1a_64(b"plan-a"), fnv1a_64(b"plan-b"));
        assert_ne!(fnv1a_64(b"ab"), fnv1a_64(b"ba"));
    }
}
