//! # etm-support — the workspace's zero-dependency substrate
//!
//! Everything here exists so the rest of the workspace can build with an
//! empty cargo registry and no network: a seedable PRNG ([`rng`]), a
//! lock-free scoped data-parallel map that keeps item order
//! ([`pool::par_map`]), stable FNV-1a content hashing ([`hash`]) and a
//! deterministic property-test harness ([`prop`]).
//!
//! The `cargo xtask check` hermeticity lint enforces that no crate in the
//! workspace reintroduces a registry dependency; this crate is what they
//! use instead.

pub mod hash;
pub mod pool;
pub mod prop;
pub mod rng;
