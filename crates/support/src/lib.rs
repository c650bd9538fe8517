//! # etm-support — the workspace's zero-dependency substrate
//!
//! Everything here exists so the rest of the workspace can build with an
//! empty cargo registry and no network: a seedable PRNG ([`rng`]), a
//! minimal JSON value/parser/writer with derive-free conversion traits
//! ([`json`]), lock-free scoped data-parallel helpers with an
//! order-preserving [`pool::par_map`], stable FNV-1a content hashing
//! ([`hash`]) and a deterministic property-test harness ([`prop`]).
//!
//! The `cargo xtask check` hermeticity lint enforces that no crate in the
//! workspace reintroduces a registry dependency; this crate is what they
//! use instead.

pub mod hash;
pub mod json;
pub mod pool;
pub mod prop;
pub mod rng;
