//! Zero-dependency Rust source indexer, left over from the retired
//! P001–P005 policy analyzer.
//!
//! A lossless Rust [`lexer`], a structural [`scan`]ner (matched
//! delimiters and precise `#[cfg(test)]` regions) and a [`workspace`]
//! loader that indexes every `.rs` file under the workspace's `src/`
//! trees. Nothing gates on it: the rules are declared as rustc and
//! clippy lints in the root `Cargo.toml` and `clippy.toml` (see
//! `DESIGN.md` §12), and the rule passes are gone. The crate is kept,
//! with its own tests, only until a later change deletes it whole.

pub mod lexer;
pub mod scan;
pub mod workspace;

pub use workspace::Workspace;
