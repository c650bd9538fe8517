//! Zero-dependency static policy analyzer: the retired P001–P005 rules.
//!
//! The pipeline: a lossless Rust [`lexer`], a structural [`scan`]ner
//! (matched delimiters and precise `#[cfg(test)]` regions), and a set
//! of [`passes`] that walk the indexed [`workspace`] emitting sorted
//! [`diag::Diagnostic`]s. Nothing gates on it any more: the rules are
//! declared as rustc and clippy lints in the root `Cargo.toml` and
//! `clippy.toml` (see `DESIGN.md` §12), and this crate is kept only
//! until its passes and then its lexer are deleted.
//!
//! Rule catalog:
//!
//! | ID   | name                  | checks                          |
//! |------|-----------------------|---------------------------------|
//! | P001 | unwrap-ban            | no .unwrap() outside tests      |
//! | P002 | bin-expect-ban        | no .expect( in src/bin roots    |
//! | P003 | no-placeholders       | no todo!/unimplemented!         |
//! | P004 | no-f32-narrowing      | no `as f32` in numerics crates  |
//! | P005 | crate-headers         | required crate-root lint headers|

pub mod diag;
pub mod lexer;
pub mod passes;
pub mod scan;
pub mod workspace;

pub use diag::{Diagnostic, Report, Rule};
pub use workspace::Workspace;

use passes::{Context, Pass};

/// Every pass, in rule-ID order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(passes::policy::UnwrapBanPass),
        Box::new(passes::policy::BinExpectPass),
        Box::new(passes::policy::PlaceholderPass),
        Box::new(passes::policy::F32NarrowingPass),
        Box::new(passes::policy::CrateHeadersPass),
    ]
}

/// Runs `passes` over `ws` and assembles the sorted [`Report`].
pub fn run_passes(ws: &Workspace, passes: &[Box<dyn Pass>]) -> Report {
    let mut ctx = Context::default();
    for p in passes {
        p.run(ws, &mut ctx);
    }
    let mut report = Report {
        diagnostics: ctx.diagnostics,
    };
    report.sort();
    report
}
