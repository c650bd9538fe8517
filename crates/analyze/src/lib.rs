#![deny(unsafe_code)]
#![warn(missing_docs)]
//! Zero-dependency static policy analyzer for the workspace.
//!
//! The pipeline: a lossless Rust [`lexer`], a structural [`scan`]ner
//! (matched delimiters and precise `#[cfg(test)]` regions), and a set
//! of [`passes`] that walk the indexed [`workspace`] emitting sorted
//! [`diag::Diagnostic`]s. A checked-in suppression [`baseline`]
//! (`analyze.allow`) silences deliberate findings — entries need a
//! justification, and stale entries fail the gate so the list can only
//! shrink.
//!
//! Rule catalog (stable IDs — see `DESIGN.md` §12):
//!
//! | ID   | name                  | checks                          |
//! |------|-----------------------|---------------------------------|
//! | P001 | unwrap-ban            | no .unwrap() outside tests      |
//! | P002 | bin-expect-ban        | no .expect( in src/bin roots    |
//! | P003 | no-placeholders       | no todo!/unimplemented!         |
//! | P004 | no-f32-narrowing      | no `as f32` in numerics crates  |
//! | P005 | crate-headers         | required crate-root lint headers|
//!
//! Every finding fails `cargo xtask analyze`.

pub mod baseline;
pub mod diag;
pub mod lexer;
pub mod passes;
pub mod scan;
pub mod workspace;

use std::path::Path;

pub use baseline::Baseline;
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

/// The full rule catalog in ID order.
pub fn rules() -> Vec<&'static Rule> {
    vec![
        &passes::policy::UNWRAP_BAN,
        &passes::policy::BIN_EXPECT_BAN,
        &passes::policy::NO_PLACEHOLDERS,
        &passes::policy::NO_F32_NARROWING,
        &passes::policy::CRATE_HEADERS,
    ]
}

/// Runs `passes` over `ws` under `baseline` and assembles the sorted
/// [`Report`] (including baseline staleness).
pub fn run_passes(ws: &Workspace, baseline: &Baseline, passes: &[Box<dyn Pass>]) -> Report {
    let mut ctx = Context::new(baseline);
    for p in passes {
        p.run(ws, &mut ctx);
    }
    let mut report = Report {
        diagnostics: ctx.diagnostics,
        suppressed: ctx.suppressed,
        stale: baseline.stale(),
        files: ws.files.len(),
    };
    report.sort();
    report
}

/// Loads the workspace and baseline at `root` and runs every pass — the
/// `cargo xtask analyze` entry point.
///
/// # Errors
/// Unreadable sources or a malformed `analyze.allow`.
pub fn analyze_root(root: &Path) -> Result<Report, String> {
    let ws = Workspace::load(root)?;
    let baseline = Baseline::load(root)?;
    Ok(run_passes(&ws, &baseline, &all_passes()))
}
