//! Timing the static analyzer itself. CI gates on `cargo xtask
//! analyze` every run, so a lexer or pass slowdown is a CI slowdown —
//! this suite feeds the same bench-diff store as the model benches and
//! catches regressions the same way. Benched over the real workspace
//! so the numbers track the tree as it grows.

use std::path::Path;

use etm_analyze::lexer::lex;
use etm_analyze::{all_passes, analyze_root, run_passes, Baseline, Workspace};
use etm_bench::{black_box, Runner};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/bench sits two levels under the workspace root")
}

/// Lexing alone: every workspace `.rs` file re-lexed from scratch.
fn lex_speed(r: &mut Runner, ws: &Workspace) {
    let texts: Vec<&str> = ws.files.iter().map(|f| f.text.as_str()).collect();
    r.bench("analyze/lex_workspace", || {
        let mut tokens = 0usize;
        for t in &texts {
            tokens += lex(t).len();
        }
        black_box(tokens)
    });
}

/// All five policy passes over a pre-indexed workspace: the pure analysis
/// cost, with IO, lexing, and item scanning already paid.
fn passes_speed(r: &mut Runner, ws: &Workspace) {
    let baseline = Baseline::load(repo_root()).expect("analyze.allow parses");
    let passes = all_passes();
    r.bench("analyze/passes_only", || {
        black_box(run_passes(ws, &baseline, &passes).diagnostics.len())
    });
}

/// The full gate exactly as CI pays for it: walk + read + lex + index
/// + every pass + baseline reconciliation.
fn full_gate_speed(r: &mut Runner) {
    r.bench("analyze/full_gate", || {
        let report = analyze_root(repo_root()).expect("workspace analyzes");
        black_box(report.files)
    });
}

fn main() {
    let mut r = Runner::new("analyze");
    let ws = Workspace::load(repo_root()).expect("workspace loads");
    lex_speed(&mut r, &ws);
    passes_speed(&mut r, &ws);
    full_gate_speed(&mut r);
    r.finish();
}
