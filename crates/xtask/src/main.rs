//! `cargo xtask check` — the workspace's manifest gate.
//!
//! It runs the hermeticity check over every `Cargo.toml` (run by
//! `scripts/ci.sh`, offline, with an empty cargo cache): every
//! dependency is a path (or workspace-inherited path) dependency, so no
//! registry or git dependency can sneak in, and every manifest opts in
//! to the workspace's declared lints (`[lints] workspace = true`). The
//! source policy itself is those lints, which clippy enforces, and the
//! model-validity audit is a tier-1 test
//! (`basic_bank_passes_the_model_audit` in `crates/core/tests/campaign.rs`).

mod hermetic;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask check\n\n\
         check: path-only dependencies and the workspace lint opt-in in every manifest"
    );
    ExitCode::from(2)
}

/// The workspace root: `cargo run -p xtask` always starts in it, and
/// `CARGO_MANIFEST_DIR` points at `crates/xtask` as a fallback when the
/// binary is invoked from elsewhere.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    match manifest.parent().and_then(Path::parent) {
        Some(root) if root.join("Cargo.toml").is_file() => root.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["check"] {
        return usage();
    }
    println!("==> hermetic (path-only dependencies, workspace lint opt-in)");
    match hermetic::run(&workspace_root()) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask check: green");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("    FAIL: {v}");
            }
            println!("xtask check: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            println!("xtask check: ERROR: {e}");
            ExitCode::FAILURE
        }
    }
}
