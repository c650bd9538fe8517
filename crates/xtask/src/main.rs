//! `cargo xtask` — the workspace's manifest gate and bench-store tools.
//!
//! `cargo xtask check` runs the hermeticity check over every
//! `Cargo.toml` (run by `scripts/ci.sh`, offline, with an empty cargo
//! cache): every dependency is a path (or workspace-inherited path)
//! dependency, so no registry or git dependency can sneak in, and every
//! manifest opts in to the workspace's declared lints (`[lints]
//! workspace = true`). The source policy itself is those lints, which
//! clippy enforces, and the model-validity audit is a tier-1 test
//! (`crates/core/tests/audit.rs`).
//!
//! `cargo xtask bench-diff <old> <new> [--threshold [SUITE=]PCT]...`
//! compares two `BENCH_<suite>.json` baselines written by the
//! `etm-bench` harness and fails on median regressions; `--threshold`
//! repeats, and a `SUITE=PCT` form overrides the gate for that one
//! suite. `cargo xtask bench-diff --latest <new> [--threshold
//! [SUITE=]PCT]...` instead diffs against — and then updates — the
//! per-commit baseline store under `results/bench/<short-sha>/`.
//!
//! `cargo xtask bench-trend [suite...]` renders the store's history
//! (`results/bench/index.log`) as one markdown table of medians per
//! commit and suite, written to `results/bench/TREND.md`.

mod benchdiff;
mod hermetic;
mod trend;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask check\n       \
         cargo xtask bench-diff <old.json> <new.json> [--threshold [SUITE=]PCT]...\n       \
         cargo xtask bench-diff --latest <new.json> [--threshold [SUITE=]PCT]...\n       \
         cargo xtask bench-trend [suite...]\n\n\
         check: path-only dependencies and the workspace lint opt-in in every manifest"
    );
    ExitCode::from(2)
}

/// `bench-diff` argument parsing + execution.
fn run_bench_diff(rest: &[String]) -> ExitCode {
    let mut paths: Vec<&str> = Vec::new();
    let mut thresholds = benchdiff::Thresholds::default();
    let mut latest = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg == "--threshold" {
            let Some(spec) = it.next() else {
                eprintln!("--threshold needs a percentage or SUITE=PCT");
                return usage();
            };
            if let Err(e) = thresholds.push_spec(spec) {
                eprintln!("{e}");
                return usage();
            }
        } else if arg == "--latest" {
            latest = true;
        } else {
            paths.push(arg);
        }
    }
    let result = if latest {
        let [new] = paths[..] else {
            return usage();
        };
        println!("==> bench-diff --latest {new}");
        benchdiff::run_latest(&workspace_root(), new, &thresholds)
    } else {
        let [old, new] = paths[..] else {
            return usage();
        };
        println!("==> bench-diff {old} -> {new}");
        benchdiff::run(old, new, &thresholds)
    };
    match result {
        Ok(failures) if failures.is_empty() => {
            println!("bench-diff: no median regressions");
            ExitCode::SUCCESS
        }
        Ok(failures) => {
            for f in &failures {
                println!("    FAIL: {f}");
            }
            println!("bench-diff: {} regression(s)", failures.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench-diff: ERROR: {e}");
            ExitCode::FAILURE
        }
    }
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
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    if cmd == "bench-diff" {
        return run_bench_diff(rest);
    }
    if cmd == "bench-trend" {
        println!("==> bench-trend");
        return match trend::run(&workspace_root(), rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bench-trend: ERROR: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cmd != "check" || !rest.is_empty() {
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
