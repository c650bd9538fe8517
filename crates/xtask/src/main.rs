//! `cargo xtask check` — the workspace's in-tree gate.
//!
//! Three passes, all exercised by CI (`scripts/ci.sh`) and runnable
//! offline with an empty cargo cache:
//!
//! 1. **hermetic** — every dependency in every `Cargo.toml` is a path
//!    (or workspace-inherited path) dependency, so no registry or git
//!    dependency can sneak in, and every manifest opts in to the
//!    workspace's declared lints (`[lints] workspace = true`).
//! 2. **toolchain** — `cargo clippy --workspace --all-targets -- -D
//!    warnings` and `cargo fmt --all --check`. The source policy lives
//!    in the root manifest's `[workspace.lints]` tables and in
//!    `clippy.toml`, so clippy enforces it.
//! 3. **audit** — the model-validity audit (`etm_core::validate`): fits
//!    a model bank from the simulated paper cluster and runs every
//!    registered invariant check over it, then drives a live engine
//!    into quarantine and audits the degraded snapshot's health
//!    metadata and composed-fallback coefficients.
//!
//! Run a subset with e.g. `cargo xtask check hermetic audit`.
//!
//! A second subcommand, `cargo xtask bench-diff <old> <new>
//! [--threshold [SUITE=]PCT]...`, compares two `BENCH_<suite>.json`
//! baselines written by the `etm-bench` harness and fails on median
//! regressions; `--threshold` repeats, and a `SUITE=PCT` form
//! overrides the gate for that one suite. `cargo xtask bench-diff
//! --latest <new> [--threshold [SUITE=]PCT]...` instead diffs against
//! — and then updates — the per-commit baseline store under
//! `results/bench/<short-sha>/`.
//!
//! A third, `cargo xtask bench-trend [suite...]`, renders the store's
//! history (`results/bench/index.log`) as one markdown table of medians
//! per commit and suite, written to `results/bench/TREND.md`.

mod audit;
mod benchdiff;
mod hermetic;
mod toolchain;
mod trend;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A single gate pass: a name for the CLI and a runner returning the
/// list of violations (empty = pass).
struct Pass {
    name: &'static str,
    what: &'static str,
    run: fn(&Path) -> Result<Vec<String>, String>,
}

const PASSES: [Pass; 3] = [
    Pass {
        name: "hermetic",
        what: "path-only dependencies and the workspace lint opt-in in every manifest",
        run: hermetic::run,
    },
    Pass {
        name: "toolchain",
        what: "cargo clippy -D warnings and cargo fmt --check",
        run: toolchain::run,
    },
    Pass {
        name: "audit",
        what: "model-validity audit + degraded-health metadata check",
        run: audit::run,
    },
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask check [pass...]\n       \
         cargo xtask bench-diff <old.json> <new.json> [--threshold [SUITE=]PCT]...\n       \
         cargo xtask bench-diff --latest <new.json> [--threshold [SUITE=]PCT]...\n       \
         cargo xtask bench-trend [suite...]\n\n\
         check passes (default: all, in order):"
    );
    for p in &PASSES {
        eprintln!("  {:<10} {}", p.name, p.what);
    }
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
    if cmd != "check" {
        return usage();
    }
    let selected: Vec<&Pass> = if rest.is_empty() {
        PASSES.iter().collect()
    } else {
        let mut sel = Vec::new();
        for want in rest {
            match PASSES.iter().find(|p| p.name == want) {
                Some(p) => sel.push(p),
                None => {
                    eprintln!("unknown pass `{want}`");
                    return usage();
                }
            }
        }
        sel
    };

    let root = workspace_root();
    let mut failed = false;
    for pass in selected {
        println!("==> {} ({})", pass.name, pass.what);
        match (pass.run)(&root) {
            Ok(violations) if violations.is_empty() => println!("    ok"),
            Ok(violations) => {
                failed = true;
                for v in &violations {
                    println!("    FAIL: {v}");
                }
                println!("    {} violation(s)", violations.len());
            }
            Err(e) => {
                failed = true;
                println!("    ERROR: {e}");
            }
        }
    }
    if failed {
        println!("xtask check: FAILED");
        ExitCode::FAILURE
    } else {
        println!("xtask check: all passes green");
        ExitCode::SUCCESS
    }
}
