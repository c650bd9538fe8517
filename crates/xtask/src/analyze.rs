//! Bridge to the `etm-analyze` static analyzer.
//!
//! Two entry points over the same P001–P005 policy passes:
//!
//! * [`run_lint`] — the `check lint` pass: one message per violation.
//! * [`run_full`] — the `cargo xtask analyze` gate: human output,
//!   optional JSON report, and the `analyze.allow` baseline contract
//!   (stale entries fail).

use std::path::Path;

use etm_analyze::analyze_root;

/// The `check lint` pass: one message per violation or stale
/// `analyze.allow` entry.
///
/// # Errors
/// Unreadable sources or a malformed `analyze.allow`.
pub fn run_lint(root: &Path) -> Result<Vec<String>, String> {
    let report = analyze_root(root)?;
    let mut out: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    out.extend(
        report
            .stale
            .iter()
            .map(|s| format!("stale analyze.allow: {s}")),
    );
    Ok(out)
}

/// The full analyzer gate. Prints the human report, optionally writes
/// the JSON report, and returns whether the gate is clean.
///
/// # Errors
/// Unreadable sources, a malformed `analyze.allow`, or an unwritable
/// JSON path.
pub fn run_full(root: &Path, json: Option<&Path>) -> Result<bool, String> {
    let report = analyze_root(root)?;
    print!("{}", report.render_human());
    if let Some(path) = json {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, report.render_json(&etm_analyze::rules()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("json report -> {}", path.display());
    }
    Ok(report.is_clean())
}
