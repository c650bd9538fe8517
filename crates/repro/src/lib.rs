//! # etm-repro — experiment regeneration harness
//!
//! One module per table/figure of the paper; the `repro` binary drives
//! them (`repro all` regenerates everything into `results/`). Each
//! experiment is a library function returning structured rows so the
//! std-harness benches in `etm-bench` can measure the same code paths.
//! [`stream`] goes beyond the paper: it replays the same campaigns as
//! online measurement streams with §4 re-optimization and A/B-compares
//! fitting backends on pinned snapshots. [`chaos`] injects seeded
//! faults into those streams and scores the degradation ladder's
//! invariants. [`pareto`] audits the anytime pruned optimizer against the
//! exhaustive §4 sweep and emits the time×energy Pareto front.
//! [`loopback`] closes the predict → execute → learn loop: it executes
//! each recommendation on the discrete-event substrate under seeded
//! execution-side fault plans and scores regret, breaker exactness,
//! and the fault-free bit-identity baseline.

pub mod chaos;
pub mod correlate;
pub mod experiments;
pub mod loopback;
pub mod pareto;
pub mod stream;
pub mod table;

/// Output directory for CSV artifacts, relative to the invocation cwd.
pub(crate) const RESULTS_DIR: &str = "results";

/// Writes `name.csv` under `RESULTS_DIR` (`results/`) with a header row.
///
/// # Panics
/// Panics on I/O failure (the harness is a batch tool; failing loudly is
/// correct).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = std::path::Path::new(RESULTS_DIR);
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.csv"));
    let mut body = String::with_capacity(rows.len() * 32 + header.len() + 1);
    body.push_str(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  wrote {}", path.display());
}
