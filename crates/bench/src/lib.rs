//! A minimal, std-only benchmark harness — the in-tree replacement for
//! criterion, so the hermetic build keeps its timing suites.
//!
//! Each `benches/*.rs` target is a plain binary (`harness = false`) that
//! builds a [`Runner`], registers closures with [`Runner::bench`], and
//! prints a table from [`Runner::finish`]. Iteration counts are
//! auto-calibrated so every sample runs long enough for `Instant` to
//! resolve it; set `ETM_BENCH_SAMPLES` to trade precision for wall time
//! (default 10, minimum 2).
//!
//! Besides the human-readable table, `finish` writes a machine-readable
//! baseline `BENCH_<suite>.json` into the directory named by the
//! `ETM_BENCH_OUT` environment variable (when set). Two such baselines
//! diff with `cargo xtask bench-diff <old> <new>`, which fails on median
//! regressions — the CI full tier's replacement for criterion's
//! `--save-baseline` workflow.

pub use std::hint::black_box;

use std::time::{Duration, Instant};

use etm_support::json::{to_string_pretty, Json, ToJson};

/// Target duration of one timed sample. Short enough that even the
/// heavyweight simulation benches finish in seconds, long enough that
/// timer quantization is negligible.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);

struct Row {
    name: String,
    iters: u64,
    samples: usize,
    min_ns: f64,
    median_ns: f64,
    mean_ns: f64,
    max_ns: f64,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_string(), self.name.to_json()),
            ("iters".to_string(), self.iters.to_json()),
            ("samples".to_string(), self.samples.to_json()),
            ("min_ns".to_string(), self.min_ns.to_json()),
            ("median_ns".to_string(), self.median_ns.to_json()),
            ("mean_ns".to_string(), self.mean_ns.to_json()),
            ("max_ns".to_string(), self.max_ns.to_json()),
        ])
    }
}

/// Collects benchmark timings and renders them as a table plus an
/// optional JSON baseline.
pub struct Runner {
    suite: String,
    samples: usize,
    rows: Vec<Row>,
}

impl Runner {
    /// Creates a runner for a named suite (one per bench binary).
    pub fn new(suite: &str) -> Self {
        let samples = std::env::var("ETM_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(10)
            .max(2);
        Runner {
            suite: suite.to_string(),
            samples,
            rows: Vec::new(),
        }
    }

    /// Times `f`, auto-calibrating how many calls make up one sample.
    /// The closure's return value is passed through [`black_box`] so the
    /// optimizer cannot delete the work.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Warm-up call doubles as the calibration probe.
        let probe_start = Instant::now();
        black_box(f());
        let probe = probe_start.elapsed().max(Duration::from_nanos(1));
        let iters = (SAMPLE_TARGET.as_nanos() / probe.as_nanos()).clamp(1, 10_000_000) as u64;
        // Heavyweight workloads (whole simulated HPL runs) get fewer
        // samples so a full suite stays in minutes.
        let samples = if probe > Duration::from_millis(200) {
            self.samples.min(3)
        } else {
            self.samples
        };

        let mut per_iter_ns: Vec<f64> = (0..samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let mean_ns = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
        self.rows.push(Row {
            name: name.to_string(),
            iters,
            samples,
            min_ns: per_iter_ns[0],
            median_ns: per_iter_ns[per_iter_ns.len() / 2],
            mean_ns,
            max_ns: per_iter_ns[per_iter_ns.len() - 1],
        });
    }

    /// Prints the collected rows, writes the `BENCH_<suite>.json`
    /// baseline when `ETM_BENCH_OUT` names a directory, and consumes
    /// the runner.
    pub fn finish(self) {
        println!("\n== {} ==", self.suite);
        let width = self.rows.iter().map(|r| r.name.len()).max().unwrap_or(4);
        for r in &self.rows {
            println!(
                "{:width$}  median {:>10}  (min {:>10}, mean {:>10}, max {:>10}; {} samples x {} iters)",
                r.name,
                fmt_ns(r.median_ns),
                fmt_ns(r.min_ns),
                fmt_ns(r.mean_ns),
                fmt_ns(r.max_ns),
                r.samples,
                r.iters,
            );
        }
        if let Ok(dir) = std::env::var("ETM_BENCH_OUT") {
            let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.suite));
            let write = || -> std::io::Result<()> {
                std::fs::create_dir_all(&dir)?;
                std::fs::write(&path, to_string_pretty(&self.baseline_json()))
            };
            match write() {
                Ok(()) => println!("baseline -> {}", path.display()),
                Err(e) => eprintln!("could not write baseline {}: {e}", path.display()),
            }
        }
    }

    /// The machine-readable baseline document.
    fn baseline_json(&self) -> Json {
        Json::Obj(vec![
            ("suite".to_string(), self.suite.to_json()),
            ("rows".to_string(), self.rows.to_json()),
        ])
    }
}

/// Renders nanoseconds with an adaptive unit.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_times_and_reports() {
        let mut r = Runner::new("selftest");
        let mut count = 0u64;
        r.bench("counter", || {
            count += 1;
            count
        });
        assert_eq!(r.rows.len(), 1);
        let row = &r.rows[0];
        assert!(row.min_ns <= row.median_ns && row.median_ns <= row.max_ns);
        assert!(row.min_ns <= row.mean_ns && row.mean_ns <= row.max_ns);
        assert!(row.iters >= 1);
        // warm-up + samples*iters calls happened.
        assert_eq!(count, 1 + row.samples as u64 * row.iters);
        r.finish();
    }

    #[test]
    fn baseline_json_is_machine_readable() {
        let mut r = Runner::new("jsontest");
        r.bench("noop", || 1u8);
        let text = to_string_pretty(&r.baseline_json());
        let doc = etm_support::json::parse(&text).unwrap();
        assert_eq!(doc.field::<String>("suite").unwrap(), "jsontest");
        let rows: Vec<Json> = doc.field("rows").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].field::<String>("name").unwrap(), "noop");
        assert!(rows[0].field::<f64>("median_ns").unwrap() >= 0.0);
        assert!(rows[0].field::<f64>("mean_ns").unwrap() >= 0.0);
        assert!(rows[0].field::<f64>("min_ns").unwrap() >= 0.0);
    }

    #[test]
    fn units_format_sensibly() {
        assert!(fmt_ns(5.0).ends_with("ns"));
        assert!(fmt_ns(5.0e4).ends_with("us"));
        assert!(fmt_ns(5.0e7).ends_with("ms"));
        assert!(fmt_ns(5.0e9).ends_with("s"));
    }
}
