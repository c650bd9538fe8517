//! End-to-end and per-layer benchmark of the estimation stack.
//!
//! ```text
//! etm-perfbench --workload <query|stream-refit|closed-loop> --seed <n>
//!               --seconds <s> --trace <0|1>
//! ```
//!
//! The process must be confined to one CPU (`taskset -c <cpu> …`); it
//! refuses to report otherwise. `perfbench/run.py` builds and pins it.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1`, the per-layer
//! ones. The exit code is non-zero on any reference mismatch.

mod harness;
mod host;
mod report;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use etm_core::MeasurementDb;
use etm_search::SearchResult;

use crate::harness::Harness;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["query", "stream-refit", "closed-loop"];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A field of `/proc/self/status`.
fn status_field(name: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// The CPU the process is confined to, if it is exactly one.
fn pinned_cpu() -> Option<usize> {
    status_field("Cpus_allowed_list")?.parse().ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("etm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(cpu) = pinned_cpu() else {
        eprintln!(
            "etm-perfbench: refusing to report: Cpus_allowed_list is {:?}, not one CPU \
             (run under `taskset -c <cpu>`)",
            status_field("Cpus_allowed_list")
        );
        return ExitCode::from(3);
    };
    println!(
        "workload {} seed {} seconds {} trace {} cpu {cpu}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let run = match args.workload.as_str() {
        "query" => workloads::query,
        "stream-refit" => workloads::stream_refit,
        _ => workloads::closed_loop,
    };
    let mut h = Harness::new();
    // Set-up seconds as measured, and scaled to the reference host
    // speed by the probes that bracket each set-up.
    let mut setup_raw = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup_ok = true;
    if args.trace {
        h.tr.set_enabled(true);
        let (c, secs) = setup::build(&mut h.tr);
        setup_raw.push(secs);
        setup_ok &= setup::trace_layers(&c, &mut h.tr);
        h.tr.set_enabled(false);
        // Re-probe so the first window is bracketed by a fresh reading.
        h.reprobe();
        run(&c, args.seed, args.seconds, true, &mut h);
    } else {
        // The timed phase runs in one slice after each set-up, so the
        // run samples the host at several points of its duration.
        // Of the first set-up only its database and recommendation are
        // kept, so peak memory counts one engine, as in a traced run.
        let mut first: Option<(MeasurementDb, SearchResult)> = None;
        for _ in 0..SETUPS {
            let (c, secs) = setup::build(&mut h.tr);
            setup_raw.push(secs);
            setup_s.push(secs * h.reprobe());
            run(&c, args.seed, args.seconds / SETUPS as f64, false, &mut h);
            match &first {
                Some((db, rec)) => {
                    setup_ok &= setup::dbs_bit_equal(db, &c.db)
                        && rec.config == c.first.config
                        && rec.time.to_bits() == c.first.time.to_bits();
                }
                None => first = Some((c.db, c.first)),
            }
        }
    }
    let correct = setup_ok && h.out.failed == 0 && h.out.mismatch_count == 0;
    if !setup_ok {
        println!("mismatch: repeated set-ups or the traced replay disagree");
    }
    for m in &h.out.mismatches {
        println!("mismatch: {m}");
    }
    if h.out.mismatch_count > h.out.mismatches.len() as u64 {
        println!(
            "mismatch: {} more not shown",
            h.out.mismatch_count - h.out.mismatches.len() as u64
        );
    }
    if let Some(c) = h.out.cluster_s_per_step {
        println!(
            "cluster_s_per_step {} s (virtual seconds per loop step, untimed pass)",
            report::json_number(c)
        );
    }
    let metrics = if args.trace {
        report::per_layer(&args.workload, &h, setup_raw[0])
    } else {
        report::end_to_end(&mut h, &setup_raw, &setup_s)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        h.out.attempted,
        h.out.failed,
        metrics
            .iter()
            .map(|(name, value, unit)| format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                report::json_number(*value)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
