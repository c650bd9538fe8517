//! Metric tables: the end-to-end metrics of an untraced run, and the
//! per-layer metrics, reconciliation and prediction checks of a traced
//! run.

use crate::harness::{Harness, LatencyLog};
use crate::stats::{median, percentile, reconcile, samples_beyond};
use crate::trace::{Tracer, GLUE};

/// Largest relative gap allowed between the summed layer self times of
/// a traced operation and the untraced operation latency (means over
/// the run). The gap holds the glue between layer calls plus the
/// tracing overhead itself.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// A named metric: `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps; `null` for a non-finite value.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set (`VmHWM`) less the latency buffer, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0 - LatencyLog::RESIDENT_MB)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The end-to-end metrics of an untraced run, scaled to the reference
/// host speed (see [`crate::host`]). Before returning, prints one JSON
/// line with the same figures as measured and the host factors that
/// scaled them, so a change of the corrected metrics can be told apart
/// from a change of the correction.
pub fn end_to_end(h: &mut Harness, setup_raw: &[f64], setup_s: &[f64]) -> Vec<Metric> {
    // Read before the percentiles below allocate.
    let rss = peak_rss_mb();
    let ms = |lat: &[f64], q| percentile(lat, q).map_or(f64::NAN, |s| s * 1e3);
    let out = &h.out;
    let raw = h.lat.raw();
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| json_number(*x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let setup_factors: Vec<f64> = setup_s.iter().zip(setup_raw).map(|(c, r)| c / r).collect();
    println!(
        "{{\"as_measured\": {{\"setup_s\": {}, \"latency_p50_ms\": {}, \"latency_p90_ms\": {}, \
         \"throughput_per_s\": {}}}, \"setups_s\": [{}], \"setup_host_factors\": [{}], \
         \"host_factor\": {}, \"busy_s\": {}, \"latencies\": {}, \"beyond_p90\": {}}}",
        json_number(median(setup_raw).unwrap_or(f64::NAN)),
        json_number(ms(raw, 50.0)),
        json_number(ms(raw, 90.0)),
        json_number(out.attempted as f64 / out.busy_s),
        list(setup_raw),
        list(&setup_factors),
        json_number(out.corrected_busy_s / out.busy_s),
        json_number(out.busy_s),
        raw.len(),
        samples_beyond(raw, 90.0),
    );
    let throughput = out.attempted as f64 / out.corrected_busy_s;
    let lat = h.lat.correct();
    vec![
        ("setup_s", median(setup_s).unwrap_or(f64::NAN), "s"),
        ("latency_p50_ms", ms(lat, 50.0), "ms"),
        ("latency_p90_ms", ms(lat, 90.0), "ms"),
        ("throughput_per_s", throughput, "1/s"),
        ("peak_rss_mb", rss, "MB"),
    ]
}

/// How a per-layer metric is derived from the trace.
enum Source {
    /// Mean self time per span of this name, scaled to the unit.
    Span(f64),
    /// Counter total per traced operation.
    PerOp,
    /// Counter total per traced episode.
    PerEpisode,
}

/// The per-layer metrics, in report order: `(name, unit, source)`.
const LAYERS: [(&str, &str, Source); 28] = [
    ("pipeline.construction_s", "s", Source::Span(1.0)),
    ("hpl.simulate_ms", "ms", Source::Span(1e3)),
    ("engine.from_campaign_ms", "ms", Source::Span(1e3)),
    ("backend.fit_ms", "ms", Source::Span(1e3)),
    ("compiled.estimate_batch_us", "us", Source::Span(1e6)),
    ("search.anytime_us", "us", Source::Span(1e6)),
    ("search.evaluated", "count", Source::PerOp),
    ("search.pruned", "count", Source::PerOp),
    ("search.certificate_hits", "count", Source::PerOp),
    ("stream.replay_ms", "ms", Source::Span(1e3)),
    ("engine.new_ms", "ms", Source::Span(1e3)),
    ("engine.ingest_ms", "ms", Source::Span(1e3)),
    ("engine.publishes", "count", Source::PerEpisode),
    ("engine.noop_ingests", "count", Source::PerEpisode),
    ("engine.groups_refit", "count", Source::PerEpisode),
    ("online.observe_us", "us", Source::Span(1e6)),
    ("online.switches", "count", Source::PerEpisode),
    ("closed_loop.self_ms", "ms", Source::Span(1e3)),
    ("closed_loop.fallbacks", "count", Source::PerEpisode),
    ("closed_loop.held_out", "count", Source::PerEpisode),
    ("closed_loop.switches", "count", Source::PerEpisode),
    ("loopback.execute_ms", "ms", Source::Span(1e3)),
    ("loopback.attempts", "count", Source::PerEpisode),
    ("loopback.retries", "count", Source::PerEpisode),
    ("loopback.crashes", "count", Source::PerEpisode),
    ("loopback.lost", "count", Source::PerEpisode),
    ("loopback.poisoned", "count", Source::PerEpisode),
    ("bench.glue_us", "us", Source::Span(1e6)),
];

/// Self seconds of layer `name` summed over the run.
fn layer_s(tr: &Tracer, name: &str) -> f64 {
    tr.layers().get(name).map_or(0.0, |l| l.self_s)
}

/// The per-layer metrics of a traced run. Also prints the layer table,
/// the reconciliation against the untraced latency, and whether each
/// prediction that one run can check held.
pub fn per_layer(workload: &str, h: &Harness, setup_s: f64) -> Vec<Metric> {
    let (tr, out, lat) = (&h.tr, &h.out, h.lat.raw());
    let mut metrics = Vec::new();
    for (name, unit, source) in &LAYERS {
        let span = if *name == "bench.glue_us" { GLUE } else { name };
        let value = match source {
            Source::Span(scale) => tr
                .layers()
                .get(span)
                .map_or(0.0, |l| l.self_s / l.calls as f64 * scale),
            Source::PerOp | Source::PerEpisode => {
                let per = match source {
                    Source::PerOp => out.traced_ops,
                    _ => out.traced_episodes,
                };
                let total = tr.counters().get(name).copied().unwrap_or(0.0);
                if per == 0 {
                    0.0
                } else {
                    total / per as f64
                }
            }
        };
        let calls = tr.layers().get(span).map_or(0, |l| l.calls);
        println!("layer {name:<28} {value:>14.4} {unit:<5} spans {calls}");
        metrics.push((*name, value, *unit));
    }

    let untraced = mean(lat);
    let traced_total = mean(&tr.op_totals);
    let overhead_pct = (traced_total / untraced - 1.0) * 100.0;
    let (gap, ok) = reconcile(mean(&tr.op_layer_sums), untraced, RECONCILE_TOLERANCE);
    println!(
        "reconcile: layer self times sum to {:.4} ms per operation against {:.4} ms untraced \
         (gap {:.2} %, tolerance {:.0} %): {}",
        mean(&tr.op_layer_sums) * 1e3,
        untraced * 1e3,
        gap * 100.0,
        RECONCILE_TOLERANCE * 100.0,
        if ok {
            "reconciles"
        } else {
            "DOES NOT RECONCILE"
        }
    );
    println!(
        "tracing overhead {overhead_pct:+.2} % ({} traced, {} untraced operations)",
        tr.op_totals.len(),
        lat.len()
    );
    metrics.push(("trace.reconcile_pct", gap * 100.0, "%"));
    metrics.push(("trace.overhead_pct", overhead_pct, "%"));

    predictions(workload, tr, setup_s);
    metrics
}

fn verdict(held: bool) -> &'static str {
    if held {
        "held"
    } else {
        "DID NOT HOLD"
    }
}

/// Prints the predictions one traced run can check.
fn predictions(workload: &str, tr: &Tracer, setup_s: f64) {
    let op_s: f64 = tr.op_totals.iter().sum();
    let share = |names: &[&str]| names.iter().map(|n| layer_s(tr, n)).sum::<f64>() / op_s;
    let construction = layer_s(tr, "pipeline.construction_s") / setup_s;
    println!(
        "prediction {}: construction carries most of set-up ({:.1} % of {setup_s:.3} s)",
        verdict(construction > 0.5),
        construction * 100.0
    );
    let absent = |layers: &[&str]| {
        let zero = layers.iter().all(|n| tr.layers().get(n).is_none());
        println!(
            "prediction {}: {} not exercised on {workload}",
            verdict(zero),
            layers.join(", ")
        );
    };
    match workload {
        "query" => {
            let s = share(&["compiled.estimate_batch_us", "search.anytime_us"]);
            println!(
                "prediction {}: estimate_batch + anytime_search carry most of the operation ({:.1} %)",
                verdict(s > 0.5),
                s * 100.0
            );
            absent(&[
                "loopback.execute_ms",
                "engine.ingest_ms",
                "online.observe_us",
                "engine.new_ms",
            ]);
        }
        "stream-refit" => {
            let s = share(&["engine.ingest_ms", "online.observe_us"]);
            println!(
                "prediction {}: ingest + observe carry most of the operation ({:.1} %)",
                verdict(s > 0.5),
                s * 100.0
            );
            absent(&[
                "loopback.execute_ms",
                "compiled.estimate_batch_us",
                "search.anytime_us",
            ]);
        }
        _ => {
            let s = share(&["loopback.execute_ms"]);
            println!(
                "prediction {}: execution carries most of the episode ({:.1} %; sizing 83 %)",
                verdict(s > 0.5),
                s * 100.0
            );
            let rest = share(&["closed_loop.self_ms"]);
            println!(
                "prediction {}: ingest and estimate work inside run_closed_loop stay small \
                 (upper bound: closed_loop.self_ms is {:.1} % of the episode; not separable \
                 from outside the call)",
                verdict(rest < 0.25),
                rest * 100.0
            );
            absent(&[
                "compiled.estimate_batch_us",
                "search.anytime_us",
                "engine.ingest_ms",
            ]);
        }
    }
    println!(
        "predictions of which end-to-end metric a layer change moves are checked across \
         commits, not within one run"
    );
}
