//! A minimal, std-only benchmark harness — the in-tree replacement for
//! criterion, so the hermetic build keeps its timing suites.
//!
//! Each `benches/*.rs` target is a plain binary (`harness = false`) that
//! builds a [`Runner`], registers closures with [`Runner::bench`] and
//! [`Runner::pair`], and prints a table from [`Runner::finish`].
//! Iteration counts are calibrated from a warmed, timed batch so every
//! sample runs for about 20 ms, however fast the call; set
//! `ETM_BENCH_SAMPLES` to trade precision for wall time (default 10,
//! minimum 2).
//!
//! Absolute times do not carry from one host, or one run, to the next,
//! so no absolute time is gated. A speed claim is a ratio of two paths
//! timed in the same run: [`Runner::pair`] alternates their samples and
//! reports the median of the per-sample ratios with its quartiles, and
//! [`Runner::finish`] exits non-zero when a median breaks the bound the
//! suite wrote next to its pair.

pub use std::hint::black_box;

use std::time::{Duration, Instant};

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

impl Row {
    fn new(name: &str, iters: u64, per_iter_ns: &[f64]) -> Self {
        let mut sorted = per_iter_ns.to_vec();
        sorted.sort_by(f64::total_cmp);
        Row {
            name: name.to_string(),
            iters,
            samples: sorted.len(),
            min_ns: sorted[0],
            median_ns: quantile(&sorted, 0.5),
            mean_ns: sorted.iter().sum::<f64>() / sorted.len() as f64,
            max_ns: sorted[sorted.len() - 1],
        }
    }
}

/// The median and quartiles of the per-sample ratios `A/B` of one pair.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RatioStats {
    q1: f64,
    median: f64,
    q3: f64,
}

/// Divides each sample of `a` by the sample of `b` taken next to it and
/// summarizes the ratios.
fn ratio_stats(a: &[f64], b: &[f64]) -> RatioStats {
    assert_eq!(a.len(), b.len(), "a pair takes one B sample per A sample");
    let mut ratios: Vec<f64> = a.iter().zip(b).map(|(a, b)| a / b).collect();
    ratios.sort_by(f64::total_cmp);
    RatioStats {
        q1: quantile(&ratios, 0.25),
        median: quantile(&ratios, 0.5),
        q3: quantile(&ratios, 0.75),
    }
}

/// The `q`-quantile of a non-empty sorted slice, interpolated linearly
/// between the two nearest ranks (so the median of an even count is the
/// mean of the middle two).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// One pair's same-run ratio and the bound its median must not exceed.
struct Ratio {
    /// `"<name> / <reference>"`.
    label: String,
    stats: RatioStats,
    bound: Option<f64>,
}

impl Ratio {
    /// Whether the median ratio breaks its bound (a NaN median does).
    fn broken(&self) -> bool {
        let median = self.stats.median;
        self.bound
            .is_some_and(|bound| median.is_nan() || median > bound)
    }
}

/// Collects benchmark timings and same-run ratios and renders them as a
/// table.
pub struct Runner {
    suite: String,
    samples: usize,
    rows: Vec<Row>,
    ratios: Vec<Ratio>,
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
            ratios: Vec::new(),
        }
    }

    /// Times `f`, auto-calibrating how many calls make up one sample.
    /// The closure's return value is passed through [`black_box`] so the
    /// optimizer cannot delete the work.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        let (iters, probe) = calibrate(&mut f);
        let per_iter_ns: Vec<f64> = (0..self.samples_for(probe))
            .map(|_| sample(iters, &mut f))
            .collect();
        self.push_row(Row::new(name, iters, &per_iter_ns));
    }

    /// Times `a` (row `name`) against its reference `b` (row
    /// `reference`) in the same run and records the ratio `A/B` of
    /// their per-call times. Each side is calibrated on its own; the
    /// samples then alternate in ABBA order (A leads on even samples, B
    /// on odd ones), so a drift or a short stall lands on both sides
    /// alike, and each A sample is divided by the B sample next to it.
    ///
    /// [`Runner::finish`] fails the run when the median ratio exceeds
    /// `bound`. `None` prints the ratio ungated: for a claim that
    /// depends on the host's core count, or whose spread across runs
    /// leaves no bound that would catch a 2× slowdown. A row already
    /// recorded under the same name keeps its first timing.
    pub fn pair<RA, RB>(
        &mut self,
        name: &str,
        reference: &str,
        mut a: impl FnMut() -> RA,
        mut b: impl FnMut() -> RB,
        bound: Option<f64>,
    ) {
        let (iters_a, probe_a) = calibrate(&mut a);
        let (iters_b, probe_b) = calibrate(&mut b);
        let samples = self.samples_for(probe_a.max(probe_b));
        let mut per_iter_a = Vec::with_capacity(samples);
        let mut per_iter_b = Vec::with_capacity(samples);
        for i in 0..samples {
            if i % 2 == 0 {
                per_iter_a.push(sample(iters_a, &mut a));
                per_iter_b.push(sample(iters_b, &mut b));
            } else {
                per_iter_b.push(sample(iters_b, &mut b));
                per_iter_a.push(sample(iters_a, &mut a));
            }
        }
        self.push_row(Row::new(name, iters_a, &per_iter_a));
        self.push_row(Row::new(reference, iters_b, &per_iter_b));
        self.ratios.push(Ratio {
            label: format!("{name} / {reference}"),
            stats: ratio_stats(&per_iter_a, &per_iter_b),
            bound,
        });
    }

    /// Heavyweight workloads (whole simulated HPL runs) get fewer
    /// samples so a full suite stays in minutes.
    fn samples_for(&self, probe: Duration) -> usize {
        if probe > Duration::from_millis(200) {
            self.samples.min(3)
        } else {
            self.samples
        }
    }

    fn push_row(&mut self, row: Row) {
        if self.rows.iter().all(|r| r.name != row.name) {
            self.rows.push(row);
        }
    }

    /// Prints the collected rows and ratios and consumes the runner.
    /// Exits the process with status 1 when any median ratio breaks its
    /// bound.
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
        let width = self.ratios.iter().map(|r| r.label.len()).max().unwrap_or(4);
        for r in &self.ratios {
            let verdict = match r.bound {
                Some(bound) if r.broken() => format!("FAIL: bound {bound}"),
                Some(bound) => format!("ok: bound {bound}"),
                None => "ungated".to_string(),
            };
            let RatioStats { q1, median, q3 } = r.stats;
            let digits = ratio_digits(median);
            println!(
                "{:width$}  ratio {median:.digits$}  (q1 {q1:.digits$}, q3 {q3:.digits$})  {verdict}",
                r.label,
            );
        }
        let broken = self.ratios.iter().filter(|r| r.broken()).count();
        if broken > 0 {
            eprintln!("{}: {broken} ratio(s) above their bound", self.suite);
            std::process::exit(1);
        }
    }
}

/// Returns how many calls make up one sample, and the time of a first,
/// warm-up call. When that call takes a whole sample, a sample is one
/// call. Otherwise batches of 1, 2, 4, … calls are timed until one
/// spans a tenth of a sample, and the calls per sample follow from that
/// batch's mean, not from the cold first call, which can be many times
/// slower than the calls a sample repeats.
fn calibrate<R>(f: &mut impl FnMut() -> R) -> (u64, Duration) {
    const CAP: u64 = 10_000_000;
    let start = Instant::now();
    black_box(f());
    let first = start.elapsed();
    if first >= SAMPLE_TARGET {
        return (1, first);
    }
    let mut batch = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let spent = start.elapsed();
        if spent >= SAMPLE_TARGET / 10 || batch >= CAP {
            let iters = SAMPLE_TARGET.as_nanos() * u128::from(batch) / spent.as_nanos().max(1);
            return (iters.clamp(1, CAP.into()) as u64, first);
        }
        batch *= 2;
    }
}

/// Times `iters` calls of `f`; returns nanoseconds per call.
fn sample<R>(iters: u64, f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Decimals to print a ratio with: three, or three significant digits
/// for a ratio below 0.1 (a microsecond row over a millisecond one).
fn ratio_digits(ratio: f64) -> usize {
    if ratio > 0.0 && ratio < 0.1 {
        (2.0 - ratio.log10().floor()) as usize
    } else {
        3
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
    use std::cell::RefCell;

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
        // The warm-up call and the calibration batches of 1, 2, 4, …
        // calls (2^k calls in all), then samples*iters.
        let calibration = count - row.samples as u64 * row.iters;
        assert!(
            calibration.is_power_of_two(),
            "{calibration} calibration calls"
        );
        r.finish();
    }

    #[test]
    fn small_ratios_keep_three_significant_digits() {
        let show = |x: f64| format!("{x:.digits$}", digits = ratio_digits(x));
        assert_eq!(show(0.332), "0.332");
        assert_eq!(show(1.39), "1.390");
        assert_eq!(show(0.0251), "0.0251");
        assert_eq!(show(0.002468), "0.00247");
        assert_eq!(show(f64::NAN), "NaN");
    }

    #[test]
    fn pair_alternates_samples_in_abba_order() {
        // Which side each call ran, run-length encoded. ABBA order shows
        // as doubled runs between the first and last sample, which
        // plain ABAB alternation never makes.
        let log = RefCell::new(Vec::<(char, u64)>::new());
        let call = |side: char| {
            let start = Instant::now();
            while start.elapsed() < Duration::from_micros(50) {}
            let mut log = log.borrow_mut();
            match log.last_mut() {
                Some((last, n)) if *last == side => *n += 1,
                _ => log.push((side, 1)),
            }
        };
        let mut r = Runner {
            suite: "abba".to_string(),
            samples: 4,
            rows: Vec::new(),
            ratios: Vec::new(),
        };
        r.pair("a", "b", || call('a'), || call('b'), None);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.ratios.len(), 1);
        let (ia, ib) = (r.rows[0].iters, r.rows[1].iters);
        assert!(r.rows.iter().all(|row| row.samples == 4));
        // Each side's calibration (a warm-up call and batches of 1, 2,
        // 4, … calls), then samples A B | B A | A B | B A.
        let log = log.into_inner();
        let (ca, cb) = (log[0].1, log[1].1);
        assert!(ca.is_power_of_two() && cb.is_power_of_two(), "{log:?}");
        let expected = vec![
            ('a', ca),
            ('b', cb),
            ('a', ia),
            ('b', 2 * ib),
            ('a', 2 * ia),
            ('b', 2 * ib),
            ('a', ia),
        ];
        assert_eq!(log, expected);
    }

    #[test]
    fn ratio_quartiles_for_odd_and_even_sample_counts() {
        // Ratios 5, 1, 4, 2, 3 (each A sample over the B sample next to
        // it), unsorted on purpose.
        let odd = ratio_stats(&[10.0, 1.0, 8.0, 6.0, 3.0], &[2.0, 1.0, 2.0, 3.0, 1.0]);
        assert_eq!(
            odd,
            RatioStats {
                q1: 2.0,
                median: 3.0,
                q3: 4.0
            }
        );
        // Ratios 4, 1, 3, 2: the median is the mean of the middle two.
        let even = ratio_stats(&[4.0, 1.0, 3.0, 2.0], &[1.0; 4]);
        assert_eq!(
            even,
            RatioStats {
                q1: 1.75,
                median: 2.5,
                q3: 3.25
            }
        );
    }

    #[test]
    fn a_ratio_above_its_bound_fails_and_one_at_or_under_it_passes() {
        let ratio = |median: f64, bound: Option<f64>| Ratio {
            label: "a / b".to_string(),
            stats: RatioStats {
                q1: median,
                median,
                q3: median,
            },
            bound,
        };
        assert!(ratio(2.01, Some(2.0)).broken());
        assert!(ratio(f64::NAN, Some(2.0)).broken());
        assert!(!ratio(2.0, Some(2.0)).broken());
        assert!(!ratio(1.5, Some(2.0)).broken());
        assert!(!ratio(100.0, None).broken());
    }

    #[test]
    fn units_format_sensibly() {
        assert!(fmt_ns(5.0).ends_with("ns"));
        assert!(fmt_ns(5.0e4).ends_with("us"));
        assert!(fmt_ns(5.0e7).ends_with("ms"));
        assert!(fmt_ns(5.0e9).ends_with("s"));
    }
}
