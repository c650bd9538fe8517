//! State a run carries through its timed phases: the tracer, the
//! latency log, the host probe and the running totals.

use std::time::Instant;

use crate::host::{correction, HostProbe, PROBE_EVERY_S};
use crate::trace::Tracer;

/// Latencies of the untraced operations, seconds, in a buffer that is
/// allocated and written before set-up. Its pages are resident from the
/// start, so the run's peak memory does not step with the operation
/// count; [`LatencyLog::RESIDENT_MB`] is subtracted from it.
pub struct LatencyLog {
    buf: Vec<f64>,
    len: usize,
    /// `(end, factor)` per probe window: latencies before index `end`
    /// (and after the previous window's) scale by `factor`.
    windows: Vec<(usize, f64)>,
}

impl LatencyLog {
    const CAPACITY: usize = 1 << 21;
    /// Resident size of the buffer, MiB.
    pub const RESIDENT_MB: f64 = (Self::CAPACITY * 8) as f64 / (1024.0 * 1024.0);

    /// Allocates and writes the whole buffer.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(Self::CAPACITY);
        buf.resize(Self::CAPACITY, f64::NAN);
        LatencyLog {
            buf,
            len: 0,
            windows: Vec::new(),
        }
    }

    /// Records one latency; a full log drops it (the timed phase stops
    /// at its next check).
    fn push(&mut self, latency: f64) {
        if let Some(slot) = self.buf.get_mut(self.len) {
            *slot = latency;
            self.len += 1;
        }
    }

    fn full(&self) -> bool {
        self.len == self.buf.len()
    }

    /// The recorded latencies as measured.
    pub fn raw(&self) -> &[f64] {
        &self.buf[..self.len]
    }

    /// Scales every latency by its probe window's factor, in place, and
    /// returns the corrected latencies.
    pub fn correct(&mut self) -> &[f64] {
        let mut start = 0;
        for &(end, factor) in &self.windows {
            for v in &mut self.buf[start..end] {
                *v *= factor;
            }
            start = end;
        }
        self.windows.clear();
        &self.buf[..self.len]
    }
}

/// What a workload's timed phase measured. The timed phase may run in
/// slices; each slice resumes where the previous one stopped.
#[derive(Default)]
pub struct Outcome {
    /// Operations (`stream-refit`: episodes) started so far — the
    /// cursor into the seeded input sequence.
    pub next: usize,
    /// Wall seconds of the timed phases, reference checks and probes
    /// excluded.
    pub busy_s: f64,
    /// [`Outcome::busy_s`] scaled window by window to the reference
    /// host speed.
    pub corrected_busy_s: f64,
    /// Operations attempted (traced and untraced).
    pub attempted: u64,
    /// Operations whose output failed its reference check.
    pub failed: u64,
    /// Traced operations and traced episodes (the per-layer divisors).
    pub traced_ops: u64,
    /// See [`Outcome::traced_ops`].
    pub traced_episodes: u64,
    /// `closed-loop` only: virtual cluster seconds per loop step over
    /// one untimed pass of the episode list.
    pub cluster_s_per_step: Option<f64>,
    /// The first [`Outcome::KEPT_MISMATCHES`] failed checks, one line
    /// each.
    pub mismatches: Vec<String>,
    /// Failed checks, including those not kept.
    pub mismatch_count: u64,
}

impl Outcome {
    /// Mismatch lines kept for the report.
    pub const KEPT_MISMATCHES: usize = 20;

    /// Notes one failed check.
    pub fn mismatch(&mut self, line: String) {
        self.mismatch_count += 1;
        if self.mismatches.len() < Self::KEPT_MISMATCHES {
            self.mismatches.push(line);
        }
    }
}

/// Everything a run threads through set-ups and timed slices.
pub struct Harness {
    /// Span recorder (enabled only for traced operations).
    pub tr: Tracer,
    /// Untraced operation latencies.
    pub lat: LatencyLog,
    /// Running totals.
    pub out: Outcome,
    probe: HostProbe,
    /// The latest probe, seconds per round trip.
    last_probe: f64,
}

impl Harness {
    /// Starts the probe and takes a first reading.
    pub fn new() -> Self {
        let mut probe = HostProbe::new();
        let last_probe = probe.measure();
        Harness {
            tr: Tracer::new(),
            lat: LatencyLog::new(),
            out: Outcome::default(),
            probe,
            last_probe,
        }
    }

    /// Takes a probe and returns the factor that scales a time measured
    /// since the previous probe to the reference host speed.
    pub fn reprobe(&mut self) -> f64 {
        let now = self.probe.measure();
        let factor = correction(self.last_probe, now);
        self.last_probe = now;
        factor
    }
}

/// The timed phase's clock: wall time minus reference checks and
/// probes. Untraced latencies are recorded per probe window.
pub struct Phase {
    start: Instant,
    paused_s: f64,
    seconds: f64,
    window_start: f64,
}

impl Phase {
    /// Starts a slice of `seconds` measured seconds.
    pub fn new(seconds: f64) -> Self {
        Phase {
            start: Instant::now(),
            paused_s: 0.0,
            seconds,
            window_start: 0.0,
        }
    }

    fn busy(&self) -> f64 {
        self.start.elapsed().as_secs_f64() - self.paused_s
    }

    /// Whether the slice should start another operation or episode.
    pub fn running(&self, h: &Harness) -> bool {
        self.busy() < self.seconds && !h.lat.full()
    }

    /// Runs `f` off the clock.
    pub fn check<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.paused_s += t.elapsed().as_secs_f64();
        out
    }

    /// Records one operation; probes when the window is full.
    pub fn record(&mut self, h: &mut Harness, traced: bool, latency: f64, episodes: u64) {
        h.out.attempted += 1;
        if traced {
            h.out.traced_ops += 1;
            h.out.traced_episodes += episodes;
        } else {
            h.lat.push(latency);
        }
        if self.busy() - self.window_start >= PROBE_EVERY_S {
            self.close_window(h);
        }
    }

    fn close_window(&mut self, h: &mut Harness) {
        let end = self.busy();
        let factor = self.check(|| h.reprobe());
        let span = end - self.window_start;
        h.out.busy_s += span;
        h.out.corrected_busy_s += span * factor;
        h.lat.windows.push((h.lat.len, factor));
        self.window_start = end;
    }

    /// Ends the slice.
    pub fn finish(mut self, h: &mut Harness) {
        self.close_window(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_applies_per_window() {
        let mut log = LatencyLog::new();
        for v in [1.0, 2.0, 3.0] {
            log.push(v);
        }
        log.windows.push((2, 0.5));
        log.push(4.0);
        log.windows.push((4, 2.0));
        assert_eq!(log.raw(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(log.correct(), &[0.5, 1.0, 6.0, 8.0]);
    }
}
