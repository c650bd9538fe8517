//! In-memory spans and counters, recorded by the benchmark around its
//! calls into each layer's public functions.
//!
//! An operation is a root span; layer spans nest inside it. When an
//! operation ends its spans are folded into per-layer totals, so memory
//! stays flat however many operations a run makes. A layer's self time
//! is its span's duration minus the time its child spans cover.
//!
//! A disabled tracer runs the same code with no clock reads, so the
//! traced run can interleave traced and untraced operations and measure
//! its own overhead.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated self time of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotal {
    /// Summed self time, seconds.
    pub self_s: f64,
    /// Spans recorded.
    pub calls: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    children_s: f64,
}

/// Span and counter recorder.
#[derive(Default)]
pub struct Tracer {
    enabled: bool,
    stack: Vec<Open>,
    layers: BTreeMap<&'static str, LayerTotal>,
    counters: BTreeMap<&'static str, f64>,
    /// Per traced operation: the summed self time of its layer spans
    /// (the root's own self time excluded), seconds.
    pub op_layer_sums: Vec<f64>,
    /// Per traced operation: its root span's duration, seconds.
    pub op_totals: Vec<f64>,
}

impl Tracer {
    /// A recorder that starts disabled.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Turns recording on or off for the following spans. Must not be
    /// toggled while a span is open.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Runs `f` inside a layer span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        self.stack.push(Open {
            name,
            start: Instant::now(),
            children_s: 0.0,
        });
        let out = f(self);
        let open = self.stack.pop().expect("span stack balanced");
        let dur = open.start.elapsed().as_secs_f64();
        let total = self.layers.entry(open.name).or_default();
        total.self_s += dur - open.children_s;
        total.calls += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_s += dur;
        }
        out
    }

    /// Runs one operation as a root span. Returns `f`'s result and the
    /// operation's duration in seconds, which is measured whether or
    /// not recording is on.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let start = Instant::now();
        if !self.enabled {
            let out = f(self);
            return (out, start.elapsed().as_secs_f64());
        }
        self.stack.push(Open {
            name: ROOT,
            start,
            children_s: 0.0,
        });
        let out = f(self);
        let open = self.stack.pop().expect("span stack balanced");
        let dur = open.start.elapsed().as_secs_f64();
        self.op_layer_sums.push(open.children_s);
        self.op_totals.push(dur);
        let glue = self.layers.entry(GLUE).or_default();
        glue.self_s += dur - open.children_s;
        glue.calls += 1;
        (out, dur)
    }

    /// Adds `by` to counter `name` (only while recording).
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.enabled {
            *self.counters.entry(name).or_default() += by;
        }
    }

    /// Per-layer self-time totals, including [`GLUE`].
    pub fn layers(&self) -> &BTreeMap<&'static str, LayerTotal> {
        &self.layers
    }

    /// Counter totals.
    pub fn counters(&self) -> &BTreeMap<&'static str, f64> {
        &self.counters
    }
}

/// Name of the operation root span.
const ROOT: &str = "op";

/// Pseudo-layer holding each operation root's own self time: the
/// benchmark's glue between layer calls.
pub const GLUE: &str = "bench.glue";

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < micros as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let ((), dur) = t.op(|t| {
            t.span("outer", |t| {
                spin(2000);
                t.span("inner", |_| spin(4000));
            });
        });
        let outer = t.layers()["outer"];
        let inner = t.layers()["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_s >= 0.004 && outer.self_s >= 0.002);
        assert!(outer.self_s < inner.self_s, "outer must not include inner");
        // The operation's layer sum is the outermost layer's duration.
        let layer_sum = t.op_layer_sums[0];
        assert!((layer_sum - (outer.self_s + inner.self_s)).abs() < 1e-9);
        assert!(layer_sum <= dur && t.layers()[GLUE].self_s >= 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_times_the_op() {
        let mut t = Tracer::new();
        let (v, dur) = t.op(|t| {
            t.count("c", 1.0);
            t.span("layer", |_| {
                spin(500);
                7
            })
        });
        assert_eq!(v, 7);
        assert!(dur >= 0.0005);
        assert!(t.layers().is_empty() && t.counters().is_empty());
        assert!(t.op_layer_sums.is_empty() && t.op_totals.is_empty());
    }
}
