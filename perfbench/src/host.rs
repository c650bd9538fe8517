//! Host-speed probe.
//!
//! On the shared machines this benchmark runs on, the same code runs up
//! to 1.8× slower in host phases that last from under a second to
//! minutes. The slowdown tracks the cost of a thread hand-off closely
//! (window-median correlation 0.95–1.00 with the workloads' latencies)
//! and an L1-resident arithmetic loop hardly at all, so the probe is a
//! hand-off: a token bounced between this thread and an echo thread
//! through rendezvous channels, on the benchmark's one CPU.
//!
//! The timed phases probe every [`PROBE_EVERY_S`] of measured time and
//! scale each window's latencies by [`REFERENCE_S`] over the window's
//! mean probe; set-ups are scaled by the probes that bracket them.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Round trips per probe.
const ROUND_TRIPS: u32 = 100;

/// The round trip the corrected metrics are expressed against: a
/// corrected time reads as it would on a host whose probe measures
/// exactly this.
pub const REFERENCE_S: f64 = 10e-6;

/// Measured seconds between probes in a timed phase.
pub const PROBE_EVERY_S: f64 = 0.05;

/// A token ping-pong between the caller and an echo thread.
pub struct HostProbe {
    ping: Option<SyncSender<u32>>,
    pong: Receiver<u32>,
    echo: Option<JoinHandle<()>>,
}

impl HostProbe {
    /// Starts the echo thread.
    pub fn new() -> Self {
        let (ping, rx) = sync_channel::<u32>(0);
        let (tx, pong) = sync_channel::<u32>(0);
        let echo = std::thread::spawn(move || {
            while let Ok(v) = rx.recv() {
                if tx.send(v).is_err() {
                    break;
                }
            }
        });
        HostProbe {
            ping: Some(ping),
            pong,
            echo: Some(echo),
        }
    }

    /// Mean seconds per round trip over one probe.
    pub fn measure(&mut self) -> f64 {
        let ping = self.ping.as_ref().expect("probe is live until dropped");
        let start = Instant::now();
        for i in 0..ROUND_TRIPS {
            ping.send(i).expect("echo thread is alive");
            self.pong.recv().expect("echo thread is alive");
        }
        start.elapsed().as_secs_f64() / f64::from(ROUND_TRIPS)
    }
}

impl Drop for HostProbe {
    /// Closes the channel and waits for the echo thread to end.
    fn drop(&mut self) {
        self.ping = None;
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// The factor that scales a time measured between probes `before` and
/// `after` to the reference host speed.
pub fn correction(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_measures_a_positive_round_trip_and_stops_its_thread() {
        let mut probe = HostProbe::new();
        let rt = probe.measure();
        assert!(rt > 0.0 && rt < 0.1, "round trip {rt} s");
        drop(probe);
    }

    #[test]
    fn correction_scales_to_the_reference() {
        assert_eq!(correction(REFERENCE_S, REFERENCE_S), 1.0);
        assert!((correction(15e-6, 25e-6) - 0.5).abs() < 1e-12);
    }
}
