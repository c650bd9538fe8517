//! NetPIPE analogue: ping-pong throughput measurement on the simulated
//! fabric.
//!
//! The paper uses NetPIPE to expose the MPICH-1.2.1 vs 1.2.2 intra-node
//! throughput gap (Fig. 2): two processes on the *same* Athlon exchange
//! messages of increasing size. [`intra_node_sweep`] reproduces exactly
//! that setup on the discrete-event fabric and returns throughput per
//! block size.

use etm_cluster::{ClusterSpec, Configuration, Placement};
use etm_sim::Simulation;

use crate::{Comm, SimFabric, SimMsg};

/// One NetPIPE sample point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ThroughputSample {
    /// Message size in bytes.
    pub block_bytes: f64,
    /// Measured throughput in bits per second (NetPIPE reports Gbps).
    pub bits_per_sec: f64,
}

/// Ping-pongs `reps` round trips of `block_bytes` between two ranks and
/// returns the measured one-way throughput.
///
/// `placement` must contain at least two ranks; ranks 0 and 1 are used.
pub(crate) fn ping_pong(
    spec: &ClusterSpec,
    placement: &Placement,
    block_bytes: f64,
    reps: usize,
) -> ThroughputSample {
    assert!(placement.len() >= 2, "ping-pong needs two ranks");
    assert!(reps > 0);
    let mut sim = Simulation::new();
    let fabric = SimFabric::build(&mut sim, spec, placement);
    let seed0 = fabric.seed(0);
    let seed1 = fabric.seed(1);
    sim.spawn("pinger", move |ctx| async move {
        let comm = seed0.bind(ctx);
        for _ in 0..reps {
            comm.send(1, 1, SimMsg::of(block_bytes)).await;
            let _ = comm.recv(1, 2).await;
        }
    });
    sim.spawn("ponger", move |ctx| async move {
        let comm = seed1.bind(ctx);
        for _ in 0..reps {
            let _ = comm.recv(0, 1).await;
            comm.send(0, 2, SimMsg::of(block_bytes)).await;
        }
    });
    let total = sim.run().expect("ping-pong deadlocked");
    // 2·reps messages of block_bytes in `total` seconds.
    let bytes_per_sec = 2.0 * reps as f64 * block_bytes / total;
    ThroughputSample {
        block_bytes,
        bits_per_sec: bytes_per_sec * 8.0,
    }
}

/// Fig. 2 reproduction: throughput between two processes on one CPU of
/// the first PE kind, over a sweep of block sizes.
pub fn intra_node_sweep(spec: &ClusterSpec, block_sizes: &[f64]) -> Vec<ThroughputSample> {
    // Two processes on the single Athlon CPU, exactly the paper's setup.
    let cfg = Configuration::p1m1_p2m2(1, 2, 0, 0);
    let placement = Placement::new(spec, &cfg).expect("2 procs on 1 CPU");
    block_sizes
        .iter()
        .map(|&b| ping_pong(spec, &placement, b, 8))
        .collect()
}

/// Inter-node sweep between the first CPUs of two kinds (used by tests
/// and the network-calibration example).
pub fn inter_node_sweep(spec: &ClusterSpec, block_sizes: &[f64]) -> Vec<ThroughputSample> {
    let cfg = Configuration::p1m1_p2m2(1, 1, 1, 1);
    let placement = Placement::new(spec, &cfg).expect("1+1 placement");
    block_sizes
        .iter()
        .map(|&b| ping_pong(spec, &placement, b, 8))
        .collect()
}

/// The paper's Fig. 2 x-axis: 1 KiB to 128 KiB.
pub fn fig2_block_sizes() -> Vec<f64> {
    (0..=7).map(|i| 1024.0 * (1 << i) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use etm_cluster::spec::paper_cluster;
    use etm_cluster::CommLibProfile;

    #[test]
    fn intra_node_throughput_saturates() {
        let spec = paper_cluster(CommLibProfile::mpich122());
        let samples = intra_node_sweep(&spec, &fig2_block_sizes());
        assert_eq!(samples.len(), 8);
        let first = samples.first().unwrap().bits_per_sec;
        let last = samples.last().unwrap().bits_per_sec;
        assert!(last > first, "throughput grows with block size");
        // Plateau near the profile's 275 MB/s = 2.2 Gb/s.
        assert!(last > 1.0e9, "large-block throughput {last} b/s");
    }

    #[test]
    fn mpich121_collapses_at_large_blocks() {
        let old = paper_cluster(CommLibProfile::mpich121());
        let new = paper_cluster(CommLibProfile::mpich122());
        let b = 128.0 * 1024.0;
        let t_old = ping_pong(
            &old,
            &Placement::new(&old, &Configuration::p1m1_p2m2(1, 2, 0, 0)).unwrap(),
            b,
            4,
        );
        let t_new = ping_pong(
            &new,
            &Placement::new(&new, &Configuration::p1m1_p2m2(1, 2, 0, 0)).unwrap(),
            b,
            4,
        );
        assert!(
            t_new.bits_per_sec > 5.0 * t_old.bits_per_sec,
            "Fig 2 gap: {} vs {}",
            t_new.bits_per_sec,
            t_old.bits_per_sec
        );
    }

    #[test]
    fn inter_node_bounded_by_wire_bandwidth() {
        let spec = paper_cluster(CommLibProfile::mpich122());
        let samples = inter_node_sweep(&spec, &[64.0 * 1024.0, 1024.0 * 1024.0]);
        for s in samples {
            assert!(
                s.bits_per_sec <= spec.network.bandwidth * 8.0 * 1.01,
                "{} exceeds the wire",
                s.bits_per_sec
            );
        }
    }

    #[test]
    fn intra_beats_inter_for_mpich122() {
        // Shared memory is much faster than 100base-TX.
        let spec = paper_cluster(CommLibProfile::mpich122());
        let b = 64.0 * 1024.0;
        let intra = intra_node_sweep(&spec, &[b])[0].bits_per_sec;
        let inter = inter_node_sweep(&spec, &[b])[0].bits_per_sec;
        assert!(intra > 3.0 * inter, "intra {intra} vs inter {inter}");
    }
}
