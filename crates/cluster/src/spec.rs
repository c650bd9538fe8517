//! Cluster hardware description.

use crate::commlib::CommLibProfile;

/// Index of a PE kind within a [`ClusterSpec`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct KindId(pub usize);

/// A *kind* of processing element (one CPU model), with the calibration
/// constants the performance model needs.
///
/// The defaults in [`athlon_1333`] / [`pentium2_400`] are calibrated so
/// the simulated cluster reproduces the *shapes* of the paper's figures
/// (see DESIGN.md §4); they are not claimed to be cycle-accurate.
#[derive(Clone, Debug)]
pub struct PeKind {
    /// Human-readable name ("Athlon", "Pentium-II").
    pub name: String,
    /// Peak sustained DGEMM rate of one process with a large in-memory
    /// working set, in flop/s.
    pub peak_flops: f64,
    /// Asymptotic fraction of `peak_flops` reached as the working set
    /// grows (BLAS-3 efficiency ceiling is folded into `peak_flops`;
    /// this is the floor at tiny problems).
    pub eff_min: f64,
    /// Working-set size (bytes) at which efficiency is halfway between
    /// `eff_min` and 1. Encodes the classic rising HPL Gflops-vs-N curve.
    pub(crate) eff_halfway_bytes: f64,
    /// Efficiency of the unblocked panel factorization (`dgetf2`) relative
    /// to DGEMM — BLAS-2 bound, so well below 1.
    pub(crate) panel_eff: f64,
    /// Sustained memory copy bandwidth in bytes/s (drives `laswp`).
    pub(crate) mem_bw: f64,
    /// Multiprocessing overhead coefficient σ: running `m` processes on
    /// this CPU inflates each process's compute time by `1 + σ·(m−1)`
    /// *in addition* to the fair-share slowdown (context switches, cache
    /// pollution).
    pub(crate) mp_overhead: f64,
    /// Effective OS scheduler timeslice in seconds (Linux 2.4 timeslices
    /// ranged 10-50 ms; 20 ms is the calibrated effective value). At every
    /// synchronization point a process sharing its CPU with `m − 1`
    /// others stalls about `(m − 1)` timeslices waiting to be scheduled —
    /// the dominant per-iteration cost of multiprocessing at small N.
    pub(crate) sched_quantum: f64,
    /// Electrical power draw of one PE of this kind, for the bi-criteria
    /// (time × energy) objective.
    pub(crate) power: PePower,
}

/// Power draw of a single PE in its two model states.
///
/// The execution-time model splits a run into arithmetic time `Ta`
/// (pipelines saturated) and communication time `Tc` (cores mostly
/// stalled on the NIC or on peers), so two draw levels are enough to
/// turn a `(Ta, Tc)` estimate into joules — see
/// [`crate::energy::EnergyModel`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PePower {
    /// Draw in watts while executing arithmetic (the `Ta` phase).
    pub(crate) busy_watts: f64,
    /// Draw in watts while communicating or waiting (the `Tc` phase).
    pub(crate) comm_watts: f64,
}

/// Calibrated AMD Athlon 1.33 GHz analogue (paper Node 1).
pub fn athlon_1333() -> PeKind {
    PeKind {
        name: "Athlon".to_string(),
        peak_flops: 1.30e9,
        eff_min: 0.42,
        eff_halfway_bytes: 24e6,
        panel_eff: 0.30,
        mem_bw: 650e6,
        mp_overhead: 0.080,
        sched_quantum: 0.040,
        // Thunderbird-era Athlons were notoriously hot: ~72 W under
        // full arithmetic load, roughly 30 W stalled on the NIC.
        power: PePower {
            busy_watts: 72.0,
            comm_watts: 30.0,
        },
    }
}

/// Calibrated Intel Pentium-II 400 MHz analogue (paper Nodes 2–5).
pub fn pentium2_400() -> PeKind {
    PeKind {
        name: "Pentium-II".to_string(),
        peak_flops: 0.27e9,
        eff_min: 0.45,
        eff_halfway_bytes: 12e6,
        panel_eff: 0.32,
        mem_bw: 220e6,
        mp_overhead: 0.060,
        sched_quantum: 0.040,
        // Deschutes P-II 400: ~24 W busy, ~12 W waiting on communication.
        power: PePower {
            busy_watts: 24.0,
            comm_watts: 12.0,
        },
    }
}

/// One physical node: CPUs of a single kind sharing memory and a NIC.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Node name ("node1").
    pub name: String,
    /// Which PE kind the node's CPUs are.
    pub kind: KindId,
    /// Number of CPUs (the paper's P-II nodes are dual-processor).
    pub cpus: usize,
    /// Installed main memory in bytes.
    pub memory_bytes: f64,
}

/// Inter-node network parameters (the paper measures over 100base-TX).
#[derive(Clone, Copy, Debug)]
pub struct NetworkSpec {
    /// Per-NIC sustained bandwidth in bytes/s.
    pub bandwidth: f64,
    /// One-way message latency in seconds.
    pub latency: f64,
}

impl NetworkSpec {
    /// 100base-TX: ~11.5 MB/s sustained TCP payload, ~70 µs latency.
    pub fn fast_ethernet() -> Self {
        NetworkSpec {
            bandwidth: 11.5e6,
            latency: 70e-6,
        }
    }

    /// 1000base-SX: ~90 MB/s sustained, ~40 µs latency (installed in the
    /// paper's cluster but unused in its measurements).
    pub fn gigabit() -> Self {
        NetworkSpec {
            bandwidth: 90e6,
            latency: 40e-6,
        }
    }
}

/// A complete heterogeneous cluster: kinds, nodes, network, MPI library.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// The PE kinds present, indexed by [`KindId`].
    pub kinds: Vec<PeKind>,
    /// The nodes.
    pub nodes: Vec<NodeSpec>,
    /// Inter-node network.
    pub network: NetworkSpec,
    /// Communication-library profile (intra-node path).
    pub comm_lib: CommLibProfile,
    /// Fraction of node memory usable by HPL (the rest is OS/buffers).
    pub(crate) usable_mem_frac: f64,
    /// Softness of the swap cliff: compute slows by
    /// `1 + swap_beta·(overcommit − 1)` once the working set exceeds
    /// usable memory.
    pub(crate) swap_beta: f64,
}

impl ClusterSpec {
    /// Creates a cluster with default memory/swap tuning.
    pub fn new(
        kinds: Vec<PeKind>,
        nodes: Vec<NodeSpec>,
        network: NetworkSpec,
        comm_lib: CommLibProfile,
    ) -> Self {
        ClusterSpec {
            kinds,
            nodes,
            network,
            comm_lib,
            usable_mem_frac: 0.90,
            swap_beta: 4.0,
        }
    }

    /// Total CPUs of a kind across all nodes.
    pub fn cpus_of_kind(&self, kind: KindId) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == kind)
            .map(|n| n.cpus)
            .sum()
    }

    /// The kind record for an id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn kind(&self, id: KindId) -> &PeKind {
        &self.kinds[id.0]
    }
}

/// The paper's evaluation platform (Table 1): one Athlon node plus four
/// dual-Pentium-II nodes, 100base-TX, 768 MB everywhere.
pub fn paper_cluster(comm_lib: CommLibProfile) -> ClusterSpec {
    scaled_paper_cluster(4, comm_lib)
}

/// The paper cluster with `dual_pii_nodes` dual Pentium-II nodes in
/// place of its four: a larger heterogeneous cluster of the paper's
/// kinds, for measuring how a search's cost grows with the cluster.
pub fn scaled_paper_cluster(dual_pii_nodes: usize, comm_lib: CommLibProfile) -> ClusterSpec {
    let kinds = vec![athlon_1333(), pentium2_400()];
    let mem = 768.0 * 1024.0 * 1024.0;
    let mut nodes = vec![NodeSpec {
        name: "node1".to_string(),
        kind: KindId(0),
        cpus: 1,
        memory_bytes: mem,
    }];
    for i in 2..=dual_pii_nodes + 1 {
        nodes.push(NodeSpec {
            name: format!("node{i}"),
            kind: KindId(1),
            cpus: 2,
            memory_bytes: mem,
        });
    }
    ClusterSpec::new(kinds, nodes, NetworkSpec::fast_ethernet(), comm_lib)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_matches_table1() {
        let c = paper_cluster(CommLibProfile::mpich122());
        assert_eq!(c.nodes.len(), 5);
        assert_eq!(c.cpus_of_kind(KindId(0)), 1, "one Athlon");
        assert_eq!(c.cpus_of_kind(KindId(1)), 8, "eight Pentium-IIs");
        assert_eq!(c.kind(KindId(0)).name, "Athlon");
        assert!(
            c.kind(KindId(0)).peak_flops > 4.0 * c.kind(KindId(1)).peak_flops,
            "Athlon is ~5x a Pentium-II"
        );
    }

    #[test]
    fn network_presets_ordered() {
        assert!(NetworkSpec::gigabit().bandwidth > NetworkSpec::fast_ethernet().bandwidth);
        assert!(NetworkSpec::gigabit().latency < NetworkSpec::fast_ethernet().latency);
    }

    #[test]
    fn power_specs_are_sane() {
        let c = paper_cluster(CommLibProfile::mpich122());
        for k in &c.kinds {
            assert!(
                k.power.busy_watts > k.power.comm_watts,
                "{}: arithmetic must draw more than communication",
                k.name
            );
            assert!(k.power.comm_watts > 0.0, "{}: PEs never draw zero", k.name);
        }
        assert!(
            c.kind(KindId(0)).power.busy_watts > c.kind(KindId(1)).power.busy_watts,
            "the Athlon is the hotter part"
        );
    }
}
