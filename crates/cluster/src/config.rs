//! Cluster configurations and process placement.
//!
//! A configuration is the paper's `(P₁, M₁, P₂, M₂, …)` tuple: for each
//! PE kind, how many PEs of that kind participate and how many processes
//! each runs (assumption 4 in §3.1: PEs of the same kind get the same
//! `Mᵢ`). [`Placement`] maps that onto concrete nodes and CPUs.

use std::fmt;

use crate::spec::{ClusterSpec, KindId};

/// Participation of one PE kind in a run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct KindUse {
    /// The PE kind.
    pub kind: KindId,
    /// Number of PEs (CPUs) of this kind used — the paper's `Pᵢ`.
    pub pes: usize,
    /// Processes per used PE — the paper's `Mᵢ`.
    pub procs_per_pe: usize,
}

/// A full cluster configuration: one [`KindUse`] per kind (kinds with
/// `pes = 0` may be omitted).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Configuration {
    /// Per-kind usage.
    pub uses: Vec<KindUse>,
}

/// Errors validating a configuration against a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// More PEs of a kind requested than the cluster has.
    NotEnoughPes {
        /// The over-requested kind.
        kind: KindId,
        /// PEs requested.
        requested: usize,
        /// PEs available.
        available: usize,
    },
    /// A kind id out of range for the cluster.
    UnknownKind(KindId),
    /// `pes > 0` but `procs_per_pe = 0` (or vice versa is fine: unused).
    ZeroProcs(KindId),
    /// No processes at all.
    Empty,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotEnoughPes {
                kind,
                requested,
                available,
            } => write!(
                f,
                "kind #{}: requested {requested} PEs, only {available} available",
                kind.0
            ),
            ConfigError::UnknownKind(k) => write!(f, "unknown PE kind #{}", k.0),
            ConfigError::ZeroProcs(k) => {
                write!(f, "kind #{}: used PEs must run at least one process", k.0)
            }
            ConfigError::Empty => write!(f, "configuration runs no processes"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl Configuration {
    /// Builds the paper's two-kind `(P1, M1, P2, M2)` configuration
    /// (kind 0 = the fast PE, kind 1 = the slow PE).
    pub fn p1m1_p2m2(p1: usize, m1: usize, p2: usize, m2: usize) -> Self {
        Configuration {
            uses: vec![
                KindUse {
                    kind: KindId(0),
                    pes: p1,
                    procs_per_pe: m1,
                },
                KindUse {
                    kind: KindId(1),
                    pes: p2,
                    procs_per_pe: m2,
                },
            ],
        }
    }

    /// Total process count `P = Σ Pᵢ·Mᵢ`.
    pub fn total_processes(&self) -> usize {
        self.uses.iter().map(|u| u.pes * u.procs_per_pe).sum()
    }

    /// Total PE count `Σ Pᵢ`.
    pub fn total_pes(&self) -> usize {
        self.uses.iter().map(|u| u.pes).sum()
    }

    /// The `Mᵢ` for a kind (0 when the kind is unused).
    pub fn procs_per_pe(&self, kind: KindId) -> usize {
        self.uses
            .iter()
            .find(|u| u.kind == kind && u.pes > 0)
            .map(|u| u.procs_per_pe)
            .unwrap_or(0)
    }

    /// The `Pᵢ` for a kind.
    pub fn pes(&self, kind: KindId) -> usize {
        self.uses
            .iter()
            .find(|u| u.kind == kind)
            .map(|u| u.pes)
            .unwrap_or(0)
    }

    /// Whether only a single PE participates (`P = Mᵢ` in the paper's
    /// binning rule: no inter-PE communication).
    pub fn is_single_pe(&self) -> bool {
        self.total_pes() == 1
    }

    /// Compact display like `A(P1=1,M1=2)+B(P2=8,M2=1)`.
    pub fn label(&self, spec: &ClusterSpec) -> String {
        let parts: Vec<String> = self
            .uses
            .iter()
            .filter(|u| u.pes > 0)
            .map(|u| {
                format!(
                    "{}(P={},M={})",
                    spec.kind(u.kind).name,
                    u.pes,
                    u.procs_per_pe
                )
            })
            .collect();
        if parts.is_empty() {
            "(empty)".to_string()
        } else {
            parts.join("+")
        }
    }
}

/// One placed process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProcSlot {
    /// Global process rank (0-based, dense).
    pub rank: usize,
    /// Node index in the cluster spec.
    pub node: usize,
    /// CPU index within the node.
    pub cpu: usize,
    /// The PE kind of that CPU.
    pub kind: KindId,
    /// Processes sharing this CPU, this one included: its kind's `Mᵢ`.
    procs_on_cpu: usize,
}

/// A validated mapping of a configuration onto a cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct Placement {
    /// One slot per process, ordered by rank.
    pub slots: Vec<ProcSlot>,
    /// Number of used CPUs, `Σ Pᵢ`.
    cpus: usize,
}

impl Placement {
    /// Validates `cfg` against `spec` and assigns processes to CPUs.
    ///
    /// PEs are taken from nodes in declaration order; ranks are assigned
    /// round-robin over the used CPUs so consecutive ranks land on
    /// different PEs where possible (HPL's block-cyclic columns then
    /// interleave kinds, which is what running unmodified HPL does).
    ///
    /// # Errors
    /// See [`ConfigError`].
    pub fn new(spec: &ClusterSpec, cfg: &Configuration) -> Result<Self, ConfigError> {
        let total = cfg.total_processes();
        if total == 0 {
            return Err(ConfigError::Empty);
        }
        for u in &cfg.uses {
            if u.kind.0 >= spec.kinds.len() {
                return Err(ConfigError::UnknownKind(u.kind));
            }
            if u.pes == 0 {
                continue;
            }
            if u.procs_per_pe == 0 {
                return Err(ConfigError::ZeroProcs(u.kind));
            }
            let available = spec.cpus_of_kind(u.kind);
            if u.pes > available {
                return Err(ConfigError::NotEnoughPes {
                    kind: u.kind,
                    requested: u.pes,
                    available,
                });
            }
        }
        // Round-robin ranks over the used CPUs until each CPU has its m
        // processes: round `r` places one more process on every CPU
        // whose m exceeds `r`.
        let rounds = cfg.uses.iter().map(|u| u.procs_per_pe).max().unwrap_or(0);
        let mut slots = Vec::with_capacity(total);
        for round in 0..rounds {
            for (node, cpu, u) in used_cpus(spec, cfg) {
                if round < u.procs_per_pe {
                    slots.push(ProcSlot {
                        rank: slots.len(),
                        node,
                        cpu,
                        kind: u.kind,
                        procs_on_cpu: u.procs_per_pe,
                    });
                }
            }
        }
        debug_assert_eq!(slots.len(), total);
        Ok(Placement {
            slots,
            cpus: cfg.total_pes(),
        })
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the placement is empty (never true for a validated one).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Processes co-resident on the CPU of `slot` (including itself).
    pub fn procs_on_cpu(&self, slot: &ProcSlot) -> usize {
        slot.procs_on_cpu
    }

    /// Total processes on a node (across its CPUs).
    pub fn procs_on_node(&self, node: usize) -> usize {
        self.slots.iter().filter(|s| s.node == node).count()
    }

    /// Number of CPUs in use.
    pub fn cpus_used(&self) -> usize {
        self.cpus
    }

    /// The distinct nodes in use, ascending.
    pub fn used_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        let end = self.slots.iter().map(|s| s.node + 1).max().unwrap_or(0);
        (0..end).filter(move |&node| self.slots.iter().any(|s| s.node == node))
    }
}

/// The CPUs `cfg` uses, in placement order, each with its node, its
/// index in the node and the kind's use: for each used kind, the first
/// `Pᵢ` CPUs of that kind's nodes in declaration order. `cfg` must have
/// passed [`Placement::new`]'s checks.
fn used_cpus<'a>(
    spec: &'a ClusterSpec,
    cfg: &'a Configuration,
) -> impl Iterator<Item = (usize, usize, &'a KindUse)> + 'a {
    cfg.uses.iter().filter(|u| u.pes > 0).flat_map(move |u| {
        spec.nodes
            .iter()
            .enumerate()
            .filter(move |(_, node)| node.kind == u.kind)
            .flat_map(|(ni, node)| (0..node.cpus).map(move |ci| (ni, ci)))
            .take(u.pes)
            .map(move |(ni, ci)| (ni, ci, u))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commlib::CommLibProfile;
    use crate::spec::paper_cluster;

    fn spec() -> ClusterSpec {
        paper_cluster(CommLibProfile::mpich122())
    }

    #[test]
    fn totals() {
        let cfg = Configuration::p1m1_p2m2(1, 3, 8, 1);
        assert_eq!(cfg.total_processes(), 11);
        assert_eq!(cfg.total_pes(), 9);
        assert!(!cfg.is_single_pe());
        assert_eq!(cfg.procs_per_pe(KindId(0)), 3);
        assert_eq!(cfg.pes(KindId(1)), 8);
    }

    #[test]
    fn single_pe_detection() {
        assert!(Configuration::p1m1_p2m2(1, 4, 0, 0).is_single_pe());
        assert!(Configuration::p1m1_p2m2(0, 0, 1, 6).is_single_pe());
        assert!(!Configuration::p1m1_p2m2(1, 1, 1, 1).is_single_pe());
    }

    #[test]
    fn placement_counts_match() {
        let cfg = Configuration::p1m1_p2m2(1, 2, 4, 1);
        let p = Placement::new(&spec(), &cfg).unwrap();
        assert_eq!(p.len(), 6);
        // Node 0 is the Athlon with both its processes.
        assert_eq!(p.procs_on_node(0), 2);
        // Four P-II CPUs used: nodes 1 and 2 (dual) fill first.
        assert_eq!(p.used_nodes().collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(p.cpus_used(), 5);
    }

    #[test]
    fn ranks_round_robin_across_cpus() {
        let cfg = Configuration::p1m1_p2m2(1, 2, 2, 2);
        let p = Placement::new(&spec(), &cfg).unwrap();
        // 3 CPUs used, each with 2 procs: ranks 0,1,2 on distinct CPUs.
        let first_three: Vec<(usize, usize)> =
            p.slots[..3].iter().map(|s| (s.node, s.cpu)).collect();
        let mut dedup = first_three.clone();
        dedup.dedup();
        assert_eq!(first_three.len(), dedup.len());
        assert_eq!(p.procs_on_cpu(&p.slots[0]), 2);
    }

    #[test]
    fn too_many_pes_rejected() {
        let cfg = Configuration::p1m1_p2m2(2, 1, 0, 0);
        assert_eq!(
            Placement::new(&spec(), &cfg),
            Err(ConfigError::NotEnoughPes {
                kind: KindId(0),
                requested: 2,
                available: 1
            })
        );
    }

    #[test]
    fn zero_procs_on_used_pe_rejected() {
        let cfg = Configuration::p1m1_p2m2(1, 0, 8, 1);
        assert_eq!(
            Placement::new(&spec(), &cfg),
            Err(ConfigError::ZeroProcs(KindId(0)))
        );
    }

    #[test]
    fn empty_configuration_rejected() {
        let cfg = Configuration::p1m1_p2m2(0, 0, 0, 0);
        assert_eq!(Placement::new(&spec(), &cfg), Err(ConfigError::Empty));
    }

    #[test]
    fn label_is_readable() {
        let cfg = Configuration::p1m1_p2m2(1, 2, 8, 1);
        let label = cfg.label(&spec());
        assert!(label.contains("Athlon(P=1,M=2)"));
        assert!(label.contains("Pentium-II(P=8,M=1)"));
    }

    #[test]
    fn unknown_kind_rejected() {
        let cfg = Configuration {
            uses: vec![KindUse {
                kind: KindId(9),
                pes: 1,
                procs_per_pe: 1,
            }],
        };
        assert_eq!(
            Placement::new(&spec(), &cfg),
            Err(ConfigError::UnknownKind(KindId(9)))
        );
    }
}
