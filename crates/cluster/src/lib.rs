//! # etm-cluster — heterogeneous cluster description & cost models
//!
//! The paper's testbed (Table 1) is an AMD Athlon 1.33 GHz node plus four
//! dual-processor Pentium-II 400 MHz nodes on a 100base-TX network,
//! running HPL over MPICH/ATLAS. This crate describes such clusters
//! parametrically and provides the *calibrated performance models* that
//! the discrete-event HPL simulation in `etm-hpl` charges its virtual
//! time against:
//!
//! * [`spec`] — processing-element kinds, nodes, the cluster, and
//!   [`spec::paper_cluster`] reproducing Table 1;
//! * [`commlib`] — communication-library profiles: the MPICH-1.2.1 /
//!   1.2.2 intra-node throughput gap of Figs. 1–2;
//! * [`Configuration`], [`Placement`] — cluster configurations
//!   `(Pᵢ, Mᵢ)` and process placement;
//! * [`energy`] — per-kind power draws and the `Ta/Tc → joules` model
//!   behind the bi-criteria (time × energy) optimizer objective;
//! * [`PerfModel`] — compute/communication cost functions: DGEMM
//!   efficiency versus working set, multiprocessing overhead, memory-pressure (swap)
//!   penalty, NIC/link parameters.
//!
//! All quantities are SI: seconds, bytes, flops.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod commlib;
mod config;
pub mod energy;
mod perf;
pub mod spec;

pub use commlib::CommLibProfile;
pub use config::{ConfigError, Configuration, KindUse, Placement, ProcSlot};
pub use energy::EnergyModel;
pub use perf::{PerfModel, RankPrices};
pub use spec::{ClusterSpec, KindId, NetworkSpec, NodeSpec};
