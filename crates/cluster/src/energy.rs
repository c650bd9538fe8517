//! `Ta/Tc → joules` energy model for the bi-criteria objective.
//!
//! The execution-time model already decomposes every estimate into an
//! arithmetic component `Ta` and a communication component `Tc` (§3 of
//! the paper). [`EnergyModel`] reuses exactly that split: during the
//! `Ta` fraction of a run every participating PE draws its
//! `PePower::busy_watts`, during the `Tc` fraction it draws
//! `PePower::comm_watts` (cores stalled on the NIC or on peers), so
//!
//! ```text
//! E(config, Ta, Tc) = Σ_kinds  Pᵢ · (busyᵢ·Ta + commᵢ·Tc)   [joules]
//! ```
//!
//! The `(Ta, Tc)` pair is the makespan kind's split from the *raw* §3
//! model, the makespan term of the estimate fold (`Estimate::parts` in
//! `etm-core`): the §4.1 adjustment corrects the communication-bias of
//! the *time* objective but does not re-attribute time between phases,
//! so energy deliberately follows the un-adjusted component
//! decomposition. All
//! PEs are modeled as powered for the full makespan — idle-but-powered
//! PEs bill at their communication draw, which is what makes small
//! configurations energy-competitive and the time × energy Pareto front
//! non-trivial.
//!
//! The model is deterministic and branch-free, and it admits a cheap
//! lower bound for branch-and-bound pruning: since
//! `busy·Ta + comm·Tc ≥ min(busy, comm)·(Ta + Tc)`, any completion of a
//! partially fixed configuration costs at least
//! `Σ Pᵢ ·` [`EnergyModel::kind_floor_watts`] over the fixed kinds times
//! a lower bound on the makespan.

use crate::config::KindUse;
use crate::spec::{ClusterSpec, KindId, PePower};

/// Per-kind power table turning a `(Ta, Tc)` estimate into joules.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyModel {
    /// Draw of one PE of each kind, indexed by [`KindId`].
    watts: Vec<PePower>,
}

impl EnergyModel {
    /// Builds the model from the per-kind `PePower` specs of a cluster.
    pub fn from_spec(spec: &ClusterSpec) -> Self {
        EnergyModel {
            watts: spec.kinds.iter().map(|k| k.power).collect(),
        }
    }

    /// Energy in joules of running `uses` with arithmetic time `ta` and
    /// communication time `tc` (both in seconds).
    ///
    /// # Panics
    /// Panics if the uses name a kind the model does not cover.
    pub fn joules(&self, uses: &[KindUse], ta: f64, tc: f64) -> f64 {
        let mut e = 0.0;
        for u in uses {
            let p = self.watts[u.kind.0];
            e += u.pes as f64 * (p.busy_watts * ta + p.comm_watts * tc);
        }
        e
    }

    /// `min(busy, comm)` of one PE of `kind`: the least it draws at any
    /// moment of a run. `Σ Pᵢ · kind_floor_watts(kindᵢ)` over the kinds
    /// of a (partially fixed) configuration, times a makespan lower
    /// bound, is an energy lower bound.
    ///
    /// # Panics
    /// Panics if the kind is out of range.
    pub fn kind_floor_watts(&self, kind: KindId) -> f64 {
        let p = self.watts[kind.0];
        p.busy_watts.min(p.comm_watts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commlib::CommLibProfile;
    use crate::config::Configuration;
    use crate::spec::paper_cluster;

    fn model() -> EnergyModel {
        EnergyModel::from_spec(&paper_cluster(CommLibProfile::mpich122()))
    }

    #[test]
    fn joules_sums_per_kind_phase_draws() {
        let m = model();
        // 1 Athlon (72/30 W) + 2 P-IIs (24/12 W), Ta = 10 s, Tc = 4 s.
        let cfg = Configuration::p1m1_p2m2(1, 1, 2, 1);
        let expected = (72.0 * 10.0 + 30.0 * 4.0) + 2.0 * (24.0 * 10.0 + 12.0 * 4.0);
        assert_eq!(m.joules(&cfg.uses, 10.0, 4.0), expected);
    }

    #[test]
    fn unused_kinds_draw_nothing() {
        let m = model();
        let solo = Configuration::p1m1_p2m2(1, 2, 0, 0);
        assert_eq!(m.joules(&solo.uses, 3.0, 1.0), 72.0 * 3.0 + 30.0 * 1.0);
    }

    #[test]
    fn floor_watts_lower_bounds_any_phase_split() {
        let m = model();
        let cfg = Configuration::p1m1_p2m2(1, 1, 8, 6);
        // The search's energy floor of a configuration's kinds.
        let floor: f64 = cfg
            .uses
            .iter()
            .map(|u| u.pes as f64 * m.kind_floor_watts(u.kind))
            .sum();
        let total = 7.5;
        // Whatever the Ta/Tc split of a 7.5 s run, energy is at least
        // floor × makespan.
        for k in 0..=10 {
            let ta = total * k as f64 / 10.0;
            let tc = total - ta;
            assert!(m.joules(&cfg.uses, ta, tc) + 1e-9 >= floor * total);
        }
        assert_eq!(floor, 30.0 + 8.0 * 12.0);
    }

    #[test]
    fn kind_accessors_match_spec() {
        let m = model();
        assert_eq!(m.kind_floor_watts(KindId(1)), 12.0);
    }
}
