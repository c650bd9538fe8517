//! The related-work baseline: a *rewritten* HPL with speed-weighted
//! column distribution (§2: Kalinov & Lastovetsky's heterogeneous block
//! cyclic distribution, Beaumont et al.'s heterogeneous ScaLAPACK).
//!
//! The paper's position is that rewriting "requires much time and effort
//! ... and the effort must be repeated for each application," and that
//! multiprocessing recovers most of the benefit without touching the
//! source. This module supplies the rewritten baseline so that claim can
//! be *measured*: [`simulate_hpl_weighted`] runs the same timed HPL with
//! one process per PE and column blocks dealt in proportion to each PE's
//! peak speed.

use etm_cluster::{ClusterSpec, Configuration, Placement};

use crate::dist::WeightedDist;
use crate::params::HplParams;
use crate::simulate::{simulate_1d, ExecutionPerturbation, SimulatedRun};

/// Simulates HPL with a speed-weighted column distribution — the
/// "rewrite the application" approach of the paper's related work.
///
/// The configuration must use one process per PE (`Mᵢ = 1`): weighting
/// replaces multiprocessing, that is the comparison's whole point.
///
/// # Panics
/// Panics if any used kind has `Mᵢ ≠ 1`, or if the configuration is
/// invalid for the cluster.
pub fn simulate_hpl_weighted(
    spec: &ClusterSpec,
    config: &Configuration,
    params: &HplParams,
) -> SimulatedRun {
    for u in config.uses.iter().filter(|u| u.pes > 0) {
        assert_eq!(
            u.procs_per_pe, 1,
            "weighted distribution runs one process per PE (kind {})",
            u.kind.0
        );
    }
    let placement = Placement::new(spec, config).expect("invalid configuration");
    let weights: Vec<f64> = placement
        .slots
        .iter()
        .map(|s| spec.kind(s.kind).peak_flops)
        .collect();
    let dist = WeightedDist::new(params.n, params.nb, &weights);
    simulate_1d(
        spec,
        &placement,
        params,
        "hplw-rank",
        dist,
        &ExecutionPerturbation::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::simulate_hpl;
    use etm_cluster::commlib::CommLibProfile;
    use etm_cluster::spec::paper_cluster;
    use etm_cluster::KindId;

    fn spec() -> ClusterSpec {
        paper_cluster(CommLibProfile::mpich122())
    }

    #[test]
    fn weighted_beats_equal_distribution_on_heterogeneous_cluster() {
        // The whole point of the related work: weighting fixes the load
        // imbalance of Fig 3(a).
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(1, 1, 8, 1);
        let n = HplParams::order(4800);
        let equal = simulate_hpl(&s, &cfg, &n).wall_seconds;
        let weighted = simulate_hpl_weighted(&s, &cfg, &n).wall_seconds;
        assert!(
            weighted < 0.85 * equal,
            "weighted {weighted} must clearly beat equal {equal}"
        );
    }

    #[test]
    fn weighted_balances_per_kind_compute() {
        // Athlon and P-II compute times converge under weighting.
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(1, 1, 8, 1);
        let run = simulate_hpl_weighted(&s, &cfg, &HplParams::order(4800));
        let ta_fast = run.ta_of_kind(KindId(0)).unwrap();
        let ta_slow = run.ta_of_kind(KindId(1)).unwrap();
        let ratio = ta_slow / ta_fast;
        assert!(
            (0.4..2.5).contains(&ratio),
            "weighted compute should be roughly balanced, got ratio {ratio}"
        );
    }

    #[test]
    fn homogeneous_weighted_equals_block_cyclic_closely() {
        // Equal speeds -> the weighted deal degenerates to a balanced
        // interleaving; times should match the block-cyclic run closely.
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(0, 0, 8, 1);
        let n = HplParams::order(2400);
        let cyclic = simulate_hpl(&s, &cfg, &n).wall_seconds;
        let weighted = simulate_hpl_weighted(&s, &cfg, &n).wall_seconds;
        let rel = ((weighted - cyclic) / cyclic).abs();
        assert!(
            rel < 0.10,
            "homogeneous: {weighted} vs {cyclic} (rel {rel:.3})"
        );
    }

    #[test]
    #[should_panic(expected = "one process per PE")]
    fn multiprocessing_configs_rejected() {
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(1, 3, 8, 1);
        let _ = simulate_hpl_weighted(&s, &cfg, &HplParams::order(800));
    }

    #[test]
    fn deterministic() {
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(1, 1, 4, 1);
        let a = simulate_hpl_weighted(&s, &cfg, &HplParams::order(1200));
        let b = simulate_hpl_weighted(&s, &cfg, &HplParams::order(1200));
        assert_eq!(a.wall_seconds.to_bits(), b.wall_seconds.to_bits());
    }
}
