//! Property tests of the cluster cost models and placement logic, driven
//! by the deterministic in-tree harness ([`etm_support::prop`]).

use etm_cluster::commlib::CommLibProfile;
use etm_cluster::spec::paper_cluster;
use etm_cluster::{Configuration, KindId, PerfModel, Placement};
use etm_support::prop::check;

/// Placement is total and consistent for every valid configuration.
#[test]
fn placement_consistency() {
    check(96, 0x434c_5531, |rng| {
        let p1 = rng.range_inclusive(0, 1);
        let m1 = rng.range_inclusive(1, 6);
        let p2 = rng.range_inclusive(0, 8);
        let m2 = rng.range_inclusive(1, 6);
        let spec = paper_cluster(CommLibProfile::mpich122());
        let cfg = Configuration::p1m1_p2m2(p1, m1 * p1.min(1), p2, m2 * p2.min(1));
        if cfg.total_processes() == 0 {
            return; // skip the degenerate case, as prop_assume! did
        }
        let placement = Placement::new(&spec, &cfg).expect("valid configuration");
        assert_eq!(placement.len(), cfg.total_processes());
        // Ranks are dense and unique.
        let mut ranks: Vec<usize> = placement.slots.iter().map(|s| s.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..placement.len()).collect::<Vec<_>>());
        // Per-CPU process counts match the configuration's Mi.
        for slot in &placement.slots {
            let expected = cfg.procs_per_pe(slot.kind);
            assert_eq!(placement.procs_on_cpu(slot), expected);
        }
        // Node process totals partition the ranks.
        let node_total: usize = placement
            .used_nodes()
            .map(|n| placement.procs_on_node(n))
            .sum();
        assert_eq!(node_total, placement.len());
    });
}

/// Cost-model monotonicity: more flops cost more; more co-resident
/// processes never speed a task up; overcommit never helps.
#[test]
fn cost_model_monotonicity() {
    check(96, 0x434c_5532, |rng| {
        let n = rng.range_inclusive(400, 7999);
        let flops = rng.range_f64(1.0, 100.0) * 1e8;
        let m = rng.range_inclusive(1, 5);
        let oc = rng.range_f64(0.0, 2.0);
        let spec = paper_cluster(CommLibProfile::mpich122());
        let pm = PerfModel::new(&spec, n, 4);
        let kind = KindId(1);
        let t = pm.gemm_time(kind, flops, m, oc, 64);
        assert!(t > 0.0);
        assert!(pm.gemm_time(kind, 2.0 * flops, m, oc, 64) > t);
        assert!(pm.gemm_time(kind, flops, m + 1, oc, 64) >= t);
        assert!(pm.gemm_time(kind, flops, m, oc + 0.5, 64) >= t);
        // Panel work is never cheaper per flop than BLAS-3.
        assert!(pm.panel_time(kind, flops, m, oc) >= t);
    });
}

/// DGEMM efficiency is monotone in problem size and bounded by 1.
#[test]
fn efficiency_monotone_in_n() {
    check(96, 0x434c_5533, |rng| {
        let n1 = rng.range_inclusive(400, 3999);
        let delta = rng.range_inclusive(100, 5999);
        let p = rng.range_inclusive(1, 13);
        let spec = paper_cluster(CommLibProfile::mpich122());
        for kind in [KindId(0), KindId(1)] {
            let e1 = PerfModel::new(&spec, n1, p).dgemm_eff(kind, 64);
            let e2 = PerfModel::new(&spec, n1 + delta, p).dgemm_eff(kind, 64);
            assert!(e2 >= e1, "eff must rise with N: {e1} -> {e2}");
            assert!(e2 < 1.0);
            assert!(e1 >= spec.kind(kind).eff_min);
        }
    });
}

/// Intra-node throughput is positive, bounded by the plateau, and never
/// beats the latency floor.
#[test]
fn comm_profile_bounds() {
    check(96, 0x434c_5534, |rng| {
        let bytes = rng.range_f64(64.0, 1e7);
        for lib in [CommLibProfile::mpich121(), CommLibProfile::mpich122()] {
            let bw = lib.intra_throughput(bytes);
            assert!(bw > 0.0);
            assert!(bw <= lib.intra_bw_max);
            let t = lib.intra_time(bytes);
            assert!(t >= lib.intra_latency);
        }
    });
}

/// Memory overcommit grows with N and shrinks with more processes spread
/// over more nodes.
#[test]
fn overcommit_scales_with_problem() {
    check(48, 0x434c_5535, |rng| {
        let n = rng.range_inclusive(2000, 11999);
        let spec = paper_cluster(CommLibProfile::mpich122());
        let single = Configuration::p1m1_p2m2(1, 1, 0, 0);
        let placement = Placement::new(&spec, &single).expect("valid configuration");
        let oc_small = PerfModel::new(&spec, n, 1).node_overcommit(&placement, 0, 64);
        let oc_big = PerfModel::new(&spec, n + 1000, 1).node_overcommit(&placement, 0, 64);
        assert!(oc_big > oc_small);
        // Swap factor only punishes overcommit > 1.
        let pm = PerfModel::new(&spec, n, 1);
        assert_eq!(pm.swap_factor(oc_small.min(1.0)), 1.0);
        assert!(pm.swap_factor(1.5) > 1.0);
    });
}
