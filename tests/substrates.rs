//! Cross-crate integration tests of the substrates: numeric HPL over
//! real message passing and the timed HPL over the discrete-event
//! fabric. Both run one rank body; that they send the same messages is
//! checked in `crates/hpl/tests/send_sequence.rs`.

use hetero_etm::cluster::spec::paper_cluster;
use hetero_etm::cluster::{CommLibProfile, Configuration, KindId};
use hetero_etm::hpl::numeric::run_numeric;
use hetero_etm::hpl::{simulate_hpl, BcastAlgo, HplParams};
use hetero_etm::linalg::gen::{hpl_matrix, hpl_rhs};
use hetero_etm::linalg::verify::residual;

#[test]
fn numeric_hpl_solves_across_rank_counts() {
    for p in [1usize, 2, 5, 8] {
        let params = HplParams::order(120).with_nb(24).with_seed(p as u64 + 100);
        let r = run_numeric(&params, p);
        assert!(
            r.residual.passes(),
            "p={p}: scaled residual {}",
            r.residual.scaled
        );
        // Cross-check against an independent residual computation.
        let a = hpl_matrix(120, p as u64 + 100);
        let b = hpl_rhs(120, p as u64 + 100);
        let again = residual(&a, &r.x, &b);
        assert_eq!(again.scaled, r.residual.scaled);
    }
}

#[test]
fn numeric_hpl_bcast_algorithms_agree() {
    let ring = run_numeric(
        &HplParams::order(96).with_nb(16).with_bcast(BcastAlgo::Ring),
        4,
    );
    let binom = run_numeric(
        &HplParams::order(96)
            .with_nb(16)
            .with_bcast(BcastAlgo::Binomial),
        4,
    );
    // Same arithmetic, different communication schedule: identical x.
    for (a, b) in ring.x.iter().zip(&binom.x) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn simulated_phase_structure_matches_paper_fig4() {
    // Every phase of Fig. 4 must be populated for a multi-PE run, and
    // the decomposition identities must hold.
    let spec = paper_cluster(CommLibProfile::mpich122());
    let run = simulate_hpl(
        &spec,
        &Configuration::p1m1_p2m2(1, 2, 4, 1),
        &HplParams::order(1600),
    );
    for (i, ph) in run.phases.iter().enumerate() {
        assert!(ph.pfact >= 0.0 && ph.update > 0.0, "rank {i}: {ph:?}");
        assert!(ph.bcast > 0.0, "rank {i} must spend time in bcast");
        assert!(ph.laswp > 0.0, "rank {i} must spend time in laswp");
        assert!((ph.rfact() - (ph.pfact + ph.mxswp)).abs() < 1e-12);
        assert!((ph.total() - (ph.ta() + ph.tc())).abs() < 1e-9);
    }
    // The panel owners collectively did all the pfact work.
    let total_pfact: f64 = run.phases.iter().map(|p| p.pfact).sum();
    assert!(total_pfact > 0.0);
}

#[test]
fn wall_time_bounded_by_phase_accounting() {
    // The simulated wall time is at least the slowest rank's accounted
    // phases (phases measure elapsed windows, so slack can only add).
    let spec = paper_cluster(CommLibProfile::mpich122());
    let run = simulate_hpl(
        &spec,
        &Configuration::p1m1_p2m2(1, 1, 8, 1),
        &HplParams::order(2400),
    );
    let slowest_total = run.phases.iter().map(|p| p.total()).fold(0.0_f64, f64::max);
    assert!(
        run.wall_seconds >= 0.95 * slowest_total,
        "wall {} vs slowest accounted {}",
        run.wall_seconds,
        slowest_total
    );
    assert!(run.wall_seconds < 2.0 * slowest_total);
}

#[test]
fn comm_library_profile_changes_multiprocessing_only() {
    // Single process per CPU: the two MPICH profiles should give nearly
    // identical times (inter-node path identical); with 4 processes on
    // the Athlon the old profile must be clearly worse.
    let old = paper_cluster(CommLibProfile::mpich121());
    let new = paper_cluster(CommLibProfile::mpich122());
    let n = HplParams::order(2400);

    let single_old = simulate_hpl(&old, &Configuration::p1m1_p2m2(1, 1, 0, 0), &n).wall_seconds;
    let single_new = simulate_hpl(&new, &Configuration::p1m1_p2m2(1, 1, 0, 0), &n).wall_seconds;
    assert!(
        (single_old - single_new).abs() / single_new < 0.02,
        "single-process runs should not care about the intra-node path: {single_old} vs {single_new}"
    );

    let multi_old = simulate_hpl(&old, &Configuration::p1m1_p2m2(1, 4, 0, 0), &n).wall_seconds;
    let multi_new = simulate_hpl(&new, &Configuration::p1m1_p2m2(1, 4, 0, 0), &n).wall_seconds;
    assert!(
        multi_old > 1.15 * multi_new,
        "MPICH-1.2.1 must hurt multiprocessing: {multi_old} vs {multi_new}"
    );
}

#[test]
fn per_kind_times_track_heterogeneity() {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let run = simulate_hpl(
        &spec,
        &Configuration::p1m1_p2m2(1, 1, 8, 1),
        &HplParams::order(3200),
    );
    let ta_fast = run.ta_of_kind(KindId(0)).unwrap();
    let ta_slow = run.ta_of_kind(KindId(1)).unwrap();
    // Equal work, ~5x speed difference.
    let ratio = ta_slow / ta_fast;
    assert!(
        (2.5..8.0).contains(&ratio),
        "Ta ratio should reflect the speed gap: {ratio}"
    );
    // The slow kind's wait shows up as the fast kind's bcast/Tc? No: the
    // *fast* kind finishes compute early and waits in bcast for panels
    // from slow owners.
    let tc_fast = run.tc_of_kind(KindId(0)).unwrap();
    assert!(tc_fast > 0.0);
}

#[test]
fn nodes_used_reported_correctly() {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let single = simulate_hpl(
        &spec,
        &Configuration::p1m1_p2m2(1, 2, 0, 0),
        &HplParams::order(800),
    );
    assert_eq!(single.nodes_used, 1);
    let multi = simulate_hpl(
        &spec,
        &Configuration::p1m1_p2m2(1, 1, 8, 1),
        &HplParams::order(800),
    );
    assert_eq!(multi.nodes_used, 5);
    // Two P-II processes land on one dual node.
    let dual = simulate_hpl(
        &spec,
        &Configuration::p1m1_p2m2(0, 0, 2, 1),
        &HplParams::order(800),
    );
    assert_eq!(dual.nodes_used, 1);
}
