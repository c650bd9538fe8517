//! Simulator golden: FNV-1a digests over the exact bit patterns of every
//! virtual time the discrete-event simulator produces for a fixed set of
//! runs. Any change to event ordering, processor sharing, derating or the
//! communication schedule moves a digest, so these tests prove bit
//! identity across rewrites of the simulation kernel.
//!
//! A digest that moves on purpose (a deliberate model change) is
//! re-pinned by copying the `got` value from the failure message.

use etm_cluster::spec::paper_cluster;
use etm_cluster::{ClusterSpec, CommLibProfile, Configuration, KindId, KindUse};
use etm_hpl::{
    simulate_hpl, simulate_hpl_grid, simulate_hpl_perturbed, simulate_hpl_weighted, BcastAlgo,
    ExecutionPerturbation, GridShape, HplParams, PhaseTimes, SimulatedRun,
};
use etm_mpisim::netpipe::{fig2_block_sizes, inter_node_sweep, intra_node_sweep};
use etm_stencil::{simulate_stencil, StencilParams};
use etm_support::hash::Fnv1a;

fn spec() -> ClusterSpec {
    paper_cluster(CommLibProfile::mpich122())
}

fn fold(h: &mut Fnv1a, x: f64) {
    h.update(&x.to_bits().to_le_bytes());
}

fn fold_phases(h: &mut Fnv1a, p: &PhaseTimes) {
    for x in [p.pfact, p.mxswp, p.update, p.laswp, p.uptrsv, p.bcast] {
        fold(h, x);
    }
}

fn fold_run(h: &mut Fnv1a, run: &SimulatedRun) {
    fold(h, run.wall_seconds);
    for p in &run.phases {
        fold_phases(h, p);
    }
}

fn assert_digest(what: &str, h: &Fnv1a, want: u64) {
    let got = h.finish();
    assert_eq!(
        got, want,
        "{what}: simulator digest moved (got {got:#018x}, want {want:#018x})"
    );
}

/// A trimmed Basic campaign: single-kind construction configurations
/// (Athlon `M1`, Pentium-II `P2 × M2`) plus mixed evaluation
/// configurations, at two orders, under both broadcast algorithms.
fn trimmed_campaign() -> Vec<Configuration> {
    vec![
        Configuration::p1m1_p2m2(1, 1, 0, 0),
        Configuration::p1m1_p2m2(1, 3, 0, 0),
        Configuration::p1m1_p2m2(1, 6, 0, 0),
        Configuration::p1m1_p2m2(0, 0, 1, 1),
        Configuration::p1m1_p2m2(0, 0, 3, 2),
        Configuration::p1m1_p2m2(0, 0, 8, 3),
        Configuration::p1m1_p2m2(1, 2, 4, 1),
        Configuration::p1m1_p2m2(1, 5, 8, 1),
    ]
}

#[test]
fn trimmed_campaign_ring_and_binomial() {
    let s = spec();
    let mut h = Fnv1a::new();
    for bcast in [BcastAlgo::Ring, BcastAlgo::Binomial] {
        for n in [400, 1200] {
            for cfg in trimmed_campaign() {
                let params = HplParams::order(n).with_bcast(bcast);
                fold_run(&mut h, &simulate_hpl(&s, &cfg, &params));
            }
        }
    }
    assert_digest("trimmed campaign", &h, 0x691b_787d_93ba_095a);
}

#[test]
fn perturbed_run_with_cpu_and_nic_derate() {
    let s = spec();
    let perturb = ExecutionPerturbation {
        cpu_slowdown: vec![(KindId(1), 2.5)],
        net_slowdown: 3.0,
    };
    let cfg = Configuration::p1m1_p2m2(1, 2, 4, 1);
    let run = simulate_hpl_perturbed(&s, &cfg, &HplParams::order(1600), &perturb);
    let mut h = Fnv1a::new();
    fold_run(&mut h, &run);
    assert_digest("perturbed run", &h, 0x1e21_108a_0a66_13a6);
}

#[test]
fn grid_and_weighted_runs() {
    let s = spec();
    let mut h = Fnv1a::new();
    let cfg = Configuration::p1m1_p2m2(1, 2, 4, 1);
    let params = HplParams::order(1200);
    fold_run(
        &mut h,
        &simulate_hpl_grid(&s, &cfg, &params, GridShape { rows: 2, cols: 3 }),
    );
    fold_run(
        &mut h,
        &simulate_hpl_grid(
            &s,
            &Configuration::p1m1_p2m2(0, 0, 8, 1),
            &params,
            GridShape::one_by(8),
        ),
    );
    fold_run(
        &mut h,
        &simulate_hpl_weighted(&s, &Configuration::p1m1_p2m2(1, 1, 8, 1), &params),
    );
    assert_digest("grid + weighted", &h, 0xf0d9_0bd0_1b75_e2d1);
}

#[test]
fn stencil_runs() {
    let s = spec();
    let mut h = Fnv1a::new();
    for cfg in [
        Configuration::p1m1_p2m2(1, 1, 0, 0),
        Configuration::p1m1_p2m2(1, 2, 3, 1),
    ] {
        let run = simulate_stencil(&s, &cfg, &StencilParams::side(200));
        fold(&mut h, run.wall_seconds);
        for p in &run.phases {
            for x in [p.compute, p.halo, p.reduce] {
                fold(&mut h, x);
            }
        }
    }
    assert_digest("stencil", &h, 0x38b4_8bb9_45c5_621d);
}

/// Sixteen ranks dealt round-robin over eight slow CPUs, two on each,
/// so every strip's neighbours run on other CPUs, each shared with a
/// distant rank. Unlike in the runs above, the order of the rank body's
/// two halo receives shows in these phase times.
#[test]
fn stencil_multiprocessed_runs() {
    let s = spec();
    let mut h = Fnv1a::new();
    let cfg = Configuration::p1m1_p2m2(0, 0, 8, 2);
    for side in [64, 200] {
        let run = simulate_stencil(&s, &cfg, &StencilParams::side(side));
        fold(&mut h, run.wall_seconds);
        for p in &run.phases {
            for x in [p.compute, p.halo, p.reduce] {
                fold(&mut h, x);
            }
        }
    }
    assert_digest("stencil_multiprocessed", &h, 0xe22a_c250_1760_1233);
}

#[test]
fn netpipe_sweeps() {
    let mut h = Fnv1a::new();
    let blocks = &fig2_block_sizes()[..4];
    for profile in [CommLibProfile::mpich121(), CommLibProfile::mpich122()] {
        let s = paper_cluster(profile);
        for sample in intra_node_sweep(&s, blocks)
            .into_iter()
            .chain(inter_node_sweep(&s, blocks))
        {
            fold(&mut h, sample.block_bytes);
            fold(&mut h, sample.bits_per_sec);
        }
    }
    assert_digest("netpipe", &h, 0x3ddb_ebc5_02f1_8053);
}

/// Count gate on the three `des_event_throughput/hpl_trial_*` bench
/// shapes, built as the bench builds them. Events are exact: a
/// different count means the simulated behaviour changed. Polls are an
/// upper bound, to be lowered by the change that earns it. They sit
/// below the events since a hold or a lone compute whose wake is the
/// next event finishes inside its own poll: the single-Athlon trial is
/// one poll.
#[test]
fn bench_trial_simulator_work_is_pinned() {
    let s = spec();
    let slow = |pes, procs_per_pe| Configuration {
        uses: vec![KindUse {
            kind: KindId(1),
            pes,
            procs_per_pe,
        }],
    };
    for (name, cfg, n, events, max_polls) in [
        ("p2x8m6_n1600", slow(8, 6), 1600, 6_928, 4_250),
        ("p2x8m5_n6400", slow(8, 5), 6400, 27_323, 19_604),
        (
            "p1m1_n1600",
            Configuration::p1m1_p2m2(1, 1, 0, 0),
            1600,
            149,
            1,
        ),
    ] {
        let run = simulate_hpl(&s, &cfg, &HplParams::order(n).with_nb(64));
        assert_eq!(run.events, events, "hpl_trial_{name} events");
        assert!(
            run.polls <= max_polls,
            "hpl_trial_{name} polled {} times, bound {max_polls}",
            run.polls
        );
    }
}
