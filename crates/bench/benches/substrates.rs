//! Substrate performance benchmarks: the dense-linear-algebra kernels,
//! the numeric distributed HPL, and the discrete-event engine's raw
//! event throughput. These are ablation-style checks that the built
//! substrates are fast enough to carry the reproduction.

use etm_bench::{black_box, Runner};
use etm_cluster::spec::paper_cluster;
use etm_cluster::{CommLibProfile, Configuration, KindId, KindUse};
use etm_hpl::numeric::run_numeric;
use etm_hpl::{simulate_hpl, HplParams};
use etm_linalg::blas3::{dgemm, dgemm_naive};
use etm_linalg::gen::{hpl_matrix, seeded_matrix};
use etm_linalg::lu::dgetrf;
use etm_linalg::Matrix;
use etm_sim::Simulation;

/// Blocked `dgemm` is gated against the naive triple loop.
fn gemm_kernels(r: &mut Runner) {
    for (n, bound) in BLOCKED_OVER_NAIVE {
        let a = seeded_matrix(n, n, 1);
        let b = seeded_matrix(n, n, 2);
        let (mut c_naive, mut c_blocked) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
        r.pair(
            &format!("gemm_kernels/blocked/{n}"),
            &format!("gemm_kernels/naive/{n}"),
            || dgemm(1.0, &a, &b, 0.0, black_box(&mut c_blocked)),
            || dgemm_naive(1.0, &a, &b, 0.0, black_box(&mut c_naive)),
            Some(bound),
        );
    }
}

fn lu_factorization(r: &mut Runner) {
    for &n in &[128usize, 256] {
        let a0 = hpl_matrix(n, 7);
        for &nb in &[16usize, 64] {
            r.bench(&format!("lu_factorization/nb{nb}/{n}"), || {
                let mut a = a0.clone();
                black_box(dgetrf(&mut a, nb).expect("non-singular"))
            });
        }
    }
}

fn numeric_hpl(r: &mut Runner) {
    for &p in &[1usize, 4] {
        let params = HplParams::order(192).with_nb(32);
        r.bench(&format!("numeric_hpl/{p}"), || {
            black_box(run_numeric(&params, p).residual.scaled)
        });
    }
}

/// Raw DES throughput: ping-pong events between two processes.
fn des_event_throughput(r: &mut Runner) {
    let rounds = 2000u32;
    r.bench("des_event_throughput/pingpong_2000", || {
        let mut sim = Simulation::new();
        let to_b = sim.add_mailbox();
        let to_a = sim.add_mailbox();
        sim.spawn("a", move |ctx| async move {
            for i in 0..rounds {
                ctx.send(to_b, i);
                let _: u32 = ctx.recv(to_a).await;
            }
        });
        sim.spawn("b", move |ctx| async move {
            for _ in 0..rounds {
                let v: u32 = ctx.recv(to_b).await;
                ctx.send(to_a, v);
            }
        });
        black_box(sim.run().expect("no deadlock"))
    });
    r.bench("des_event_throughput/processor_sharing_16x", || {
        let mut sim = Simulation::<()>::new();
        let cpu = sim.add_shared_resource("cpu", 1.0);
        for _ in 0..16 {
            sim.spawn("w", move |ctx| async move {
                for _ in 0..50 {
                    ctx.compute(cpu, 0.01).await;
                }
            });
        }
        black_box(sim.run().expect("no deadlock"))
    });
    // One contended trial of the Basic construction campaign: 8 Pentium-II
    // PEs with 6 processes each (48 ranks) at N = 1600 — the unit the
    // campaign repeats 486 times.
    let spec = paper_cluster(CommLibProfile::mpich122());
    let config = Configuration {
        uses: vec![KindUse {
            kind: KindId(1),
            pes: 8,
            procs_per_pe: 6,
        }],
    };
    let params = HplParams::order(1600).with_nb(64);
    r.bench("des_event_throughput/hpl_trial_p2x8m6_n1600", || {
        black_box(simulate_hpl(&spec, &config, &params).wall_seconds)
    });
    // The campaign's most expensive trial: 8 Pentium-II PEs with 5
    // processes each (40 ranks) at N = 6400.
    let heaviest = Configuration {
        uses: vec![KindUse {
            kind: KindId(1),
            pes: 8,
            procs_per_pe: 5,
        }],
    };
    let large = HplParams::order(6400).with_nb(64);
    // The closed loop's repeated trial: one Athlon, one process, N = 1600.
    // Every job in it has its CPU to itself and finishes inside the one
    // poll of the trial, so it is timed against the mostly shared trial
    // above: a slower lone-job or in-place path raises the ratio.
    let single = Configuration::p1m1_p2m2(1, 1, 0, 0);
    r.pair(
        "des_event_throughput/hpl_trial_p1m1_n1600",
        "des_event_throughput/hpl_trial_p2x8m5_n6400",
        || black_box(simulate_hpl(&spec, &single, &params).wall_seconds),
        || black_box(simulate_hpl(&spec, &heaviest, &large).wall_seconds),
        Some(LONE_OVER_SHARED),
    );
    // The same trial at N = NB: one block and a handful of events, so
    // nearly all of its time is the trial's set-up (placement, fabric,
    // simulation, spawn, result collection). Timed against the N = 1600
    // trial, whose events dominate: set-up that builds more than the run
    // reads raises the ratio.
    let one_block = HplParams::order(64).with_nb(64);
    r.pair(
        "des_event_throughput/hpl_trial_p1m1_nb",
        "des_event_throughput/hpl_trial_p1m1_n1600",
        || black_box(simulate_hpl(&spec, &single, &one_block).wall_seconds),
        || black_box(simulate_hpl(&spec, &single, &params).wall_seconds),
        Some(SETUP_OVER_TRIAL),
    );
}

/// Bound on `hpl_trial_p1m1_nb / hpl_trial_p1m1_n1600`. The medians of
/// the per-sample ratios measured 0.194–0.215 over 12 runs pinned to one
/// CPU and 0.201–0.214 over 12 unpinned on a shared 2-vCPU host; the
/// bound passes every run and fails a 2× slowdown of the one-block
/// trial (≥ 0.388). With a launcher that formats every rank's and
/// resource's name, clones the communication profile, builds the
/// placement's node list twice and regrows the kernel's tables push by
/// push, the same alternating runs read 0.293–0.312 pinned and
/// 0.298–0.316 unpinned, above it every time.
const SETUP_OVER_TRIAL: f64 = 0.25;

/// Bound on `hpl_trial_p1m1_n1600 / hpl_trial_p2x8m5_n6400`. The
/// medians of the per-sample ratios measured 0.00124–0.00146 over 24
/// runs pinned to one CPU and 0.00130–0.00153 over 24 unpinned on a
/// shared 2-vCPU host. The bound passes every run and fails a 2×
/// slowdown of the lone-job trial (≥ 0.0024). With every hold and lone
/// compute yielding to the kernel instead of finishing in place when
/// its wake is the next event, the same alternating runs read
/// 0.00234–0.00271 (24 pinned, 24 unpinned), above it every time.
const LONE_OVER_SHARED: f64 = 0.0020;

/// Matrix orders of the `gemm` rows, each with its bound on
/// `gemm_kernels/blocked/n / gemm_kernels/naive/n`. The medians of the
/// per-sample ratios measured 0.276–0.437 at 64 and 0.221–0.320 at 192
/// over 34 runs pinned to one CPU and 34 unpinned on a shared 2-vCPU
/// host; each bound passes every run and fails a 2× slowdown of the
/// blocked kernel (≥ 0.552 and ≥ 0.442).
const BLOCKED_OVER_NAIVE: [(usize, f64); 2] = [(64, 0.5), (192, 0.4)];

fn main() {
    let mut r = Runner::new("substrates");
    gemm_kernels(&mut r);
    lu_factorization(&mut r);
    numeric_hpl(&mut r);
    des_event_throughput(&mut r);
    r.finish();
}
