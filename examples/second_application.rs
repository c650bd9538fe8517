//! Beyond HPL (§5 future work): run the estimation pipeline on a second
//! application — a memory-bound 2-D Jacobi stencil — without changing a
//! line of the model code.
//!
//! Run with: `cargo run --release --example second_application`

use hetero_etm::cluster::spec::paper_cluster;
use hetero_etm::cluster::{CommLibProfile, Configuration, KindId, KindUse};
use hetero_etm::core::measurement::{MeasurementDb, Sample, SampleKey};
use hetero_etm::core::pipeline::{Estimator, ModelBank};
use hetero_etm::stencil::numeric::{run_numeric_stencil, serial_jacobi};
use hetero_etm::stencil::{simulate_stencil, StencilParams};

fn main() {
    // 1. The application is real: the distributed numeric Jacobi agrees
    //    with a serial sweep.
    let n = 32;
    let iters = 20;
    let serial = serial_jacobi(n, iters, |r, c| {
        f64::from(r == 0 || c == 0 || r == n - 1 || c == n - 1)
    });
    let dist = run_numeric_stencil(n, iters, 4);
    let max_diff = serial
        .iter()
        .zip(&dist.grid)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("numeric check: distributed vs serial max |diff| = {max_diff:.2e}");
    assert!(max_diff < 1e-12);

    // 2. Measure homogeneous trials on the simulated cluster and fit the
    //    SAME models the HPL pipeline uses.
    let spec = paper_cluster(CommLibProfile::mpich122());
    let mut db = MeasurementDb::new();
    for &side in &[256usize, 512, 768, 1024] {
        for (kind, pes_list) in [(KindId(0), vec![1usize]), (KindId(1), vec![1, 2, 4, 8])] {
            for &pes in &pes_list {
                let key = SampleKey::new(kind, pes, 1);
                let cfg = Configuration {
                    uses: vec![KindUse {
                        kind,
                        pes,
                        procs_per_pe: 1,
                    }],
                };
                let run = simulate_stencil(&spec, &cfg, &StencilParams::side(side));
                db.record(
                    key,
                    Sample {
                        n: side,
                        ta: run.ta_of_kind(kind).unwrap(),
                        tc: run.tc_of_kind(kind).unwrap(),
                        wall: run.wall_seconds,
                        multi_node: run.nodes_used > 1,
                    },
                );
            }
        }
    }
    let est = Estimator::unadjusted(ModelBank::fit(&db).expect("fit"));
    println!(
        "fitted {} N-T and {} P-T models from {} stencil trials",
        est.bank.nt.len(),
        est.bank.pt.len(),
        db.len()
    );

    // 3. How many Pentium-IIs should a stencil of side 640 use?
    let side = 640;
    println!("\n  P2s   estimated   measured");
    for p2 in [1usize, 2, 4, 6, 8] {
        let cfg = Configuration::p1m1_p2m2(0, 0, p2, 1);
        let e = est.estimate(&cfg, side).expect("estimate");
        let m = simulate_stencil(&spec, &cfg, &StencilParams::side(side)).wall_seconds;
        println!("  {p2:>3} {e:>10.2}s {m:>9.2}s");
    }
    println!(
        "\n-> unlike HPL, the latency-bound stencil stops scaling early on\n\
         100 Mb/s ethernet — and the model, fit only on measurements,\n\
         predicts the flattening without knowing the application."
    );
}
