//! The paper's motivating scenario (§1–2): you own a homogeneous
//! Pentium-II cluster and add one fast Athlon node. Running unmodified
//! HPL distributes work equally, so the Athlon idles at synchronization
//! — unless you invoke multiple processes on it.
//!
//! This example reproduces the Fig. 3 story: load imbalance, the
//! multiprocessing remedy, and how the best process count shifts with
//! problem size.
//!
//! Run with: `cargo run --release --example cluster_upgrade`

use hetero_etm::cluster::spec::paper_cluster;
use hetero_etm::cluster::{CommLibProfile, Configuration};
use hetero_etm::hpl::{simulate_hpl, HplParams};

fn gflops(spec: &hetero_etm::cluster::ClusterSpec, cfg: &Configuration, n: usize) -> f64 {
    simulate_hpl(spec, cfg, &HplParams::order(n)).gflops
}

fn main() {
    let spec = paper_cluster(CommLibProfile::mpich122());

    println!("== Load imbalance (Fig 3a) ==");
    println!(
        "{:>8} {:>10} {:>14} {:>8}",
        "N", "Athlon x1", "Ath+P2x4 (eq)", "P2 x5"
    );
    for n in [2000usize, 4000, 6000, 8000, 10000] {
        let athlon = gflops(&spec, &Configuration::p1m1_p2m2(1, 1, 0, 0), n);
        let hetero = gflops(&spec, &Configuration::p1m1_p2m2(1, 1, 4, 1), n);
        let p2only = gflops(&spec, &Configuration::p1m1_p2m2(0, 0, 5, 1), n);
        println!("{n:>8} {athlon:>10.2} {hetero:>14.2} {p2only:>8.2}");
    }
    println!(
        "-> with equal distribution the upgraded cluster is no better than\n\
         the Pentium-IIs alone: the Athlon waits at synchronization."
    );

    println!("\n== Multiprocessing remedy (Fig 3b): n processes on the Athlon ==");
    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8}  best",
        "N", "n=1", "n=2", "n=3", "n=4"
    );
    for n in [1000usize, 3000, 5000, 8000, 10000] {
        let gs: Vec<f64> = (1..=4)
            .map(|m| gflops(&spec, &Configuration::p1m1_p2m2(1, m, 4, 1), n))
            .collect();
        let best = gs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i + 1)
            .expect("1..=4 is non-empty");
        println!(
            "{n:>8} {:>8.2} {:>8.2} {:>8.2} {:>8.2}  n={best}",
            gs[0], gs[1], gs[2], gs[3]
        );
    }
    println!(
        "-> the optimal process count grows with N: overheads dominate small\n\
         problems, load balance dominates large ones. Predicting this\n\
         crossover without measuring everything is what the estimation\n\
         model (see `quickstart`) is for."
    );
}
