//! One function per table/figure of the paper. Each returns structured
//! rows; the `repro` binary renders them as text + CSV, and `etm-bench`
//! measures them.

use std::sync::{Mutex, PoisonError};

use etm_cluster::spec::paper_cluster;
use etm_cluster::{ClusterSpec, CommLibProfile, Configuration, KindId};
use etm_core::backend::{ModelBackend, PolyLsqBackend};
use etm_core::engine::Engine;
use etm_core::pipeline::{run_construction, Estimator};
use etm_core::plan::MeasurementPlan;
use etm_core::MeasurementDb;
use etm_hpl::{simulate_hpl, HplParams};
use etm_mpisim::netpipe::{fig2_block_sizes, intra_node_sweep, ThroughputSample};
use etm_support::pool;

use crate::correlate::{best_config_row, correlation_at, BestConfigRow, CorrelationPoint};

/// Block size used throughout the reproduction (HPL default-ish).
pub const NB: usize = 64;

/// Fig. 1: multiprocessing Gflops on a single Athlon, `n` processes per
/// CPU, under one communication-library profile.
pub fn fig1_multiprocessing(profile: CommLibProfile) -> Vec<(usize, usize, f64)> {
    let spec = paper_cluster(profile);
    let cells: Vec<(usize, usize)> = (1..=4usize)
        .flat_map(|m| {
            [1000usize, 2000, 3000, 4000, 5000, 6000, 7000]
                .into_iter()
                .map(move |n| (m, n))
        })
        .collect();
    pool::par_map(&cells, pool::num_threads(), |_, &(m, n)| {
        let cfg = Configuration::p1m1_p2m2(1, m, 0, 0);
        let run = simulate_hpl(&spec, &cfg, &HplParams::order(n).with_nb(NB));
        (m, n, run.gflops)
    })
}

/// Fig. 2: NetPIPE-style intra-node throughput sweep for a profile.
pub fn fig2_netpipe(profile: CommLibProfile) -> Vec<ThroughputSample> {
    let spec = paper_cluster(profile);
    intra_node_sweep(&spec, &fig2_block_sizes())
}

/// A named configuration series for Fig. 3.
#[derive(Clone, Debug)]
pub struct GflopsSeries {
    /// Series label as in the paper's legend.
    pub label: String,
    /// `(N, Gflops)` points.
    pub points: Vec<(usize, f64)>,
}

fn gflops_series(
    spec: &ClusterSpec,
    label: &str,
    cfg: Configuration,
    ns: &[usize],
) -> GflopsSeries {
    GflopsSeries {
        label: label.to_string(),
        points: pool::par_map(ns, pool::num_threads(), |_, &n| {
            let run = simulate_hpl(spec, &cfg, &HplParams::order(n).with_nb(NB));
            (n, run.gflops)
        }),
    }
}

/// Fig. 3(a): load imbalance — Athlon×1 vs Ath+P2×4 vs P2×5.
pub fn fig3a_load_imbalance() -> Vec<GflopsSeries> {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let ns = [
        1000usize, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000,
    ];
    vec![
        gflops_series(
            &spec,
            "Athlon x 1",
            Configuration::p1m1_p2m2(1, 1, 0, 0),
            &ns,
        ),
        gflops_series(
            &spec,
            "Ath x 1 + P2 x 4",
            Configuration::p1m1_p2m2(1, 1, 4, 1),
            &ns,
        ),
        gflops_series(&spec, "P2 x 5", Configuration::p1m1_p2m2(0, 0, 5, 1), &ns),
    ]
}

/// Fig. 3(b): multiprocessing on the heterogeneous subset —
/// `Athlon(nP) + P2×4` for n = 1..4, plus the Athlon-alone reference.
pub fn fig3b_multiprocess() -> Vec<GflopsSeries> {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let ns = [
        1000usize, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000,
    ];
    let mut series = vec![gflops_series(
        &spec,
        "Athlon x 1",
        Configuration::p1m1_p2m2(1, 1, 0, 0),
        &ns,
    )];
    for m in 1..=4usize {
        series.push(gflops_series(
            &spec,
            &format!("n = {m}"),
            Configuration::p1m1_p2m2(1, m, 4, 1),
            &ns,
        ));
    }
    series
}

/// The construction-campaign cost accounting of Tables 3 and 6:
/// per-N measurement seconds for each kind, plus totals.
#[derive(Clone, Debug)]
pub struct CampaignCost {
    /// `(N, athlon_seconds, pentium_seconds)` ascending in N.
    pub rows: Vec<(usize, f64, f64)>,
    /// Total simulated measurement seconds.
    pub total: f64,
}

/// A plan's construction campaign on the paper cluster, measured once
/// per process: the first call for a plan runs the simulated trials,
/// and later calls for an equal plan get a copy of that database. The
/// memo lives only in memory, so every process measures the campaigns
/// it reports with the simulator it was built from.
pub fn campaign_db(plan: &MeasurementPlan) -> MeasurementDb {
    static MEMO: Mutex<Vec<(MeasurementPlan, MeasurementDb)>> = Mutex::new(Vec::new());
    // Held across the campaign, so concurrent callers of one plan wait
    // for its first measurement instead of repeating it. A campaign
    // that panics pushes nothing, so a poisoned memo is still valid.
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, db)) = memo.iter().find(|(p, _)| p == plan) {
        return db.clone();
    }
    let spec = paper_cluster(CommLibProfile::mpich122());
    let db = run_construction(&spec, plan, NB);
    memo.push((plan.clone(), db.clone()));
    db
}

/// Runs a plan's construction campaign and accounts its cost.
pub fn campaign_cost(plan: &MeasurementPlan) -> (MeasurementDb, CampaignCost) {
    let db = campaign_db(plan);
    let a = db.cost_by_n(KindId(0));
    let p = db.cost_by_n(KindId(1));
    let mut rows = Vec::new();
    for (n, at) in &a {
        let pt = p
            .iter()
            .find(|(pn, _)| pn == n)
            .map(|(_, t)| *t)
            .unwrap_or(0.0);
        rows.push((*n, *at, pt));
    }
    let cost = CampaignCost {
        rows,
        total: db.total_cost(),
    };
    (db, cost)
}

/// Builds the serving engine for a campaign on the paper cluster:
/// the campaign's construction measurements, the paper's polynomial-LSQ
/// backend, and the §4.1 adjustment measured at the paper's reference
/// configuration.
pub fn engine_for(plan: &MeasurementPlan) -> Engine {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let db = campaign_db(plan);
    Engine::from_campaign(&spec, plan, NB, db, Box::new(PolyLsqBackend::paper()))
        .expect("pipeline fits")
}

/// Builds the estimator for a campaign on the paper cluster.
pub fn estimator_for(plan: &MeasurementPlan) -> Estimator {
    engine_for(plan).snapshot().estimator().clone()
}

/// The full evaluation of one campaign: correlations at every evaluation
/// N and the best-configuration table.
#[derive(Clone, Debug)]
pub struct CampaignEvaluation {
    /// Correlation points per evaluation N.
    pub correlations: Vec<(usize, Vec<CorrelationPoint>)>,
    /// One row per evaluation N (Tables 4/7/9).
    pub best_rows: Vec<BestConfigRow>,
}

/// Runs a campaign end-to-end: fit models, correlate and pick best
/// configurations at every evaluation size.
pub fn evaluate_campaign(plan: &MeasurementPlan) -> CampaignEvaluation {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let snapshot = engine_for(plan).snapshot();
    let mut correlations = Vec::new();
    let mut best_rows = Vec::new();
    for &n in &plan.evaluation_ns {
        let points = correlation_at(&spec, &snapshot, n, NB);
        best_rows.push(best_config_row(&points, n));
        correlations.push((n, points));
    }
    CampaignEvaluation {
        correlations,
        best_rows,
    }
}

/// §4 timing claims: how long model construction and the 62-config
/// estimation take (the paper: 0.69 ms / 0.52 ms and 35 ms / 26.4 ms on
/// an AthlonXP 2600+). Fitting is timed through the backend trait and
/// estimation through a lock-free engine snapshot — the same paths every
/// serving query takes.
pub fn timing_claims(plan: &MeasurementPlan) -> (f64, f64) {
    let db = campaign_db(plan);
    let backend = PolyLsqBackend::paper();
    let t0 = std::time::Instant::now();
    let bank = backend.fit(&db).expect("fit");
    let fit_seconds = t0.elapsed().as_secs_f64();
    assert!(!bank.nt.is_empty());
    let engine = Engine::new(Box::new(backend), db, None).expect("pipeline fits");
    let snapshot = engine.snapshot();
    let configs = etm_core::plan::evaluation_configs();
    let t1 = std::time::Instant::now();
    let mut acc = 0.0;
    for c in &configs {
        if let Ok(t) = snapshot.estimate(c, 6400) {
            acc += t;
        }
    }
    let estimate_seconds = t1.elapsed().as_secs_f64();
    assert!(acc > 0.0);
    (fit_seconds, estimate_seconds)
}

/// Ablation: what if the paper had used its (installed but unused)
/// gigabit network? Wall seconds of representative configurations under
/// both networks.
pub fn ablation_network() -> Vec<(String, usize, f64, f64)> {
    use etm_cluster::NetworkSpec;
    let mut fast = paper_cluster(CommLibProfile::mpich122());
    let mut giga = paper_cluster(CommLibProfile::mpich122());
    fast.network = NetworkSpec::fast_ethernet();
    giga.network = NetworkSpec::gigabit();
    let mut rows = Vec::new();
    for (label, cfg) in [
        ("Athlon x1", Configuration::p1m1_p2m2(1, 1, 0, 0)),
        ("Ath(1)+P2x8", Configuration::p1m1_p2m2(1, 1, 8, 1)),
        ("Ath(4)+P2x8", Configuration::p1m1_p2m2(1, 4, 8, 1)),
    ] {
        for n in [1600usize, 3200, 6400] {
            let t_fast = simulate_hpl(&fast, &cfg, &HplParams::order(n).with_nb(NB)).wall_seconds;
            let t_giga = simulate_hpl(&giga, &cfg, &HplParams::order(n).with_nb(NB)).wall_seconds;
            rows.push((label.to_string(), n, t_fast, t_giga));
        }
    }
    rows
}

/// Ablation: HPL block size NB. The paper fixes NB; this sweep shows the
/// granularity-vs-BLAS3-efficiency trade the simulator captures.
pub fn ablation_block_size() -> Vec<(usize, usize, f64)> {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let cfg = Configuration::p1m1_p2m2(1, 2, 8, 1);
    let mut rows = Vec::new();
    for n in [3200usize, 6400] {
        for nb in [16usize, 32, 64, 128, 256] {
            let t = simulate_hpl(&spec, &cfg, &HplParams::order(n).with_nb(nb)).wall_seconds;
            rows.push((n, nb, t));
        }
    }
    rows
}

/// Ablation: panel broadcast algorithm (HPL's BCAST option): increasing
/// ring (the paper's default) vs binomial tree.
pub fn ablation_bcast() -> Vec<(String, usize, f64, f64)> {
    use etm_hpl::BcastAlgo;
    let spec = paper_cluster(CommLibProfile::mpich122());
    let mut rows = Vec::new();
    for (label, cfg) in [
        ("Ath(1)+P2x8", Configuration::p1m1_p2m2(1, 1, 8, 1)),
        ("Ath(4)+P2x8", Configuration::p1m1_p2m2(1, 4, 8, 1)),
    ] {
        for n in [1600usize, 4800] {
            let ring = simulate_hpl(
                &spec,
                &cfg,
                &HplParams::order(n).with_nb(NB).with_bcast(BcastAlgo::Ring),
            )
            .wall_seconds;
            let binom = simulate_hpl(
                &spec,
                &cfg,
                &HplParams::order(n)
                    .with_nb(NB)
                    .with_bcast(BcastAlgo::Binomial),
            )
            .wall_seconds;
            rows.push((label.to_string(), n, ring, binom));
        }
    }
    rows
}

/// Extension: process-grid shape (§3.1's "any other process grid").
/// Wall seconds for 1×P vs squarer factorizations of the same PEs.
pub fn ablation_grid_shape() -> Vec<(String, usize, f64)> {
    use etm_hpl::{simulate_hpl_grid, GridShape};
    let spec = paper_cluster(CommLibProfile::mpich122());
    let cfg = Configuration::p1m1_p2m2(0, 0, 8, 1);
    let mut rows = Vec::new();
    for n in [1600usize, 3200, 6400] {
        for grid in [
            GridShape::one_by(8),
            GridShape { rows: 2, cols: 4 },
            GridShape { rows: 4, cols: 2 },
        ] {
            let t =
                simulate_hpl_grid(&spec, &cfg, &HplParams::order(n).with_nb(NB), grid).wall_seconds;
            rows.push((format!("{}x{}", grid.rows, grid.cols), n, t));
        }
    }
    rows
}

/// Extension: the three load-balancing strategies head-to-head —
/// unmodified HPL (equal distribution), the paper's multiprocessing
/// remedy (best M₁), and the related-work rewrite (speed-weighted
/// distribution, §2). Returns `(n, equal, best_multiproc, m1_best,
/// weighted)` wall seconds.
pub fn baselines_comparison() -> Vec<(usize, f64, f64, usize, f64)> {
    use etm_hpl::simulate_hpl_weighted;
    let spec = paper_cluster(CommLibProfile::mpich122());
    let mut rows = Vec::new();
    for n in [1600usize, 3200, 4800, 6400, 9600] {
        let params = HplParams::order(n).with_nb(NB);
        let equal =
            simulate_hpl(&spec, &Configuration::p1m1_p2m2(1, 1, 8, 1), &params).wall_seconds;
        let (m1_best, multi) = (1..=6usize)
            .map(|m1| {
                (
                    m1,
                    simulate_hpl(&spec, &Configuration::p1m1_p2m2(1, m1, 8, 1), &params)
                        .wall_seconds,
                )
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        let weighted = simulate_hpl_weighted(&spec, &Configuration::p1m1_p2m2(1, 1, 8, 1), &params)
            .wall_seconds;
        rows.push((n, equal, multi, m1_best, weighted));
    }
    rows
}
