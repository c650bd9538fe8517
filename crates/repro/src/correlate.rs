//! Estimate-vs-measurement correlation (the scatter plots of Figs. 6–15).

use etm_cluster::{ClusterSpec, Configuration, KindId};
use etm_core::engine::EngineSnapshot;
use etm_core::plan::evaluation_configs;
use etm_hpl::{simulate_hpl, HplParams};
use etm_support::pool;

/// One point of a correlation plot.
#[derive(Clone, Debug, PartialEq)]
pub struct CorrelationPoint {
    /// The candidate configuration.
    pub config: Configuration,
    /// Fast-kind multiplicity `M₁` (the plots' series key; 0 = unused).
    pub m1: usize,
    /// Raw model estimate `T` (before adjustment).
    pub estimate_raw: f64,
    /// Adjusted estimate.
    pub estimate_adjusted: f64,
    /// Measured execution time `t`.
    pub measured: f64,
}

/// Runs the full 62-configuration correlation at one problem size:
/// estimate each configuration (raw and adjusted) and measure it. The
/// measurement half (a simulated HPL run per configuration) dominates,
/// so the grid fans out over the worker pool; results come
/// back in grid order regardless of worker count. Estimates are served
/// from an engine snapshot, so the workers share it lock-free.
pub(crate) fn correlation_at(
    spec: &ClusterSpec,
    snapshot: &EngineSnapshot,
    n: usize,
    nb: usize,
) -> Vec<CorrelationPoint> {
    let configs = evaluation_configs();
    pool::par_map(&configs, pool::num_threads(), |_, config| {
        let estimate_raw = snapshot.estimate_raw(config, n).ok()?;
        let estimate_adjusted = snapshot.estimate(config, n).ok()?;
        let measured = simulate_hpl(spec, config, &HplParams::order(n).with_nb(nb)).wall_seconds;
        let m1 = config.procs_per_pe(KindId(snapshot.fast_kind()));
        Some(CorrelationPoint {
            config: config.clone(),
            m1,
            estimate_raw,
            estimate_adjusted,
            measured,
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The Table 4/7/9 row for one problem size: best-by-estimate vs
/// best-by-measurement and the two error ratios.
#[derive(Clone, Debug)]
pub struct BestConfigRow {
    /// Problem size.
    pub n: usize,
    /// Configuration the model picks.
    pub estimated_best: Configuration,
    /// Its estimated time τ.
    pub tau: f64,
    /// Its *measured* time τ̂.
    pub tau_hat: f64,
    /// Configuration that actually measures fastest.
    pub actual_best: Configuration,
    /// Its measured time T̂.
    pub t_hat: f64,
}

impl BestConfigRow {
    /// `(τ − T̂)/T̂`: how far the estimate is from the true optimum time.
    pub fn estimate_error(&self) -> f64 {
        (self.tau - self.t_hat) / self.t_hat
    }

    /// `(τ̂ − T̂)/T̂`: the execution-time penalty of trusting the model —
    /// the paper's headline metric (0%–3.6% for the Basic model).
    pub fn selection_penalty(&self) -> f64 {
        (self.tau_hat - self.t_hat) / self.t_hat
    }
}

/// Computes the best-configuration comparison at one problem size from a
/// pre-measured correlation set.
pub(crate) fn best_config_row(points: &[CorrelationPoint], n: usize) -> BestConfigRow {
    let est_best = points
        .iter()
        .min_by(|a, b| a.estimate_adjusted.total_cmp(&b.estimate_adjusted))
        .expect("non-empty grid");
    let meas_best = points
        .iter()
        .min_by(|a, b| a.measured.total_cmp(&b.measured))
        .expect("non-empty grid");
    BestConfigRow {
        n,
        estimated_best: est_best.config.clone(),
        tau: est_best.estimate_adjusted,
        tau_hat: est_best.measured,
        actual_best: meas_best.config.clone(),
        t_hat: meas_best.measured,
    }
}
