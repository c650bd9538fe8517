//! The optimizer experiment: anytime branch-and-bound vs the exhaustive
//! selection, plus the time×energy Pareto front.
//!
//! [`pareto_experiment`] pins one snapshot of a fitted campaign engine
//! and, for every evaluation size of the plan, runs
//! [`anytime_search`] twice over the §4 evaluation grid:
//!
//! * a **time-only** run, warm-started from the previous size's
//!   optimum, gated *bit-identical* to [`best_config`] — the pruned
//!   search must return the exact argmin while evaluating strictly
//!   fewer candidates than the exhaustive sweep;
//! * an **energy-priced** run producing the deterministic time×energy
//!   Pareto front under the paper cluster's per-PE power ratings.
//!
//! The pruning counters come from the time-only run: its bound logic
//! (incumbent comparison) is the strongest, so it is the honest
//! yardstick for "how much work did pruning save". The front comes
//! from the priced run, whose pruning is restricted to
//! archive-dominated subtrees and therefore can never drop a
//! non-dominated point.

use etm_cluster::commlib::CommLibProfile;
use etm_cluster::energy::EnergyModel;
use etm_cluster::spec::paper_cluster;
use etm_core::plan::MeasurementPlan;
use etm_search::{anytime_search, best_config, AnytimeOptions, ParetoPoint, SearchResult};

use crate::experiments::engine_for;
use crate::stream::evaluation_space;

/// Outcome of one evaluation size: the bit-identity audit of the
/// pruned search against the exhaustive sweep, its pruning counters,
/// and the energy-priced Pareto front.
#[derive(Clone, Debug)]
pub struct ParetoRow {
    /// Problem size.
    pub n: usize,
    /// The exhaustive argmin this size was audited against.
    pub best: Option<SearchResult>,
    /// Whether the pruned search returned the same configuration with
    /// the same time bits as [`best_config`].
    pub identical: bool,
    /// Whether the time-only run visited the whole space (it always
    /// should — no budget is set).
    pub(crate) exhausted: bool,
    /// Configurations in the search space.
    pub candidates: usize,
    /// Candidates the time-only run actually estimated.
    pub evaluated: usize,
    /// Candidates discarded by bounding without an estimate.
    pub pruned: usize,
    /// Bound scans short-circuited by a monotonicity certificate.
    pub certificate_hits: usize,
    /// The time×energy Pareto front from the energy-priced run,
    /// fastest point first.
    pub front: Vec<ParetoPoint>,
}

/// Outcome of [`pareto_experiment`]: one [`ParetoRow`] per evaluation
/// size of the plan.
#[derive(Clone, Debug)]
pub struct ParetoReport {
    /// Per-size rows, in the plan's evaluation order.
    pub rows: Vec<ParetoRow>,
}

impl ParetoReport {
    /// Whether every size's pruned argmin matched the exhaustive sweep
    /// bit-for-bit.
    pub fn identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical && r.exhausted)
    }

    /// Total candidates across all sizes.
    pub fn candidates(&self) -> usize {
        self.rows.iter().map(|r| r.candidates).sum()
    }

    /// Total candidates estimated across all sizes.
    pub fn evaluated(&self) -> usize {
        self.rows.iter().map(|r| r.evaluated).sum()
    }

    /// Total candidates pruned across all sizes.
    pub fn pruned(&self) -> usize {
        self.rows.iter().map(|r| r.pruned).sum()
    }

    /// The experiment's gate: bit-identity everywhere, strictly fewer
    /// evaluations than the exhaustive sweep, and at least one pruned
    /// subtree to prove the bounds are live.
    pub fn ok(&self) -> bool {
        self.identical() && self.evaluated() < self.candidates() && self.pruned() > 0
    }
}

/// Runs the anytime optimizer over the plan's evaluation sizes on the
/// §4 grid, warm-starting each size from the previous optimum, and
/// audits it against [`best_config`]. See the [module docs](self).
pub fn pareto_experiment(plan: &MeasurementPlan) -> ParetoReport {
    let engine = engine_for(plan);
    let snapshot = engine.snapshot();
    let space = evaluation_space();
    let energy = EnergyModel::from_spec(&paper_cluster(CommLibProfile::mpich122()));
    let mut warm: Option<etm_cluster::Configuration> = None;
    let mut rows = Vec::with_capacity(plan.evaluation_ns.len());
    for &n in &plan.evaluation_ns {
        let brute = best_config(&snapshot, &space, n);
        let timed = anytime_search(
            &snapshot,
            &space,
            n,
            &AnytimeOptions {
                warm_start: warm.clone(),
                ..AnytimeOptions::default()
            },
        );
        let identical = match (&brute, &timed.best) {
            (None, None) => true,
            (Some(b), Some(a)) => b.config == a.config && b.time.to_bits() == a.time.to_bits(),
            _ => false,
        };
        let priced = anytime_search(
            &snapshot,
            &space,
            n,
            &AnytimeOptions {
                warm_start: warm.clone(),
                energy: Some(energy.clone()),
                ..AnytimeOptions::default()
            },
        );
        warm = timed.best.as_ref().map(|b| b.config.clone());
        rows.push(ParetoRow {
            n,
            best: brute,
            identical,
            exhausted: timed.exhausted,
            candidates: timed.candidates,
            evaluated: timed.evaluated,
            pruned: timed.pruned,
            certificate_hits: timed.certificate_hits,
            front: priced.front,
        });
    }
    ParetoReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cold time-only search's pruning counters and argmin on the
    /// Basic snapshot, pinned per evaluation size: a bound or
    /// certificate that silently prunes less still satisfies
    /// `evaluated + pruned == candidates`, but not these figures.
    #[test]
    fn time_only_pruning_counters_are_pinned_on_the_paper_grid() {
        // (n, evaluated, pruned, certificate_hits, argmin time bits,
        // Athlon M, Pentium-II PEs)
        const PINNED: [(usize, usize, usize, usize, u64, usize, usize); 5] = [
            (3200, 14, 48, 33, 0x4034_0282_5a50_ed21, 1, 0),
            (4800, 18, 44, 69, 0x4049_e75c_7e57_6b8c, 3, 8),
            (6400, 22, 40, 93, 0x4059_68e5_8cd4_457e, 3, 8),
            (8000, 21, 41, 89, 0x4065_c42e_08fc_442c, 3, 8),
            (9600, 21, 41, 89, 0x4071_111c_6599_15cb, 3, 8),
        ];
        let plan = MeasurementPlan::basic();
        assert_eq!(plan.evaluation_ns, PINNED.map(|row| row.0));
        let engine = engine_for(&plan);
        let snapshot = engine.snapshot();
        let space = evaluation_space();
        for (n, evaluated, pruned, hits, bits, m1, p2) in PINNED {
            let report = anytime_search(&snapshot, &space, n, &AnytimeOptions::default());
            assert_eq!(
                (report.evaluated, report.pruned, report.certificate_hits),
                (evaluated, pruned, hits),
                "n={n}: (evaluated, pruned, certificate_hits)"
            );
            let best = report.best.expect("the fitted grid is estimable");
            assert_eq!(best.time.to_bits(), bits, "n={n}: argmin time");
            let m2 = usize::from(p2 > 0);
            assert_eq!(
                best.config,
                etm_cluster::Configuration::p1m1_p2m2(1, m1, p2, m2),
                "n={n}: argmin"
            );
        }
    }

    /// The cold energy-priced search's `(evaluated, pruned)` on the
    /// Basic snapshot, pinned per evaluation size.
    #[test]
    fn energy_pruning_counters_are_pinned_on_the_paper_grid() {
        let plan = MeasurementPlan::basic();
        let engine = engine_for(&plan);
        let energy = EnergyModel::from_spec(&paper_cluster(CommLibProfile::mpich122()));
        let opts = AnytimeOptions {
            energy: Some(energy),
            ..AnytimeOptions::default()
        };
        let counters: Vec<_> = plan
            .evaluation_ns
            .iter()
            .map(|&n| {
                let report = anytime_search(&engine.snapshot(), &evaluation_space(), n, &opts);
                (n, report.evaluated, report.pruned)
            })
            .collect();
        let pinned = [
            (3200, 14, 48),
            (4800, 18, 44),
            (6400, 24, 38),
            (8000, 28, 34),
            (9600, 35, 27),
        ];
        assert_eq!(counters, pinned);
    }

    #[test]
    fn pareto_experiment_passes_its_own_gate_on_the_paper_grid() {
        let plan = MeasurementPlan::basic();
        let report = pareto_experiment(&plan);
        assert_eq!(report.rows.len(), plan.evaluation_ns.len());
        assert!(report.ok(), "gate breached: {report:?}");
        assert!(report.pruned() > 0);
        assert!(report.evaluated() < report.candidates());
        for row in &report.rows {
            assert_eq!(row.candidates, 62, "the §4 grid has 62 configurations");
            assert!(!row.front.is_empty(), "n={}: empty front", row.n);
            // The front is sorted fastest-first, and its fastest point
            // is exactly the time argmin the audit confirmed.
            let best = row.best.as_ref().expect("the fitted grid is estimable");
            assert_eq!(row.front[0].time.to_bits(), best.time.to_bits());
            assert_eq!(row.front[0].config, best.config);
            for pair in row.front.windows(2) {
                // Bit-equal (time, energy) duplicates are all kept;
                // otherwise the front strictly ascends in time and
                // strictly descends in energy.
                if pair[0].time == pair[1].time {
                    assert_eq!(pair[0].energy.to_bits(), pair[1].energy.to_bits());
                } else {
                    assert!(pair[0].time < pair[1].time, "front must ascend in time");
                    assert!(
                        pair[0].energy > pair[1].energy,
                        "front must descend in energy"
                    );
                }
            }
        }
    }
}
