//! Measurement campaigns: the parameter grids of Tables 2, 5 and 8.
//!
//! A plan has two halves: **construction** trials (homogeneous sub-cluster
//! runs the models are fit to) and the **evaluation** grid (the 62
//! candidate configurations whose execution time is estimated, then
//! measured to ground-truth the estimates).

use etm_cluster::{Configuration, KindId};

use crate::measurement::SampleKey;

/// Which of the paper's three campaigns.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlanKind {
    /// §4.1: 9 problem sizes × 8 Pentium-II counts — the full campaign
    /// (≈ 6 h of measurement on the paper's hardware).
    Basic,
    /// §4.2: 4 *large* problem sizes × 4 Pentium-II counts (≈ 3 h).
    NL,
    /// §4.3: 4 *small* problem sizes × 4 Pentium-II counts (≈ 10 min) —
    /// shown to extrapolate disastrously.
    NS,
}

/// One construction trial: a homogeneous configuration at one N.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConstructionPoint {
    /// The homogeneous configuration key.
    pub key: SampleKey,
    /// Matrix order.
    pub n: usize,
}

/// One evaluation point: a candidate (possibly heterogeneous)
/// configuration at one N.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EvalPoint {
    /// The candidate configuration.
    pub(crate) config: Configuration,
    /// Matrix order.
    pub(crate) n: usize,
}

/// A full measurement campaign.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MeasurementPlan {
    /// Which campaign this is.
    pub kind: PlanKind,
    /// Model-construction trials.
    pub construction: Vec<ConstructionPoint>,
    /// Problem sizes used for construction (ascending).
    pub construction_ns: Vec<usize>,
    /// Evaluation grid.
    pub evaluation: Vec<EvalPoint>,
    /// Problem sizes used for evaluation (ascending).
    pub evaluation_ns: Vec<usize>,
}

/// The paper's fast kind (Athlon) is kind 0, slow kind (P-II) kind 1.
const FAST: KindId = KindId(0);
const SLOW: KindId = KindId(1);

/// Maximum processes per fast PE: "since an Athlon is about 4 times
/// faster than a Pentium-II, the range of M1 was set to 1..6".
pub(crate) const M1_RANGE: std::ops::RangeInclusive<usize> = 1..=6;

fn construction_points(ns: &[usize], slow_pes: &[usize]) -> Vec<ConstructionPoint> {
    let mut pts = Vec::new();
    for &n in ns {
        // Athlon: P1 = 1, M1 = 1..6.
        for m1 in M1_RANGE {
            pts.push(ConstructionPoint {
                key: SampleKey::new(FAST, 1, m1),
                n,
            });
        }
        // Pentium-II: P2 over the given set, M2 = 1..6.
        for &p2 in slow_pes {
            for m2 in 1..=6 {
                pts.push(ConstructionPoint {
                    key: SampleKey::new(SLOW, p2, m2),
                    n,
                });
            }
        }
    }
    pts
}

/// The 62-configuration evaluation grid shared by all three campaigns:
/// `Athlon(P1: 0,1; M1: 1..6) × Pentium-II(P2: 0..8; M2: 1)`.
pub fn evaluation_configs() -> Vec<Configuration> {
    let mut cfgs = Vec::new();
    // P1 = 1: M1 in 1..6, P2 in 0..=8 -> 54 configurations.
    for m1 in M1_RANGE {
        for p2 in 0..=8usize {
            cfgs.push(Configuration::p1m1_p2m2(1, m1, p2, usize::from(p2 > 0)));
        }
    }
    // P1 = 0: P2 in 1..=8, M2 = 1 -> 8 configurations.
    for p2 in 1..=8usize {
        cfgs.push(Configuration::p1m1_p2m2(0, 0, p2, 1));
    }
    cfgs
}

fn eval_points(ns: &[usize]) -> Vec<EvalPoint> {
    let cfgs = evaluation_configs();
    ns.iter()
        .flat_map(|&n| {
            cfgs.iter().map(move |c| EvalPoint {
                config: c.clone(),
                n,
            })
        })
        .collect()
}

impl MeasurementPlan {
    /// Table 2: the Basic campaign.
    pub fn basic() -> Self {
        let cns = vec![400, 600, 800, 1200, 1600, 2400, 3200, 4800, 6400];
        let ens = vec![3200, 4800, 6400, 8000, 9600];
        MeasurementPlan {
            kind: PlanKind::Basic,
            construction: construction_points(&cns, &[1, 2, 3, 4, 5, 6, 7, 8]),
            construction_ns: cns,
            evaluation: eval_points(&ens),
            evaluation_ns: ens,
        }
    }

    /// Table 5: the NL campaign (large construction sizes).
    pub fn nl() -> Self {
        let cns = vec![1600, 3200, 4800, 6400];
        let ens = vec![1600, 3200, 4800, 6400, 8000, 9600];
        MeasurementPlan {
            kind: PlanKind::NL,
            construction: construction_points(&cns, &[1, 2, 4, 8]),
            construction_ns: cns,
            evaluation: eval_points(&ens),
            evaluation_ns: ens,
        }
    }

    /// Table 8: the NS campaign (small construction sizes).
    pub fn ns() -> Self {
        let cns = vec![400, 800, 1200, 1600];
        let ens = vec![1600, 3200, 4800, 6400, 8000, 9600];
        MeasurementPlan {
            kind: PlanKind::NS,
            construction: construction_points(&cns, &[1, 2, 4, 8]),
            construction_ns: cns,
            evaluation: eval_points(&ens),
            evaluation_ns: ens,
        }
    }

    /// Distinct configurations per construction N (the paper's "6 + 48 =
    /// 54" for Basic, "6 + 24 = 30" for NL/NS).
    pub fn configs_per_n(&self) -> usize {
        self.construction.len() / self.construction_ns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_plan_counts_match_paper() {
        let p = MeasurementPlan::basic();
        // (6 + 48) × 9 = 486 construction trials.
        assert_eq!(p.construction.len(), 486);
        assert_eq!(p.configs_per_n(), 54);
        // 62 evaluation configurations × 5 sizes.
        assert_eq!(p.evaluation.len(), 62 * 5);
    }

    #[test]
    fn nl_ns_plan_counts_match_paper() {
        for p in [MeasurementPlan::nl(), MeasurementPlan::ns()] {
            // (6 + 24) × 4 = 120 trials.
            assert_eq!(p.construction.len(), 120);
            assert_eq!(p.configs_per_n(), 30);
            assert_eq!(p.evaluation.len(), 62 * 6);
        }
    }

    #[test]
    fn evaluation_grid_is_62_unique_configs() {
        let cfgs = evaluation_configs();
        assert_eq!(cfgs.len(), 62);
        let mut dedup = cfgs.clone();
        dedup.sort_by_key(|c| format!("{c:?}"));
        dedup.dedup();
        assert_eq!(dedup.len(), 62, "no duplicates");
        // All use M2 = 1 when P2 > 0, per Table 2.
        for c in &cfgs {
            if c.pes(SLOW) > 0 {
                assert_eq!(c.procs_per_pe(SLOW), 1);
            }
            assert!(c.total_processes() > 0);
        }
    }

    #[test]
    fn ns_construction_sizes_are_small() {
        let p = MeasurementPlan::ns();
        assert!(p.construction_ns.iter().all(|&n| n <= 1600));
        let nl = MeasurementPlan::nl();
        assert!(nl.construction_ns.iter().any(|&n| n >= 4800));
    }

    #[test]
    fn basic_includes_m1_up_to_6() {
        let p = MeasurementPlan::basic();
        let max_m1 = p
            .construction
            .iter()
            .filter(|c| c.key.kind == 0)
            .map(|c| c.key.m)
            .max()
            .unwrap();
        assert_eq!(max_m1, 6);
    }
}
