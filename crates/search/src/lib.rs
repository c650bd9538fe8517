//! # etm-search — configuration-space optimization
//!
//! §4 of the paper evaluates *every* candidate configuration with the
//! estimation model and picks the minimum — feasible for 62 candidates,
//! but §5 notes that "for larger clusters, it is essential to find a way
//! to reduce the search space." This crate provides:
//!
//! * [`ConfigSpace`] — enumerate all `(Pᵢ, Mᵢ)` combinations of a
//!   cluster;
//! * [`exhaustive`] — evaluate everything, keep the best (the paper's
//!   method, and the brute-force oracle every other search is checked
//!   against);
//! * [`anytime_search`] — exact branch-and-bound with certified
//!   monotone pruning, an anytime incumbent stream, warm starts, and
//!   an optional time × energy Pareto front (the `anytime` module).
//!   It shrinks the evaluated space without approximating: an
//!   exhausted run returns the exhaustive argmin bit for bit.
//!
//! [`exhaustive`] is generic over the objective `f(config) → time`, so
//! it works with the model estimator, the simulator itself, or any
//! other cost function. The `engine` module supplies the canonical
//! objective: a lock-free query closure over an estimator-engine
//! snapshot ([`snapshot_objective`]), plus the paper's exhaustive §4
//! selection served from it ([`best_config`]). The `online` module
//! re-runs that selection against every snapshot a streaming engine
//! publishes, with hysteresis ([`OnlineOptimizer`]) so the standing
//! recommendation only moves on material improvement. The
//! `closed_loop` module closes that loop end to end: each
//! recommendation is executed (fault-injected via
//! `etm_core::loopback`), gated through a per-configuration circuit
//! breaker, and its measurement streamed back into the engine
//! ([`run_closed_loop`]).

mod anytime;
mod closed_loop;
mod engine;
mod online;

pub use anytime::{
    anytime_search, pareto_front_of, AnytimeOptions, AnytimeReport, Incumbent, ParetoPoint,
};
pub use closed_loop::{run_closed_loop, LoopReport, LoopStep};
pub use engine::{best_config, health_aware_objective, snapshot_objective};
pub use online::{OnlineDecision, OnlineOptimizer, OptimizerError};

use std::sync::{Arc, OnceLock};

use etm_cluster::{ClusterSpec, Configuration, KindId, KindUse};

/// The space of candidate configurations for a cluster.
///
/// The space enumerates its candidates once, on first use, into one
/// shared list: clones made after that share it, so every optimizer
/// and exhaustive search over a space and its clones reads the same
/// `Arc<[Configuration]>` instead of building its own.
/// [`ConfigSpace::enumerate`] still returns an owned copy.
#[derive(Clone, Debug)]
pub struct ConfigSpace {
    /// Per kind: available PEs.
    pub(crate) available: Vec<usize>,
    /// Per kind: maximum processes per PE considered.
    pub(crate) max_m: Vec<usize>,
    /// Every candidate in enumeration order, built on first use.
    pub(crate) configs: OnceLock<Arc<[Configuration]>>,
}

impl ConfigSpace {
    /// Builds the space for a cluster, capping multiplicity at `max_m`
    /// per kind (the paper caps the Athlon at 6, the P-II at 6 during
    /// construction and 1 during evaluation).
    pub fn new(spec: &ClusterSpec, max_m: Vec<usize>) -> Self {
        assert_eq!(max_m.len(), spec.kinds.len());
        ConfigSpace {
            available: (0..spec.kinds.len())
                .map(|k| spec.cpus_of_kind(KindId(k)))
                .collect(),
            max_m,
            configs: OnceLock::new(),
        }
    }

    /// Enumerates every non-empty configuration, as an owned copy of
    /// the shared list.
    pub fn enumerate(&self) -> Vec<Configuration> {
        self.configs().to_vec()
    }

    /// Every non-empty configuration in enumeration order: the space's
    /// shared list, built on the first call.
    pub(crate) fn configs(&self) -> &Arc<[Configuration]> {
        self.configs.get_or_init(|| {
            let mut out = Vec::with_capacity(self.len());
            let mut current: Vec<KindUse> = Vec::new();
            self.rec(0, &mut current, &mut out);
            out.into()
        })
    }

    fn rec(&self, kind: usize, current: &mut Vec<KindUse>, out: &mut Vec<Configuration>) {
        if kind == self.available.len() {
            let cfg = Configuration {
                uses: current.clone(),
            };
            if cfg.total_processes() > 0 {
                out.push(cfg);
            }
            return;
        }
        // Unused kind.
        current.push(KindUse {
            kind: KindId(kind),
            pes: 0,
            procs_per_pe: 0,
        });
        self.rec(kind + 1, current, out);
        current.pop();
        // Used with every (pes, m) combination.
        for pes in 1..=self.available[kind] {
            for m in 1..=self.max_m[kind] {
                current.push(KindUse {
                    kind: KindId(kind),
                    pes,
                    procs_per_pe: m,
                });
                self.rec(kind + 1, current, out);
                current.pop();
            }
        }
    }

    /// The configuration at position `index` of
    /// [`ConfigSpace::enumerate`], decoded from the index's mixed-radix
    /// digits (one per kind, radix `1 + availableᵢ·max_mᵢ`, digit 0 for
    /// an unused kind, then `(P, M)` with `M` varying fastest) without
    /// enumerating. The search walks carry this index and build a
    /// configuration only where they report one.
    ///
    /// # Panics
    /// When `index` is not below the space's size.
    pub fn config_at(&self, index: usize) -> Configuration {
        assert!(index < self.len(), "index {index} outside the space");
        // Position 0 of the mixed-radix order is the all-unused
        // non-candidate, which `enumerate` skips.
        let mut rest = index + 1;
        let mut uses: Vec<KindUse> = (0..self.available.len())
            .rev()
            .map(|k| {
                let max_m = self.max_m[k];
                let radix = 1 + self.available[k] * max_m;
                let digit = rest % radix;
                rest /= radix;
                let (pes, m) = if digit == 0 {
                    (0, 0)
                } else {
                    ((digit - 1) / max_m + 1, (digit - 1) % max_m + 1)
                };
                KindUse {
                    kind: KindId(k),
                    pes,
                    procs_per_pe: m,
                }
            })
            .collect();
        uses.reverse();
        Configuration { uses }
    }

    /// Size of the enumeration without materializing it:
    /// `Π (1 + availableᵢ·max_mᵢ) − 1`.
    pub(crate) fn len(&self) -> usize {
        self.available
            .iter()
            .zip(&self.max_m)
            .map(|(&a, &m)| 1 + a * m)
            .product::<usize>()
            - 1
    }
}

/// The outcome of an optimization: the best configuration, its estimated
/// time, and how many objective evaluations were spent.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchResult {
    /// The winning configuration.
    pub config: Configuration,
    /// Its objective value (estimated execution time, seconds).
    pub time: f64,
    /// Objective evaluations performed.
    pub evaluations: usize,
}

/// Exhaustive search (§4's method): evaluates every candidate.
/// Candidates whose objective errors out are skipped.
///
/// Returns `None` when no candidate evaluates successfully.
pub fn exhaustive<E>(
    candidates: &[Configuration],
    mut objective: impl FnMut(&Configuration) -> Result<f64, E>,
) -> Option<SearchResult> {
    let mut best: Option<(&Configuration, f64)> = None;
    for cfg in candidates {
        if let Ok(t) = objective(cfg) {
            if best.is_none_or(|(_, time)| t < time) {
                best = Some((cfg, t));
            }
        }
    }
    best.map(|(config, time)| SearchResult {
        config: config.clone(),
        time,
        evaluations: candidates.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use etm_cluster::commlib::CommLibProfile;
    use etm_cluster::spec::paper_cluster;
    use std::convert::Infallible;

    fn space() -> ConfigSpace {
        ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![6, 6])
    }

    /// A smooth synthetic objective with a known optimum: prefer ~10
    /// processes total, lightly penalize PEs (communication) and
    /// multiplicity (overhead).
    fn objective(cfg: &Configuration) -> Result<f64, Infallible> {
        let p = cfg.total_processes() as f64;
        let pes = cfg.total_pes() as f64;
        let m_pen: f64 = cfg
            .uses
            .iter()
            .filter(|u| u.pes > 0)
            .map(|u| 0.02 * (u.procs_per_pe as f64 - 1.0))
            .sum();
        Ok((p - 10.0).abs() + 0.1 * pes + m_pen)
    }

    #[test]
    fn enumeration_size_matches_closed_form() {
        let s = space();
        let all = s.enumerate();
        assert_eq!(all.len(), s.len());
        // (1 + 1*6)(1 + 8*6) - 1 = 7*49 - 1 = 342.
        assert_eq!(all.len(), 342);
        // All distinct and valid.
        for cfg in &all {
            assert!(cfg.total_processes() > 0);
        }
    }

    #[test]
    fn config_at_decodes_every_enumeration_index() {
        for space in [
            space(),
            ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![6, 1]),
            ConfigSpace {
                available: vec![2, 3, 1],
                max_m: vec![2, 1, 3],
                configs: OnceLock::new(),
            },
        ] {
            let owned = space.enumerate();
            assert_eq!(owned.len(), space.configs().len());
            for (i, cfg) in owned.iter().enumerate() {
                assert_eq!(&space.config_at(i), cfg, "index {i}");
                assert_eq!(&space.configs()[i], cfg, "index {i}");
            }
        }
    }

    /// The list is built once: later calls and clones made after it
    /// share it, and a clone made before builds an equal one.
    #[test]
    fn clones_share_one_candidate_list() {
        let early = space();
        let s = early.clone();
        let first = Arc::clone(s.configs());
        assert!(Arc::ptr_eq(&first, s.configs()));
        let late = s.clone();
        assert!(Arc::ptr_eq(&first, late.configs()));
        assert!(!Arc::ptr_eq(&first, early.configs()));
        assert_eq!(early.configs(), &first);
    }

    #[test]
    fn exhaustive_finds_global_minimum() {
        let s = space();
        let all = s.enumerate();
        let best = exhaustive(&all, objective).unwrap();
        assert_eq!(best.evaluations, all.len());
        // Brute-force verify.
        let brute = all
            .iter()
            .map(|c| objective(c).unwrap())
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best.time, brute);
    }

    #[test]
    fn exhaustive_skips_failing_candidates() {
        let s = space();
        let all = s.enumerate();
        let best = exhaustive(&all, |c| {
            if c.total_pes() > 2 {
                Err(())
            } else {
                objective(c).map_err(|_| ())
            }
        })
        .unwrap();
        assert!(best.config.total_pes() <= 2);
    }

    #[test]
    fn all_failing_yields_none() {
        let s = space();
        let all = s.enumerate();
        let r: Option<SearchResult> = exhaustive(&all, |_| Err::<f64, ()>(()));
        assert!(r.is_none());
    }

    /// Tie-breaking audit: with a plateau objective where many
    /// candidates share the exact minimum, `exhaustive` must keep the
    /// *first enumerated* minimum — strict `<` means later exact ties
    /// never displace it.
    #[test]
    fn exhaustive_keeps_the_first_enumerated_exact_tie() {
        let s = space();
        let all = s.enumerate();
        // Exact ties: every config with ≥ 4 processes costs exactly 1.0
        // (bit-identical), everything else costs 2.0.
        let tied = |cfg: &Configuration| -> Result<f64, Infallible> {
            Ok(if cfg.total_processes() >= 4 { 1.0 } else { 2.0 })
        };
        let best = exhaustive(&all, tied).unwrap();
        let first_tied = all
            .iter()
            .find(|c| c.total_processes() >= 4)
            .expect("space has a ≥4-process candidate");
        assert_eq!(&best.config, first_tied);
        assert_eq!(best.time, 1.0);
        assert_eq!(best.evaluations, all.len());
    }
}
