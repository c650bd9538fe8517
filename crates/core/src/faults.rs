//! Deterministic fault injection for the streaming layer: the chaos
//! harness's model of everything a real measurement pipeline does
//! wrong.
//!
//! A [`FaultPlan`] is a seeded, pure-literal description of the faults
//! to inject into a replayed campaign ([`crate::stream::replay`]):
//! corrupted samples (NaN / infinite / gross-outlier times), dropped
//! and truncated batches, and duplicate floods. [`FaultPlan::apply`] is
//! a pure function — batches in, faulted batches plus a [`FaultLog`]
//! out — so every chaos run is reproducible bit-for-bit, and the log
//! records exactly which `(kind, m)` groups received corrupted samples:
//! the oracle the chaos suite compares quarantine state against. The
//! faulted batches are then drained in-process by
//! [`crate::stream::consume`]; there is no transport to fail.

use std::collections::BTreeSet;

use etm_support::rng::Rng64;

use crate::measurement::{Sample, SampleKey};
use crate::stream::TrialBatch;

/// How a corrupted sample's poisoned field is rewritten.
#[derive(Clone, Copy, Debug)]
pub enum CorruptKind {
    /// The field becomes NaN.
    Nan,
    /// The field becomes +∞.
    Inf,
    /// The field is multiplied by [`FaultPlan::outlier_factor`] — still
    /// finite, but physically impossible.
    Outlier,
}

/// A seeded, declarative fault-injection plan over a replayed batch
/// stream. All counters are 1-based "every k-th" knobs; 0 disables.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Seed for the corruption RNG (which of ta/tc/wall is poisoned).
    pub seed: u64,
    /// Corrupt every k-th eligible trial (stream-wide count). 0 off.
    pub corrupt_every: usize,
    /// What corruption does to the poisoned field.
    pub corrupt: CorruptKind,
    /// Multiplier for [`CorruptKind::Outlier`] corruption.
    pub outlier_factor: f64,
    /// When set, only trials of this `(kind, m)` group are eligible for
    /// corruption; `None` makes every trial eligible.
    pub target: Option<(usize, usize)>,
    /// Drop every k-th batch entirely (transport loss). 0 off.
    pub drop_every: usize,
    /// Truncate every k-th batch to its first half (partial delivery).
    /// 0 off.
    pub truncate_every: usize,
    /// Re-deliver every k-th surviving batch immediately (duplicate
    /// flood). 0 off.
    pub flood_every: usize,
    /// When true, every trial lost to corruption, drops, or truncation
    /// is re-delivered *clean* in tail batches: the fault is
    /// recoverable and the stream still carries the whole campaign.
    pub redeliver: bool,
}

impl Default for FaultPlan {
    /// The clean plan: no faults, redelivery on.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            corrupt_every: 0,
            corrupt: CorruptKind::Nan,
            outlier_factor: 1e9,
            target: None,
            drop_every: 0,
            truncate_every: 0,
            flood_every: 0,
            redeliver: true,
        }
    }
}

/// What [`FaultPlan::apply`] actually did — the ground truth a chaos
/// assertion compares engine health against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Trials whose sample was corrupted.
    pub corrupted: usize,
    /// The `(kind, m)` groups that received at least one corrupted
    /// sample — the expected quarantine set when the corruption is
    /// unrecoverable and heavy enough to exhaust the budget.
    pub corrupted_groups: BTreeSet<(usize, usize)>,
}

fn corrupt_sample(mut s: Sample, kind: CorruptKind, factor: f64, rng: &mut Rng64) -> Sample {
    let poison = |v: f64| match kind {
        CorruptKind::Nan => f64::NAN,
        CorruptKind::Inf => f64::INFINITY,
        CorruptKind::Outlier => v * factor,
    };
    match rng.range_usize(3) {
        0 => s.ta = poison(s.ta),
        1 => s.tc = poison(s.tc),
        _ => s.wall = poison(s.wall),
    }
    s
}

impl FaultPlan {
    /// Applies the plan to a replayed batch stream. Pure and
    /// deterministic: same plan, same batches, bit-identical output.
    ///
    /// The output batches are renumbered contiguously from 0 with a
    /// recomputed simulated clock (only finite trial walls advance it).
    /// When
    /// [`FaultPlan::redeliver`] is set, trials lost to corruption,
    /// drops, or truncation are appended as clean tail batches, making
    /// the fault recoverable.
    pub fn apply(&self, batches: &[TrialBatch]) -> (Vec<TrialBatch>, FaultLog) {
        let mut rng = Rng64::seed_from_u64(self.seed);
        let mut log = FaultLog::default();
        let mut out: Vec<Vec<(SampleKey, Sample)>> = Vec::new();
        // Clean copies owed a tail re-delivery.
        let mut lost: Vec<(SampleKey, Sample)> = Vec::new();
        let mut trial_no = 0usize;
        let mut batch_len = 1usize;
        for (i, batch) in batches.iter().enumerate() {
            batch_len = batch_len.max(batch.trials.len());
            if self.drop_every > 0 && (i + 1).is_multiple_of(self.drop_every) {
                lost.extend(batch.trials.iter().copied());
                continue;
            }
            let mut trials = batch.trials.clone();
            if self.truncate_every > 0 && (i + 1).is_multiple_of(self.truncate_every) {
                let keep = trials.len() / 2;
                lost.extend(trials[keep..].iter().copied());
                trials.truncate(keep);
            }
            for (key, sample) in &mut trials {
                let eligible = match self.target {
                    Some(group) => (key.kind, key.m) == group,
                    None => true,
                };
                if !eligible || self.corrupt_every == 0 {
                    continue;
                }
                trial_no += 1;
                if trial_no.is_multiple_of(self.corrupt_every) {
                    lost.push((*key, *sample));
                    *sample = corrupt_sample(*sample, self.corrupt, self.outlier_factor, &mut rng);
                    log.corrupted += 1;
                    log.corrupted_groups.insert((key.kind, key.m));
                }
            }
            if trials.is_empty() {
                continue;
            }
            out.push(trials.clone());
            if self.flood_every > 0 && (i + 1).is_multiple_of(self.flood_every) {
                out.push(trials);
            }
        }
        if self.redeliver && !lost.is_empty() {
            for chunk in lost.chunks(batch_len) {
                out.push(chunk.to_vec());
            }
        }
        let mut clock = 0.0;
        let faulted = out
            .into_iter()
            .enumerate()
            .map(|(seq, trials)| {
                clock += trials
                    .iter()
                    .map(|(_, s)| s.wall)
                    .filter(|w| w.is_finite())
                    .sum::<f64>();
                TrialBatch {
                    seq: seq as u64,
                    sim_time: clock,
                    trials,
                }
            })
            .collect();
        (faulted, log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::MeasurementDb;
    use crate::stream::{replay, trials_of_db, StreamConfig};

    fn synth_db() -> MeasurementDb {
        let mut db = MeasurementDb::new();
        for kind in 0..2usize {
            for pes in [1usize, 2] {
                for m in 1..=2usize {
                    for n in [400usize, 800, 1600] {
                        let x = n as f64;
                        let p = (pes * m) as f64;
                        db.record(
                            SampleKey { kind, pes, m },
                            Sample {
                                n,
                                ta: 1e-9 * x * x / p + 0.05,
                                tc: 1e-7 * x + 0.01,
                                wall: 1e-9 * x * x / p + 1e-7 * x + 0.06,
                                multi_node: pes > 1,
                            },
                        );
                    }
                }
            }
        }
        db
    }

    fn batches() -> Vec<TrialBatch> {
        replay(
            &trials_of_db(&synth_db()),
            &StreamConfig {
                batch_size: 4,
                shuffle_seed: Some(11),
                ..StreamConfig::default()
            },
        )
    }

    #[test]
    fn apply_is_deterministic_and_renumbers_contiguously() {
        let plan = FaultPlan {
            seed: 7,
            corrupt_every: 3,
            drop_every: 4,
            truncate_every: 3,
            flood_every: 5,
            ..FaultPlan::default()
        };
        let (a, log_a) = plan.apply(&batches());
        let (b, log_b) = plan.apply(&batches());
        assert_eq!(log_a, log_b);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seq, y.seq);
            assert_eq!(x.sim_time.to_bits(), y.sim_time.to_bits());
            assert_eq!(x.trials.len(), y.trials.len());
            // Bitwise: corrupted samples carry NaN, which PartialEq
            // would spuriously report unequal.
            for ((ka, sa), (kb, sb)) in x.trials.iter().zip(&y.trials) {
                assert_eq!(ka, kb);
                assert_eq!(sa.n, sb.n);
                assert_eq!(sa.ta.to_bits(), sb.ta.to_bits());
                assert_eq!(sa.tc.to_bits(), sb.tc.to_bits());
                assert_eq!(sa.wall.to_bits(), sb.wall.to_bits());
            }
        }
        for (i, batch) in a.iter().enumerate() {
            assert_eq!(batch.seq, i as u64, "contiguous post-fault sequence");
        }
        assert!(log_a.corrupted > 0);
        // The plan drops batches: without redelivery, trials go missing.
        let trials = |bs: &[TrialBatch]| bs.iter().map(|b| b.trials.len()).sum::<usize>();
        let drop_only = FaultPlan {
            drop_every: plan.drop_every,
            redeliver: false,
            ..FaultPlan::default()
        };
        assert!(trials(&drop_only.apply(&batches()).0) < trials(&batches()));
    }

    #[test]
    fn targeted_corruption_hits_only_the_target_group() {
        let target = (1usize, 2usize);
        let plan = FaultPlan {
            corrupt_every: 1,
            target: Some(target),
            redeliver: false,
            ..FaultPlan::default()
        };
        let (faulted, log) = plan.apply(&batches());
        assert_eq!(
            log.corrupted_groups.iter().copied().collect::<Vec<_>>(),
            [target]
        );
        for batch in &faulted {
            for (key, sample) in &batch.trials {
                if (key.kind, key.m) == target {
                    assert!(!sample.is_finite(), "every target trial corrupted");
                } else {
                    assert!(sample.is_finite(), "no collateral corruption");
                }
            }
        }
    }

    #[test]
    fn redelivery_restores_every_lost_trial_clean() {
        let plan = FaultPlan {
            seed: 3,
            corrupt_every: 4,
            drop_every: 3,
            truncate_every: 4,
            ..FaultPlan::default()
        };
        let original = batches();
        let (faulted, _) = plan.apply(&original);
        // Redelivery only appends: past the stream the plan leaves
        // without it come the lost trials, clean.
        let (bare, _) = FaultPlan {
            redeliver: false,
            ..plan
        }
        .apply(&original);
        assert!(faulted.len() > bare.len(), "lost trials come back");
        assert!(faulted[bare.len()..]
            .iter()
            .flat_map(|b| &b.trials)
            .all(|(_, s)| s.is_finite()));
        // Every (key, N) of the original stream appears in the faulted
        // stream with its *clean* value at least once.
        let clean: Vec<(SampleKey, Sample)> = original
            .iter()
            .flat_map(|b| b.trials.iter().copied())
            .collect();
        for (key, want) in &clean {
            assert!(
                faulted
                    .iter()
                    .flat_map(|b| b.trials.iter())
                    .any(|(k, s)| k == key && s == want),
                "{key:?} N={} must be delivered clean somewhere",
                want.n
            );
        }
    }

    #[test]
    fn outlier_corruption_stays_finite_but_implausible() {
        let plan = FaultPlan {
            corrupt_every: 1,
            corrupt: CorruptKind::Outlier,
            redeliver: false,
            ..FaultPlan::default()
        };
        let (faulted, log) = plan.apply(&batches());
        assert!(log.corrupted > 0);
        let huge = faulted
            .iter()
            .flat_map(|b| b.trials.iter())
            .filter(|(_, s)| s.ta > 1e6 || s.tc > 1e6 || s.wall > 1e6)
            .count();
        assert_eq!(huge, log.corrupted);
        for batch in &faulted {
            for (_, s) in &batch.trials {
                assert!(s.is_finite(), "outliers stay finite");
            }
        }
    }
}
