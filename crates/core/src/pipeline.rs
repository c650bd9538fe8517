//! End-to-end estimation pipeline: run the (simulated) measurement
//! campaign, fit every N-T and P-T model, compose models for kinds with
//! too few PEs, fit the §4.1 adjustment, and estimate any configuration.

use std::fmt;

use etm_cluster::{ClusterSpec, Configuration, KindId, KindUse};
use etm_hpl::{simulate_hpl, HplParams, SimulatedRun};
use etm_lsq::LsqError;
use etm_support::pool;

use crate::adjust::AdjustmentRule;
use crate::backend::{ModelBackend, PolyLsqBackend};
use crate::engine::Engine;
use crate::grid::KeyGrid;
use crate::measurement::{MeasurementDb, Sample, SampleKey};
use crate::ntmodel::NtModel;
use crate::plan::{ConstructionPoint, MeasurementPlan};
use crate::ptmodel::{PtAt, PtModel};

/// Errors from model fitting or estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A least-squares fit failed.
    Fit(LsqError),
    /// No N-T model available for this homogeneous configuration.
    MissingNt(SampleKey),
    /// No P-T model (measured or composed) for this kind/multiplicity.
    MissingPt {
        /// Kind index.
        kind: usize,
        /// Multiplicity Mᵢ.
        m: usize,
    },
    /// A kind needed composition but no donor kind had a measured P-T
    /// model at that multiplicity.
    NoDonor {
        /// Kind index lacking a model.
        kind: usize,
        /// Multiplicity Mᵢ.
        m: usize,
    },
    /// The configuration to estimate uses no PEs.
    EmptyConfiguration,
    /// A configuration depends on a quarantined `(kind, m)` group whose
    /// serving model has no §3.5 composed fallback — a health-aware
    /// consumer refuses to estimate with it (see
    /// `crate::engine::EngineHealth::is_untrusted`).
    ModelUntrusted {
        /// Kind index of the untrusted group.
        kind: usize,
        /// Multiplicity Mᵢ of the untrusted group.
        m: usize,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Fit(e) => write!(f, "least-squares fit failed: {e}"),
            PipelineError::MissingNt(k) => write!(
                f,
                "no N-T model for kind {} pes {} m {}",
                k.kind, k.pes, k.m
            ),
            PipelineError::MissingPt { kind, m } => {
                write!(f, "no P-T model for kind {kind} at M={m}")
            }
            PipelineError::NoDonor { kind, m } => {
                write!(f, "no donor P-T model to compose kind {kind} at M={m}")
            }
            PipelineError::EmptyConfiguration => write!(f, "configuration uses no PEs"),
            PipelineError::ModelUntrusted { kind, m } => {
                write!(
                    f,
                    "model for kind {kind} at M={m} is quarantined without a fallback"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<LsqError> for PipelineError {
    fn from(e: LsqError) -> Self {
        PipelineError::Fit(e)
    }
}

/// All fitted models of one campaign. The default bank is empty: the
/// fit of an empty database.
#[derive(Clone, Debug, Default)]
pub struct ModelBank {
    /// N-T models per homogeneous configuration.
    pub nt: KeyGrid<SampleKey, NtModel>,
    /// P-T models per `(kind, m)`, measured where possible.
    pub pt: KeyGrid<(usize, usize), PtModel>,
    /// Kinds whose P-T models were composed (§3.5) rather than measured.
    pub composed_kinds: Vec<usize>,
    /// The `(kind, m)` groups whose P-T entry is composed rather than
    /// measured — what an incremental refit must always rebuild.
    pub composed_groups: Vec<(usize, usize)>,
}

impl ModelBank {
    /// Fits every model the database supports.
    ///
    /// * An N-T model is fit for each key with ≥ 4 problem sizes.
    /// * A P-T model is fit for each `(kind, m)` whose keys span ≥ 2
    ///   distinct PE counts (with ≥ 3 observations); the reference N-T
    ///   model is the largest-P key of the group (the smallest, often
    ///   P = 1, has no inter-PE communication to serve as the Tc basis).
    /// * Kinds with no measured P-T model at some `m` are composed from
    ///   a donor kind's model at the same `m` (computation scale fitted
    ///   from the two single-PE N-T models; communication scale
    ///   `compose::PAPER_TC_SCALE`, the
    ///   paper's 0.85).
    ///
    /// # Errors
    /// [`PipelineError::Fit`] if a well-posed fit fails numerically;
    /// [`PipelineError::NoDonor`] if composition is impossible.
    pub fn fit(db: &MeasurementDb) -> Result<ModelBank, PipelineError> {
        PolyLsqBackend.fit(db)
    }
}

/// The §3 component split of a raw estimate, as returned by
/// [`Estimator::estimate_raw_parts`] and [`Estimate::parts`]: the
/// makespan kind's arithmetic / communication decomposition.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RawParts {
    /// `ta + tc` of the makespan kind (the raw §3.4 max-fold value).
    pub total: f64,
    /// Arithmetic time `Ta` of the makespan kind, in seconds.
    pub ta: f64,
    /// Communication time `Tc` of the makespan kind, in seconds.
    pub tc: f64,
}

/// What [`Estimator::estimate_terms`] reports: the estimate, and which
/// used kind is its raw makespan term.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// The §3.4 estimate, §4.1-adjusted under the fold's rule.
    pub time: f64,
    /// Index into the folded uses of the raw makespan term: the first
    /// use, in use order, whose `Ta + Tc` is the strict maximum; `None`
    /// when no term exceeds zero.
    makespan: Option<usize>,
}

impl Estimate {
    /// The makespan term's `(Ta, Tc)`, read from the `terms` the fold
    /// read with the same `uses` and `counts`; all zero without one.
    pub fn parts<T: EstimateTerms>(
        &self,
        uses: &[KindUse],
        counts: ProcessCounts,
        terms: &T,
    ) -> RawParts {
        let Some(i) = self.makespan else {
            return RawParts::default();
        };
        let (kind, m) = (uses[i].kind.0, uses[i].procs_per_pe);
        let (ta, tc) = if counts.single_pe {
            terms.single_pe(kind, m)
        } else {
            terms.group(kind, m).map(|g| terms.split(g, counts.total))
        }
        .expect("the fold resolved its makespan term");
        RawParts {
            total: ta + tc,
            ta,
            tc,
        }
    }
}

/// The `(kind, m)` measurement groups whose models back an estimate of
/// `config` — one group per used kind, at the kind's multiplicity. Both
/// the §3.4 branches resolve to the same group: a single-PE
/// configuration reads the N-T model of `(kind, pes=1, m)` and a
/// multi-PE one the P-T model of `(kind, m)`, so model-health decisions
/// (quarantine, composed fallback) key on exactly these groups. Yielded
/// in use order without allocating.
pub fn groups_of(config: &Configuration) -> impl Iterator<Item = (usize, usize)> + '_ {
    config
        .uses
        .iter()
        .filter(|u| u.pes > 0 && u.procs_per_pe > 0)
        .map(|u| (u.kind.0, u.procs_per_pe))
}

/// The process counts the estimate fold reads off a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcessCounts {
    /// Total process count `P = Σ Pᵢ·Mᵢ`.
    pub total: usize,
    /// The §4.1 baseline's process count: `P` with the fast kind at one
    /// process per PE.
    pub baseline: usize,
    /// The fast kind's multiplicity `M₁` (0 when it is unused).
    pub m1: usize,
    /// Whether a single PE participates (§3.4's `P = Mᵢ` bin).
    pub single_pe: bool,
}

impl ProcessCounts {
    /// The counts of `uses` with `fast_kind` as the fast kind, read as
    /// [`Configuration`]'s own accessors read them.
    pub fn of(uses: &[KindUse], fast_kind: usize) -> Self {
        let (mut total, mut baseline, mut pes) = (0, 0, 0);
        for u in uses {
            total += u.pes * u.procs_per_pe;
            baseline += u.pes
                * if u.kind.0 == fast_kind {
                    1
                } else {
                    u.procs_per_pe
                };
            pes += u.pes;
        }
        let m1 = uses
            .iter()
            .find(|u| u.kind.0 == fast_kind && u.pes > 0)
            .map_or(0, |u| u.procs_per_pe);
        ProcessCounts {
            total,
            baseline,
            m1,
            single_pe: pes == 1,
        }
    }
}

/// The model terms [`Estimator::estimate_terms`] folds, all at one
/// problem size: the bank's models ([`Estimator::estimate`]) or any
/// table built from the same [`PtModel::at`] forms.
pub trait EstimateTerms {
    /// One `(kind, m)` group's P-T model, ready to price process counts.
    type Group: Copy;

    /// `(Ta, Tc)` of the single-PE N-T model of `(kind, 1, m)`; `None`
    /// without one.
    fn single_pe(&self, kind: usize, m: usize) -> Option<(f64, f64)>;

    /// The P-T group `(kind, m)`; `None` without a model.
    fn group(&self, kind: usize, m: usize) -> Option<Self::Group>;

    /// `Ta + Tc` of `group` at `p` processes.
    fn total(&self, group: Self::Group, p: usize) -> f64;

    /// `(Ta, Tc)` of `group` at `p`, summing to [`EstimateTerms::total`].
    fn split(&self, group: Self::Group, p: usize) -> (f64, f64);
}

/// A bank's own models (`.0`) at problem size `.1`.
struct BankTerms<'a>(&'a ModelBank, usize);

impl BankTerms<'_> {
    /// `config`'s raw §3.4 estimate and the counts it read: the fold
    /// under [`AdjustmentRule::identity`], whose `min_m1 = usize::MAX`
    /// never adjusts.
    fn raw(&self, config: &Configuration) -> Result<(Estimate, ProcessCounts), PipelineError> {
        let counts = ProcessCounts::of(&config.uses, 0);
        let raw = fold(&AdjustmentRule::identity(), 0, &config.uses, counts, self)?;
        Ok((raw, counts))
    }
}

impl EstimateTerms for BankTerms<'_> {
    type Group = PtAt;

    fn single_pe(&self, kind: usize, m: usize) -> Option<(f64, f64)> {
        let nt = self.0.nt.get(&SampleKey::new(KindId(kind), 1, m))?;
        Some((nt.ta(self.1), nt.tc(self.1)))
    }

    fn group(&self, kind: usize, m: usize) -> Option<PtAt> {
        Some(self.0.pt.get(&(kind, m))?.at(self.1))
    }

    fn total(&self, group: PtAt, p: usize) -> f64 {
        group.total(p)
    }

    fn split(&self, group: PtAt, p: usize) -> (f64, f64) {
        (group.ta(p), group.tc(p))
    }
}

/// [`Estimator::estimate_terms`] under `rule`, with `fast_kind` as the
/// fast kind. Always inlined: out of line, it slows the serving path
/// [`Estimator::estimate`] by about a tenth.
#[inline(always)]
fn fold<T: EstimateTerms>(
    rule: &AdjustmentRule,
    fast_kind: usize,
    uses: &[KindUse],
    counts: ProcessCounts,
    terms: &T,
) -> Result<Estimate, PipelineError> {
    if counts.total == 0 {
        return Err(PipelineError::EmptyConfiguration);
    }
    let adjusted = !counts.single_pe && counts.m1 >= rule.min_m1;
    let (mut raw, mut makespan) = (0.0_f64, None);
    // `None` when unadjusted or once the baseline is unresolvable.
    let mut baseline = (adjusted && counts.baseline > 0).then_some(0.0_f64);
    for (i, u) in uses.iter().enumerate().filter(|(_, u)| u.pes > 0) {
        let (kind, m) = (u.kind.0, u.procs_per_pe);
        let t = if counts.single_pe {
            let (ta, tc) = terms
                .single_pe(kind, m)
                .ok_or(PipelineError::MissingNt(SampleKey::new(KindId(kind), 1, m)))?;
            ta + tc
        } else {
            let group = terms
                .group(kind, m)
                .ok_or(PipelineError::MissingPt { kind, m })?;
            if let Some(worst) = baseline {
                let base = if kind == fast_kind {
                    terms.group(kind, 1)
                } else {
                    Some(group)
                };
                baseline = base.map(|b| worst.max(terms.total(b, counts.baseline)));
            }
            terms.total(group, counts.total)
        };
        if t > raw {
            (raw, makespan) = (t, Some(i));
        }
    }
    let time = if adjusted {
        rule.apply(counts.m1, raw, baseline.unwrap_or(raw))
    } else {
        raw
    };
    Ok(Estimate { time, makespan })
}

/// The complete estimator: model bank + binning rule + adjustment.
#[derive(Clone, Debug)]
pub struct Estimator {
    /// The fitted models.
    pub bank: ModelBank,
    /// The §4.1 linear correction.
    pub adjustment: AdjustmentRule,
    /// The kind whose multiplicity gates the adjustment (the paper's
    /// Athlon, kind 0).
    pub fast_kind: usize,
}

impl Estimator {
    /// Wraps a bank with no adjustment.
    pub fn unadjusted(bank: ModelBank) -> Self {
        Estimator {
            bank,
            adjustment: AdjustmentRule::identity(),
            fast_kind: 0,
        }
    }

    /// Estimates the execution time of `config` at problem size `n`
    /// *without* the adjustment (the raw model of Figs. 6/8/9/12/14).
    ///
    /// Binning (§3.4): a single-PE configuration (`P = Mᵢ`) uses its N-T
    /// model — there is no inter-PE communication and the P-T form would
    /// be "illogical and imprecise"; anything else uses the P-T models at
    /// the run's total process count. The estimate is the slowest kind's
    /// `Ta + Tc`.
    ///
    /// # Errors
    /// [`PipelineError::EmptyConfiguration`] if no PEs are used;
    /// [`PipelineError::MissingNt`] / [`PipelineError::MissingPt`] if the
    /// campaign never measured the needed configuration family.
    pub fn estimate_raw(&self, config: &Configuration, n: usize) -> Result<f64, PipelineError> {
        Ok(BankTerms(&self.bank, n).raw(config)?.0.time)
    }

    /// Estimates with the adjustment applied (the paper's operating mode
    /// after §4.1).
    ///
    /// The adjustment corrects the *communication* models' systematic
    /// deviation, so it only applies to multi-PE configurations — a
    /// single-PE run has no inter-PE communication and its N-T estimate
    /// is already accurate.
    ///
    /// This is [`Estimator::estimate_terms`] over the bank's own models
    /// at size `n`: its baseline is the raw estimate with the fast kind
    /// dialled back to one process per PE.
    ///
    /// # Errors
    /// See [`Estimator::estimate_raw`].
    pub fn estimate(&self, config: &Configuration, n: usize) -> Result<f64, PipelineError> {
        let counts = ProcessCounts::of(&config.uses, self.fast_kind);
        let terms = BankTerms(&self.bank, n);
        Ok(self.estimate_terms(&config.uses, counts, &terms)?.time)
    }

    /// The one §3.4/§4.1 estimate fold, over caller-supplied model
    /// terms at one problem size: `uses` with `counts` taken from them
    /// ([`ProcessCounts::of`] with this estimator's fast kind).
    ///
    /// A single-PE configuration folds its N-T totals; any other folds
    /// the P-T totals of its `(kind, Mᵢ)` groups at `P`. The raw estimate
    /// is the slowest kind's `Ta + Tc`, the makespan term ([`Estimate`]).
    /// From `M₁ ≥ min_m1` on, the same walk folds the baseline at
    /// `P_base` (the fast kind read from its `(kind, 1)` group) and
    /// applies the adjustment; a baseline with a missing group falls
    /// back to the raw estimate.
    ///
    /// # Errors
    /// [`PipelineError::EmptyConfiguration`] when `P = 0`;
    /// [`PipelineError::MissingNt`] / [`PipelineError::MissingPt`] for
    /// the first used kind, in use order, whose term is missing.
    pub fn estimate_terms<T: EstimateTerms>(
        &self,
        uses: &[KindUse],
        counts: ProcessCounts,
        terms: &T,
    ) -> Result<Estimate, PipelineError> {
        fold(&self.adjustment, self.fast_kind, uses, counts, terms)
    }

    /// The §3 component split of the raw estimate: the makespan (worst)
    /// kind's arithmetic time `ta` and communication time `tc`, plus
    /// their total. This is the `(Ta, Tc)` pair the energy model
    /// converts to joules; the §4.1 adjustment corrects the *time*
    /// objective's communication bias but does not re-attribute time
    /// between phases, so energy follows this un-adjusted split.
    ///
    /// `total` is bit-identical to [`Estimator::estimate_raw`]; ties
    /// between kinds resolve to the first use in configuration order.
    ///
    /// # Errors
    /// Exactly [`Estimator::estimate_raw`]'s errors.
    pub fn estimate_raw_parts(
        &self,
        config: &Configuration,
        n: usize,
    ) -> Result<RawParts, PipelineError> {
        let terms = BankTerms(&self.bank, n);
        let (raw, counts) = terms.raw(config)?;
        Ok(raw.parts(&config.uses, counts, &terms))
    }
}

/// Runs every construction trial of `plan` on the simulated cluster and
/// records the per-kind `Ta`/`Tc` of each.
///
/// Trials are independent simulated HPL runs, so they are fanned out
/// over [`pool::num_threads`] workers; see
/// [`run_construction_threads`] for the determinism guarantee.
pub fn run_construction(spec: &ClusterSpec, plan: &MeasurementPlan, nb: usize) -> MeasurementDb {
    run_construction_threads(spec, plan, nb, pool::num_threads())
}

/// [`run_construction`] with an explicit worker count.
///
/// Each construction point is one deterministic simulated run, and the
/// results are merged into the database **in plan order** — not
/// completion order — so the returned [`MeasurementDb`] is bit-identical
/// for every `threads`, including 1 (the serial path).
pub fn run_construction_threads(
    spec: &ClusterSpec,
    plan: &MeasurementPlan,
    nb: usize,
    threads: usize,
) -> MeasurementDb {
    let samples = pool::par_map(&plan.construction, threads, |_, point| {
        let run = simulate_construction_point(spec, point, nb);
        sample_from_run(&run, point.key.kind_id(), point.n)
    });
    let mut db = MeasurementDb::new();
    for (point, sample) in plan.construction.iter().zip(samples) {
        db.record(point.key, sample);
    }
    db
}

/// Simulates one construction trial: HPL of order `point.n` on the
/// homogeneous configuration `point.key` names.
pub fn simulate_construction_point(
    spec: &ClusterSpec,
    point: &ConstructionPoint,
    nb: usize,
) -> SimulatedRun {
    let cfg = Configuration {
        uses: vec![etm_cluster::KindUse {
            kind: point.key.kind_id(),
            pes: point.key.pes,
            procs_per_pe: point.key.m,
        }],
    };
    simulate_hpl(spec, &cfg, &HplParams::order(point.n).with_nb(nb))
}

/// Extracts the model-facing sample from a simulated run.
pub fn sample_from_run(run: &SimulatedRun, kind: KindId, n: usize) -> Sample {
    Sample {
        n,
        ta: run.ta_of_kind(kind).expect("kind participated"),
        tc: run.tc_of_kind(kind).expect("kind participated"),
        wall: run.wall_seconds,
        multi_node: run.nodes_used > 1,
    }
}

/// The §4.1 adjustment *policy*: the reference point, the gate, and the
/// measured reference wall times — everything needed to refit the
/// [`AdjustmentRule`] against a new bank *without* touching the
/// simulator again. The engine stores one of these so incremental refits
/// stay pure model math.
#[derive(Clone, Debug)]
pub struct AdjustmentPolicy {
    /// Fast-kind multiplicity gate (the paper's `M1 ≥ 3`).
    pub min_m1: usize,
    /// Reference problem size (the paper's `N = 6400`).
    pub ref_n: usize,
    /// Slow-kind PE count of the reference configurations (the paper's
    /// `P2 = 8`).
    pub ref_p2: usize,
    /// The kind whose multiplicity gates the adjustment (the paper's
    /// Athlon, kind 0).
    pub fast_kind: usize,
    /// Measured reference wall times, `(m1, seconds)` ascending in `m1`.
    pub walls: Vec<(usize, f64)>,
}

impl AdjustmentPolicy {
    /// Reference multiplicities the bank supports: every `m ≥ min_m1`
    /// the fast kind has a P-T model for (the paper's M1 = 3..6; a
    /// trimmed campaign may have fewer), ascending.
    fn available_m1s(bank: &ModelBank, fast_kind: usize, min_m1: usize) -> Vec<usize> {
        bank.pt
            .keys()
            .filter(|(kind, m)| *kind == fast_kind && *m >= min_m1)
            .map(|(_, m)| *m)
            .collect()
    }

    /// Measures the reference wall times on the simulated cluster and
    /// captures the policy. With fewer than two supported reference
    /// multiplicities nothing is measured — [`AdjustmentPolicy::fit_rule`]
    /// then yields the identity rule.
    pub(crate) fn measure(
        spec: &ClusterSpec,
        bank: &ModelBank,
        fast_kind: usize,
        ref_n: usize,
        ref_p2: usize,
        min_m1: usize,
        nb: usize,
    ) -> Self {
        let available = Self::available_m1s(bank, fast_kind, min_m1);
        let walls = if available.len() < 2 {
            Vec::new()
        } else {
            // The reference measurements are independent simulated runs —
            // fan them out like the construction campaign.
            let walls = pool::par_map(&available, pool::num_threads(), |_, &m1| {
                let cfg = Configuration::p1m1_p2m2(1, m1, ref_p2, 1);
                simulate_hpl(spec, &cfg, &HplParams::order(ref_n).with_nb(nb)).wall_seconds
            });
            available.iter().copied().zip(walls).collect()
        };
        AdjustmentPolicy {
            min_m1,
            ref_n,
            ref_p2,
            fast_kind,
            walls,
        }
    }

    /// Fits the §4.1 rule against `bank` from the stored reference
    /// measurements: estimate-vs-measurement at the reference
    /// configurations `P1 = 1, M1 = min_m1.., P2 = ref_p2`, `N = ref_n`
    /// (the paper uses `N = 6400, P2 = 8, M1 ≥ 3`). With fewer than two
    /// usable reference points the identity rule is returned rather than
    /// fitting noise.
    ///
    /// # Errors
    /// Propagates estimation and regression failures.
    pub(crate) fn fit_rule(&self, bank: &ModelBank) -> Result<AdjustmentRule, PipelineError> {
        let terms = BankTerms(bank, self.ref_n);
        let raw = |cfg: &Configuration| terms.raw(cfg).map(|(raw, _)| raw.time);
        let baseline = raw(&Configuration::p1m1_p2m2(1, 1, self.ref_p2, 1))?;
        let mut estimates = Vec::new();
        let mut baselines = Vec::new();
        let mut measurements = Vec::new();
        for &(m1, wall) in &self.walls {
            if !bank.pt.contains_key(&(self.fast_kind, m1)) {
                // The bank lost this reference model (e.g. a refit over
                // a shrunken group); skip the stale measurement.
                continue;
            }
            estimates.push(raw(&Configuration::p1m1_p2m2(1, m1, self.ref_p2, 1))?);
            baselines.push(baseline);
            measurements.push(wall);
        }
        if estimates.len() < 2 {
            return Ok(AdjustmentRule::identity());
        }
        Ok(AdjustmentRule::fit(
            self.min_m1,
            &estimates,
            &baselines,
            &measurements,
        )?)
    }
}

/// The §4.1 policy [`build_estimator`] uses: reference walls at the
/// plan's largest construction size with every slow-kind CPU, gated on
/// the paper's `M1 ≥ 3`.
pub(crate) fn paper_adjustment_policy(
    spec: &ClusterSpec,
    bank: &ModelBank,
    plan: &MeasurementPlan,
    nb: usize,
) -> AdjustmentPolicy {
    let ref_n = *plan
        .construction_ns
        .last()
        .expect("plans have construction sizes");
    let ref_p2 = spec.cpus_of_kind(KindId(1));
    AdjustmentPolicy::measure(spec, bank, 0, ref_n, ref_p2, 3, nb)
}

/// The full pipeline: measure, fit, adjust. Returns the estimator and the
/// measurement database (whose costs populate Tables 3/6).
///
/// Internally this stands up an [`Engine`] on the paper's
/// [`PolyLsqBackend`] and returns its first snapshot's estimator — the
/// batch path and the serving path are the same code.
///
/// # Errors
/// Any fitting failure.
pub fn build_estimator(
    spec: &ClusterSpec,
    plan: &MeasurementPlan,
    nb: usize,
) -> Result<(Estimator, MeasurementDb), PipelineError> {
    let db = run_construction(spec, plan, nb);
    let engine = Engine::from_campaign(
        spec,
        plan,
        nb,
        db.clone(),
        Box::new(PolyLsqBackend::paper()),
    )?;
    Ok((engine.snapshot().estimator().clone(), db))
}
