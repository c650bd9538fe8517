//! Anytime branch-and-bound over a [`ConfigSpace`], with certified
//! pruning and an optional time × energy Pareto front.
//!
//! The paper's §4 selection evaluates *every* candidate; §5 asks for a
//! way to shrink the search. This module answers with an exact
//! branch-and-bound:
//!
//! * **Pruning** — partial configurations (a prefix of kinds fixed, the
//!   rest free) are lower-bounded from the snapshot's P-T models, each
//!   taken once per search to its per-size form
//!   [`PtModel::at`](etm_core::PtModel::at) and tabulated into one flat
//!   buffer over the reachable total-process range: every multi-PE
//!   completion's P-T term is `≥ min` of its model's tabulated times
//!   over that range. Where
//!   [`PtAt::monotone_p_limit`](etm_core::PtAt::monotone_p_limit)
//!   vouches that a model is non-increasing across the whole range, the
//!   minimum is a single table probe
//!   ([`AnytimeReport::certificate_hits`] counts these) instead of a
//!   scan. Subtrees whose bound cannot beat the incumbent are discarded
//!   wholesale; subtrees whose fixed prefix uses a group with no P-T
//!   model are all-error and discarded unconditionally.
//! * **Leaf prices** — a leaf that survives its bound is priced from the
//!   same tables (and the single-PE N-T splits tabulated beside them)
//!   through [`Estimator::estimate_terms`](etm_core::Estimator::estimate_terms),
//!   the estimator's one §3.4/§4.1 fold, with the process counts the
//!   bound already summed. The tables hold the walk's own terms, so a
//!   price equals [`EngineSnapshot::estimate`] bit for bit; a
//!   [`Configuration`] is built only for a new incumbent (and, with an
//!   energy model, for a point of the front).
//! * **Anytime** — every improvement is appended to
//!   [`AnytimeReport::incumbents`], so the best-so-far after any
//!   evaluation budget is recoverable; at exhaustion the result is the
//!   exact argmin, bit-identical to [`best_config`](crate::best_config)
//!   (strict `<`, first enumerated wins — the walk visits leaves in
//!   enumeration order and breaks exact ties by enumeration index).
//! * **Warm start** — [`AnytimeOptions::warm_start`] seeds the
//!   incumbent with a previous generation's optimum before the walk
//!   begins, so pruning bites from the first node.
//! * **Pareto front** — with [`AnytimeOptions::energy`] set, every
//!   estimable candidate is also priced in joules
//!   ([`EnergyModel::joules`] over the makespan kind's raw `(Ta, Tc)`
//!   split, which the leaf's own fold names) and the report carries
//!   the exact non-dominated time ×
//!   energy front. Pruning then requires a front point that strictly
//!   dominates the subtree's `(time, energy)` lower bounds — strict
//!   dominance is transitive, so the surviving set provably contains
//!   the full brute-force front.
//!
//! # Soundness margins
//!
//! Lower bounds combined through the §4.1 adjustment or shortcut by the
//! certificate are shaved by a relative `1e-9` before any prune
//! comparison, absorbing floating-point jitter between the tabulated
//! values and the estimate path's own rounding. Exact-range scans need
//! no margin: they read the very values the estimate computes. A
//! candidate tied with the final optimum can therefore never be pruned,
//! which is what makes the full-budget result bit-identical.

use etm_cluster::{Configuration, EnergyModel, KindId, KindUse};
use etm_core::engine::EngineSnapshot;
use etm_core::{EstimateTerms, ProcessCounts, PtAt, SampleKey};

use crate::{ConfigSpace, SearchResult};

/// Knobs for [`anytime_search`].
#[derive(Clone, Debug, Default)]
pub struct AnytimeOptions {
    /// Seed incumbent, typically the previous generation's optimum.
    /// Evaluated first (it counts as one evaluation); ignored when it
    /// does not lie inside the search space.
    pub warm_start: Option<Configuration>,
    /// Stop after this many candidate evaluations (`Some(0)` evaluates
    /// nothing). `None` runs to exhaustion.
    pub max_evaluations: Option<usize>,
    /// Price candidates in joules and emit the time × energy Pareto
    /// front. The model must cover every kind of the space.
    pub energy: Option<EnergyModel>,
}

/// One improvement of the best-so-far stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Incumbent {
    /// The configuration that became the incumbent.
    pub config: Configuration,
    /// Its estimated time (seconds).
    pub time: f64,
    /// Evaluations spent when it took over (1-based; the warm start is
    /// evaluation 1 when present).
    pub(crate) evaluations: usize,
}

/// One point of the time × energy Pareto front.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoPoint {
    /// The configuration.
    pub config: Configuration,
    /// Estimated execution time (seconds, §4.1-adjusted).
    pub time: f64,
    /// Estimated energy (joules, raw §3 split).
    pub energy: f64,
}

/// The outcome of an [`anytime_search`] run.
#[derive(Clone, Debug)]
pub struct AnytimeReport {
    /// The best configuration found (`None` when nothing estimable was
    /// evaluated). `evaluations` is the total candidates evaluated. At
    /// exhaustion this is bit-identical to
    /// [`best_config`](crate::best_config).
    pub best: Option<SearchResult>,
    /// Every improvement, in discovery order; the last entry is `best`.
    /// A best-so-far under budget `k` is the last entry with
    /// `evaluations ≤ k`.
    pub incumbents: Vec<Incumbent>,
    /// The non-dominated time × energy set over all finite estimable
    /// candidates, sorted by ascending time (ties by energy, then
    /// enumeration index). Empty without [`AnytimeOptions::energy`].
    pub front: Vec<ParetoPoint>,
    /// Size of the candidate space.
    pub candidates: usize,
    /// Candidates actually evaluated.
    pub evaluated: usize,
    /// Candidates discarded by pruning without evaluation.
    pub pruned: usize,
    /// Range-minimum queries answered by the monotonicity certificate
    /// with a single table probe instead of a scan.
    pub certificate_hits: usize,
    /// Whether the walk covered the whole space
    /// (`evaluated + pruned == candidates`).
    pub exhausted: bool,
}

/// Where one `(kind, m)` group's P-T totals sit in [`Tables::times`]:
/// the process counts `lo..=hi` a candidate using the group can reach,
/// as its own `P` or as a baseline's.
#[derive(Clone, Copy)]
struct Slot {
    /// `times[start + p - lo]` = the group's total at `P = p`.
    start: usize,
    lo: usize,
    hi: usize,
    /// Largest `P` up to which the model is certified non-increasing;
    /// `NEG_INFINITY` when the certificate cannot vouch.
    mono_limit: f64,
    /// The group's per-size model in [`Tables::ats`].
    at: usize,
}

/// One `(kind, m)` entry of [`Tables`].
#[derive(Clone, Copy)]
struct Entry {
    /// The P-T group, `None` without a model.
    slot: Option<Slot>,
    /// The N-T `(Ta, Tc)` of `(kind, 1, m)`, `None` without a model.
    single: Option<(f64, f64)>,
}

/// The snapshot's models at the search's size, tabulated once per
/// search from [`PtModel::at`](etm_core::PtModel::at): every group's
/// P-T totals over its reachable process range, and the single-PE N-T
/// splits. Both the bounds and the leaf prices read them; the prices
/// through [`Estimator::estimate_terms`], so the estimate rules live in
/// the estimator alone.
struct Tables {
    /// Per kind, the index of its `m = 1` entry in `entries`.
    first: Vec<usize>,
    entries: Vec<Entry>,
    /// Every group's totals, one group after another.
    times: Vec<f64>,
    /// Every group's per-size model, for the makespan term's split.
    ats: Vec<PtAt>,
}

impl Tables {
    /// Tabulates `snapshot`'s models of every `(kind, m)` of `space` at
    /// size `n`; `p_max` is the largest total process count in `space`.
    fn new(snapshot: &EngineSnapshot, space: &ConfigSpace, n: usize, p_max: usize) -> Tables {
        let bank = snapshot.bank();
        let groups: usize = space.max_m.iter().sum();
        let mut tables = Tables {
            first: Vec::with_capacity(space.max_m.len()),
            entries: Vec::with_capacity(groups),
            times: Vec::with_capacity(groups * p_max),
            ats: Vec::with_capacity(groups),
        };
        for (kind, &max_m) in space.max_m.iter().enumerate() {
            tables.first.push(tables.entries.len());
            // The other kinds can add at most this many processes.
            let others = p_max - space.available[kind] * max_m;
            for m in 1..=max_m {
                let nt = bank.nt.get(&SampleKey::new(KindId(kind), 1, m));
                let slot = bank.pt.get(&(kind, m)).map(|pt| {
                    let at = pt.at(n);
                    let (lo, hi) = (m, space.available[kind] * m + others);
                    let start = tables.times.len();
                    tables.times.extend((lo..=hi).map(|p| at.total(p)));
                    let mono_limit = at.monotone_p_limit().unwrap_or(f64::NEG_INFINITY);
                    tables.ats.push(at);
                    Slot {
                        start,
                        lo,
                        hi,
                        mono_limit,
                        at: tables.ats.len() - 1,
                    }
                });
                tables.entries.push(Entry {
                    slot,
                    single: nt.map(|nt| (nt.ta(n), nt.tc(n))),
                });
            }
        }
        tables
    }

    fn entry(&self, kind: usize, m: usize) -> Entry {
        debug_assert!(m >= 1 && self.first[kind] + m <= self.entries.len());
        self.entries[self.first[kind] + m - 1]
    }

    fn slot(&self, kind: usize, m: usize) -> Option<Slot> {
        self.entry(kind, m).slot
    }

    /// The slot's totals over `P ∈ [lo, hi]`.
    fn range(&self, slot: Slot, lo: usize, hi: usize) -> &[f64] {
        debug_assert!(slot.lo <= lo && lo <= hi && hi <= slot.hi);
        &self.times[slot.start + lo - slot.lo..=slot.start + hi - slot.lo]
    }

    /// Minimum of the slot's totals over `P ∈ [lo, hi]`. Answered by the
    /// certificate as the total at `hi` when the whole range is
    /// certified non-increasing, else by scanning; a `NaN` entry in the
    /// scanned range yields `NEG_INFINITY` (that term is invisible to
    /// the estimate's `max` fold, so it bounds nothing).
    fn range_min(&self, slot: Slot, lo: usize, hi: usize, hits: &mut usize) -> f64 {
        let times = self.range(slot, lo, hi);
        if slot.mono_limit >= hi as f64 {
            let v = times[times.len() - 1];
            if !v.is_nan() {
                *hits += 1;
                return v;
            }
        }
        let mut m = f64::INFINITY;
        for &v in times {
            if v.is_nan() {
                return f64::NEG_INFINITY;
            }
            if v < m {
                m = v;
            }
        }
        m
    }

    /// Whether every group's `(Ta, Tc)` split is finite and non-negative
    /// over its reachable range, where each candidate's makespan term
    /// lies — the precondition of the floor-watts energy bound.
    fn parts_safe(&self) -> bool {
        self.entries.iter().filter_map(|e| e.slot).all(|slot| {
            (slot.lo..=slot.hi).all(|p| {
                let (ta, tc) = self.split(slot, p);
                ta.is_finite() && tc.is_finite() && ta >= 0.0 && tc >= 0.0
            })
        })
    }
}

impl EstimateTerms for Tables {
    type Group = Slot;

    fn single_pe(&self, kind: usize, m: usize) -> Option<(f64, f64)> {
        self.entry(kind, m).single
    }

    fn group(&self, kind: usize, m: usize) -> Option<Slot> {
        self.slot(kind, m)
    }

    fn total(&self, slot: Slot, p: usize) -> f64 {
        self.range(slot, p, p)[0]
    }

    fn split(&self, slot: Slot, p: usize) -> (f64, f64) {
        let at = &self.ats[slot.at];
        (at.ta(p), at.tc(p))
    }
}

/// Subtree assessment from the fixed prefix.
enum Bound {
    /// Every completion errors (a fixed group has no P-T model).
    AllError,
    /// Lower bounds on every completion's adjusted time and energy.
    Lb { time: f64, energy: f64 },
    /// No usable bound; the subtree must be walked.
    Unbounded,
}

/// Running sums over a fixed prefix's uses.
#[derive(Clone, Copy, Default)]
struct Fixed {
    /// PEs `Σ Pᵢ`.
    pes: usize,
    /// Processes `Σ Pᵢ·Mᵢ`.
    procs: usize,
    /// Baseline processes: the fast kind at `M₁ = 1`.
    base: usize,
}

struct Best {
    n: usize,
    time: f64,
}

/// Shaves a relative margin off a lower bound before it is compared
/// against an incumbent, absorbing FP jitter on the certificate and
/// adjustment paths. `±inf` pass through unchanged.
fn shave(x: f64) -> f64 {
    x - x.abs() * 1e-9
}

struct Searcher<'a> {
    snapshot: &'a EngineSnapshot,
    space: &'a ConfigSpace,
    kinds: usize,
    tables: Tables,
    /// `suffix[j]` = completions of a prefix fixing kinds `0..j`.
    suffix: Vec<usize>,
    /// Max processes kinds `j..` can add.
    free_pm_max: Vec<usize>,
    /// Max *baseline* processes kinds `j..` can add (fast kind at
    /// `M₁ = 1`).
    free_base_max: Vec<usize>,
    fast_kind: usize,
    min_m1: usize,
    scale: f64,
    base_coeff: f64,
    energy: Option<&'a EnergyModel>,
    /// Whether every tabulated `(Ta, Tc)` split is finite and
    /// non-negative — the precondition of the floor-watts energy bound.
    parts_safe: bool,
    budget: Option<usize>,
    warm_n: Option<usize>,
    warm_seen: bool,
    evaluated: usize,
    pruned: usize,
    cert_hits: usize,
    stopped: bool,
    best: Option<Best>,
    /// Every improvement; the last entry is `best`'s configuration.
    incumbents: Vec<Incumbent>,
    /// Running non-dominated `(time, energy)` set for bi-criteria
    /// pruning (energy mode).
    archive: Vec<(f64, f64)>,
    /// Every finite estimable candidate: `(enum index, time, energy,
    /// config)` (energy mode).
    points: Vec<(usize, f64, f64, Configuration)>,
}

impl<'a> Searcher<'a> {
    fn new(
        snapshot: &'a EngineSnapshot,
        space: &'a ConfigSpace,
        n: usize,
        opts: &'a AnytimeOptions,
    ) -> Self {
        let kinds = space.available.len();
        let mut suffix = vec![1usize; kinds + 1];
        let mut free_pm_max = vec![0usize; kinds + 1];
        let mut free_base_max = vec![0usize; kinds + 1];
        let fast_kind = snapshot.fast_kind();
        for j in (0..kinds).rev() {
            suffix[j] = suffix[j + 1] * (1 + space.available[j] * space.max_m[j]);
            free_pm_max[j] = free_pm_max[j + 1] + space.available[j] * space.max_m[j];
            free_base_max[j] = free_base_max[j + 1]
                + if j == fast_kind {
                    space.available[j]
                } else {
                    space.available[j] * space.max_m[j]
                };
        }
        let adjustment = snapshot.adjustment();
        let tables = Tables::new(snapshot, space, n, free_pm_max[0]);
        Searcher {
            snapshot,
            space,
            kinds,
            suffix,
            free_pm_max,
            free_base_max,
            fast_kind,
            min_m1: adjustment.min_m1,
            scale: adjustment.scale,
            base_coeff: adjustment.base_coeff,
            energy: opts.energy.as_ref(),
            // Read only by the energy bound.
            parts_safe: opts.energy.is_some() && tables.parts_safe(),
            tables,
            budget: opts.max_evaluations,
            warm_n: None,
            warm_seen: false,
            evaluated: 0,
            pruned: 0,
            cert_hits: 0,
            stopped: false,
            best: None,
            incumbents: Vec::new(),
            archive: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Canonicalizes a warm-start configuration into the space's kind
    /// order and returns its enumeration index (1-based); `None` when
    /// it falls outside the space.
    fn canonical_warm(&self, cfg: &Configuration) -> Option<(Vec<KindUse>, usize)> {
        for u in &cfg.uses {
            if u.pes > 0 && u.kind.0 >= self.kinds {
                return None;
            }
        }
        let mut uses = Vec::with_capacity(self.kinds);
        let mut n_idx = 0usize;
        for k in 0..self.kinds {
            let pes = cfg.pes(KindId(k));
            let m = cfg.procs_per_pe(KindId(k));
            if pes > self.space.available[k] {
                return None;
            }
            if pes > 0 && !(1..=self.space.max_m[k]).contains(&m) {
                return None;
            }
            let (pes, m) = if pes > 0 { (pes, m) } else { (0, 0) };
            let digit = if pes > 0 {
                (pes - 1) * self.space.max_m[k] + (m - 1) + 1
            } else {
                0
            };
            n_idx += digit * self.suffix[k + 1];
            uses.push(KindUse {
                kind: KindId(k),
                pes,
                procs_per_pe: m,
            });
        }
        if n_idx == 0 {
            return None;
        }
        Some((uses, n_idx))
    }

    /// Iterates kind `k`'s choices; `fixed` holds kinds `0..k`, whose
    /// sums are `sums`.
    fn node(&mut self, k: usize, fixed: &mut Vec<KindUse>, base_n: usize, sums: Fixed) {
        let max_m = self.space.max_m[k];
        let avail = self.space.available[k];
        // Choice 0 is "unused"; then (pes, m) in enumeration order. The
        // choice index doubles as this kind's mixed-radix digit.
        for choice in 0..=avail * max_m {
            if self.stopped {
                return;
            }
            let (pes, m) = if choice == 0 {
                (0, 0)
            } else {
                ((choice - 1) / max_m + 1, (choice - 1) % max_m + 1)
            };
            let child_n = base_n + choice * self.suffix[k + 1];
            fixed.push(KindUse {
                kind: KindId(k),
                pes,
                procs_per_pe: m,
            });
            let base_m = if k == self.fast_kind { 1 } else { m };
            let child = Fixed {
                pes: sums.pes + pes,
                procs: sums.procs + pes * m,
                base: sums.base + pes * base_m,
            };
            if k + 1 == self.kinds {
                self.leaf(fixed, child_n, child);
            } else {
                self.subtree(k, fixed, child_n, child);
            }
            fixed.pop();
        }
    }

    /// Bounds the subtree under `fixed` (kinds `0..=k`), pruning it or
    /// recursing.
    fn subtree(&mut self, k: usize, fixed: &mut Vec<KindUse>, base_n: usize, sums: Fixed) {
        if sums.pes >= 2 {
            match self.bound(fixed, k, sums) {
                Bound::AllError => {
                    self.count_pruned(base_n, self.suffix[k + 1]);
                    return;
                }
                Bound::Lb { time, energy } => {
                    if self.should_prune(time, energy) {
                        self.count_pruned(base_n, self.suffix[k + 1]);
                        return;
                    }
                }
                Bound::Unbounded => {}
            }
        }
        self.node(k + 1, fixed, base_n, sums);
    }

    fn leaf(&mut self, fixed: &[KindUse], n_idx: usize, sums: Fixed) {
        if n_idx == 0 {
            return; // the all-unused non-candidate
        }
        if self.warm_n == Some(n_idx) {
            self.warm_seen = true; // already evaluated up front
            return;
        }
        if sums.pes >= 2 {
            match self.bound(fixed, self.kinds - 1, sums) {
                Bound::AllError => {
                    self.pruned += 1;
                    return;
                }
                Bound::Lb { time, energy } => {
                    if self.should_prune(time, energy) {
                        self.pruned += 1;
                        return;
                    }
                }
                Bound::Unbounded => {}
            }
        }
        let counts = ProcessCounts {
            total: sums.procs,
            baseline: sums.base,
            m1: self.fixed_m1(fixed),
            single_pe: sums.pes == 1,
        };
        self.evaluate(fixed, n_idx, counts);
    }

    /// The fast kind's multiplicity in `fixed` (0 when unused or not
    /// yet fixed).
    fn fixed_m1(&self, fixed: &[KindUse]) -> usize {
        match fixed.get(self.fast_kind) {
            Some(u) if u.pes > 0 => u.procs_per_pe,
            _ => 0,
        }
    }

    fn count_pruned(&mut self, base_n: usize, count: usize) {
        let mut c = count;
        if let Some(w) = self.warm_n {
            // The warm start inside this subtree was already evaluated;
            // it must not also be counted as pruned.
            if !self.warm_seen && base_n <= w && w < base_n + count {
                self.warm_seen = true;
                c -= 1;
            }
        }
        self.pruned += c;
    }

    /// Lower-bounds every completion of `fixed` (kinds `0..=k`, all
    /// multi-PE by the caller's `sums.pes ≥ 2` gate).
    fn bound(&mut self, fixed: &[KindUse], k: usize, sums: Fixed) -> Bound {
        let mut hits = 0usize;
        let free_pm = self.free_pm_max[k + 1];
        // Raw §3.4 bound: each completion's P-T term for a fixed used
        // slot is one of the tabulated values in the reachable range.
        let mut raw_lb = f64::NEG_INFINITY;
        for u in fixed.iter().filter(|u| u.pes > 0) {
            let Some(slot) = self.tables.slot(u.kind.0, u.procs_per_pe) else {
                return Bound::AllError;
            };
            let lb = self
                .tables
                .range_min(slot, sums.procs, sums.procs + free_pm, &mut hits);
            raw_lb = raw_lb.max(lb);
        }
        self.cert_hits += hits;
        if !raw_lb.is_finite() {
            return Bound::Unbounded;
        }

        // Energy floor: fixed PEs drawing their smaller state power for
        // at least the raw makespan bound.
        let energy_lb = match self.energy {
            Some(em) => {
                let mut floor = 0.0f64;
                for u in fixed.iter().filter(|u| u.pes > 0) {
                    floor += u.pes as f64 * em.kind_floor_watts(u.kind).max(0.0);
                }
                floor * raw_lb.max(0.0)
            }
            None => 0.0,
        };

        // §4.1-aware time bound: completions may be raw or adjusted,
        // depending on where the fast kind's multiplicity can land.
        let (m1_lo, m1_hi) = if self.fast_kind < self.kinds {
            if self.fast_kind <= k {
                let m1 = self.fixed_m1(fixed);
                (m1, m1)
            } else if self.space.available[self.fast_kind] > 0 {
                (0, self.space.max_m[self.fast_kind])
            } else {
                (0, 0)
            }
        } else {
            (0, 0)
        };
        let mut time_lb = f64::INFINITY;
        if m1_lo < self.min_m1 {
            time_lb = time_lb.min(raw_lb);
        }
        if m1_hi >= self.min_m1 {
            time_lb = time_lb.min(self.adjusted_lb(fixed, k, sums, raw_lb));
        }
        Bound::Lb {
            time: time_lb,
            energy: energy_lb,
        }
    }

    /// Lower bound on `scale·raw + base_coeff·baseline` over the
    /// subtree's adjusted completions; `NEG_INFINITY` when the folded
    /// coefficients cannot be bounded from below.
    fn adjusted_lb(&mut self, fixed: &[KindUse], k: usize, sums: Fixed, raw_lb: f64) -> f64 {
        if self.scale < 0.0 || self.base_coeff < 0.0 {
            return f64::NEG_INFINITY;
        }
        if self.base_coeff == 0.0 {
            return self.scale * raw_lb;
        }
        let mut hits = 0usize;
        let base_phi = sums.base + self.free_base_max[k + 1];
        let mut base_lb = f64::NEG_INFINITY;
        let mut all_base_present = true;
        for u in fixed.iter().filter(|u| u.pes > 0) {
            let bm = if u.kind.0 == self.fast_kind {
                1
            } else {
                u.procs_per_pe
            };
            match self.tables.slot(u.kind.0, bm) {
                Some(slot) => {
                    let lb = self.tables.range_min(slot, sums.base, base_phi, &mut hits);
                    base_lb = base_lb.max(lb);
                }
                None => all_base_present = false,
            }
        }
        self.cert_hits += hits;
        // A completion with an unresolvable baseline falls back to
        // `baseline = raw`; one with a resolvable baseline is bounded
        // by `base_lb`. `min` covers both classes.
        let factor_lb = if all_base_present {
            base_lb.min(raw_lb)
        } else {
            raw_lb
        };
        if factor_lb.is_finite() {
            self.scale * raw_lb + self.base_coeff * factor_lb
        } else {
            f64::NEG_INFINITY
        }
    }

    fn should_prune(&self, time_lb: f64, energy_lb: f64) -> bool {
        let t_lb = shave(time_lb);
        match self.energy {
            // Time-only: nothing in the subtree can beat (or tie) the
            // incumbent.
            None => match &self.best {
                Some(b) => t_lb > b.time,
                None => false,
            },
            // Bi-criteria: an already-evaluated point strictly
            // dominates everything in the subtree, so no completion
            // can be the time argmin *or* sit on the front.
            Some(_) => {
                if !self.parts_safe {
                    return false;
                }
                let e_lb = shave(energy_lb);
                self.archive.iter().any(|&(at, ae)| at < t_lb && ae < e_lb)
            }
        }
    }

    /// Prices the candidate `fixed` (with `counts` read off it) from the
    /// tables. A configuration is built only for a new incumbent and,
    /// in energy mode, for a point of the front.
    fn evaluate(&mut self, fixed: &[KindUse], n_idx: usize, counts: ProcessCounts) {
        if self.stopped {
            return;
        }
        if let Some(b) = self.budget {
            if self.evaluated >= b {
                self.stopped = true;
                return;
            }
        }
        self.evaluated += 1;
        let estimator = self.snapshot.estimator();
        let Ok(est) = estimator.estimate_terms(fixed, counts, &self.tables) else {
            return;
        };
        let t = est.time;
        if let Some(em) = self.energy {
            let parts = est.parts(fixed, counts, &self.tables);
            let e = em.joules(fixed, parts.ta, parts.tc);
            if t.is_finite() && e.is_finite() {
                let cfg = Configuration {
                    uses: fixed.to_vec(),
                };
                self.points.push((n_idx, t, e, cfg));
                self.archive_insert(t, e);
            }
        }
        let better = match &self.best {
            None => true,
            Some(b) => t < b.time || (t == b.time && n_idx < b.n),
        };
        if better {
            self.best = Some(Best { n: n_idx, time: t });
            self.incumbents.push(Incumbent {
                config: Configuration {
                    uses: fixed.to_vec(),
                },
                time: t,
                evaluations: self.evaluated,
            });
        }
    }

    fn archive_insert(&mut self, t: f64, e: f64) {
        if self.archive.iter().any(|&(at, ae)| at <= t && ae <= e) {
            return;
        }
        self.archive.retain(|&(at, ae)| !(t <= at && e <= ae));
        self.archive.push((t, e));
    }

    /// The exact non-dominated set over every stored point, ordered by
    /// enumeration index before extraction so the output is independent
    /// of evaluation order (warm starts evaluate out of order).
    fn extract_front(&mut self) -> Vec<ParetoPoint> {
        let mut points = std::mem::take(&mut self.points);
        points.sort_by_key(|p| p.0);
        let flat: Vec<(Configuration, f64, f64)> = points
            .into_iter()
            .map(|(_, t, e, cfg)| (cfg, t, e))
            .collect();
        pareto_front_of(&flat)
    }
}

/// The exact non-dominated subset of `(config, time, energy)` points
/// under standard Pareto dominance (`q` dominates `p` when it is no
/// worse on both axes and strictly better on one). Points with
/// bit-equal `(time, energy)` are all kept; output is sorted by
/// ascending time, ties by energy, then input order.
pub fn pareto_front_of(points: &[(Configuration, f64, f64)]) -> Vec<ParetoPoint> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| {
        points[a]
            .1
            .total_cmp(&points[b].1)
            .then(points[a].2.total_cmp(&points[b].2))
            .then(a.cmp(&b))
    });
    let mut front = Vec::new();
    let mut best_e = f64::INFINITY;
    let mut i = 0;
    while i < idx.len() {
        let t0 = points[idx[i]].1;
        let mut j = i;
        let mut min_e = f64::INFINITY;
        while j < idx.len() && points[idx[j]].1 == t0 {
            min_e = min_e.min(points[idx[j]].2);
            j += 1;
        }
        if min_e < best_e {
            for &q in &idx[i..j] {
                if points[q].2 == min_e {
                    front.push(ParetoPoint {
                        config: points[q].0.clone(),
                        time: points[q].1,
                        energy: points[q].2,
                    });
                }
            }
            best_e = min_e;
        }
        i = j;
    }
    front
}

/// Anytime branch-and-bound minimization of the §4.1-adjusted estimate
/// over `space` at problem size `n`, served from a pinned snapshot.
///
/// Run to exhaustion (no budget), the result is bit-identical to
/// [`best_config`](crate::best_config) while evaluating only the
/// candidates pruning could not discard. See the `anytime` module docs
/// for the bounding machinery, and [`AnytimeOptions`] for
/// warm starts, budgets, and the energy objective.
pub fn anytime_search(
    snapshot: &EngineSnapshot,
    space: &ConfigSpace,
    n: usize,
    opts: &AnytimeOptions,
) -> AnytimeReport {
    let candidates = space.len();
    let mut s = Searcher::new(snapshot, space, n, opts);
    if let Some(w) = &opts.warm_start {
        if let Some((uses, n_idx)) = s.canonical_warm(w) {
            s.warm_n = Some(n_idx);
            let counts = ProcessCounts::of(&uses, s.fast_kind);
            s.evaluate(&uses, n_idx, counts);
        }
    }
    s.node(0, &mut Vec::with_capacity(s.kinds), 0, Fixed::default());
    let front = if s.energy.is_some() {
        s.extract_front()
    } else {
        Vec::new()
    };
    let evaluated = s.evaluated;
    AnytimeReport {
        best: s.incumbents.last().map(|b| SearchResult {
            config: b.config.clone(),
            time: b.time,
            evaluations: evaluated,
        }),
        incumbents: std::mem::take(&mut s.incumbents),
        front,
        candidates,
        evaluated,
        pruned: s.pruned,
        certificate_hits: s.cert_hits,
        exhausted: evaluated + s.pruned == candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::best_config;
    use etm_cluster::commlib::CommLibProfile;
    use etm_cluster::spec::{athlon_1333, paper_cluster, pentium2_400};
    use etm_cluster::{ClusterSpec, NetworkSpec, NodeSpec};
    use etm_core::backend::PolyLsqBackend;
    use etm_core::engine::Engine;
    use etm_core::{MeasurementDb, Sample, SampleKey};

    /// Same synthetic campaign as the engine-objective tests: kind 0 a
    /// fast single PE, kind 1 a slower multi-PE pool, `m ∈ {1, 2}`.
    fn synth_db(kind0_speed: f64) -> MeasurementDb {
        let mut db = MeasurementDb::new();
        for kind in 0..2usize {
            let pes_list: &[usize] = if kind == 0 { &[1] } else { &[1, 2, 4] };
            for &pes in pes_list {
                for m in 1..=2usize {
                    for n in [400usize, 800, 1600, 2400, 3200] {
                        let x = n as f64;
                        let p = (pes * m) as f64;
                        let speed = if kind == 0 { kind0_speed } else { 1.0 };
                        let ta = (2e-9 * x * x * x / p + 1e-5 * x) / speed + 0.05;
                        let tc = 1e-7 * x * x * (0.3 * p + 0.7 / p) + 0.01;
                        db.record(
                            SampleKey { kind, pes, m },
                            Sample {
                                n,
                                ta,
                                tc,
                                wall: ta + tc,
                                multi_node: pes > 1,
                            },
                        );
                    }
                }
            }
        }
        db
    }

    fn engine() -> Engine {
        Engine::new(Box::new(PolyLsqBackend::paper()), synth_db(2.0), None).expect("synth db fits")
    }

    fn spaces() -> Vec<ConfigSpace> {
        let cluster = paper_cluster(CommLibProfile::mpich122());
        vec![
            ConfigSpace::new(&cluster, vec![2, 2]),
            // m > 2 has no fitted models: exercises all-error pruning.
            ConfigSpace::new(&cluster, vec![6, 6]),
        ]
    }

    fn energy_model() -> EnergyModel {
        EnergyModel::from_spec(&paper_cluster(CommLibProfile::mpich122()))
    }

    #[test]
    fn exhausted_run_is_bit_identical_to_best_config_with_fewer_evaluations() {
        let e = engine();
        let snapshot = e.snapshot();
        for space in spaces() {
            for n in [400usize, 1600, 3200, 9999] {
                let brute = best_config(&snapshot, &space, n).expect("estimable");
                let report = anytime_search(&snapshot, &space, n, &AnytimeOptions::default());
                let best = report.best.expect("estimable");
                assert_eq!(best.config, brute.config, "n={n}");
                assert_eq!(best.time.to_bits(), brute.time.to_bits(), "n={n}");
                assert!(report.exhausted);
                assert_eq!(report.candidates, space.len());
                assert_eq!(report.evaluated + report.pruned, report.candidates);
                assert!(
                    report.evaluated < report.candidates,
                    "pruning must discard candidates (evaluated {} of {})",
                    report.evaluated,
                    report.candidates
                );
                assert!(report.pruned > 0);
                let last = report.incumbents.last().expect("incumbent stream");
                assert_eq!(last.time.to_bits(), best.time.to_bits());
                assert_eq!(last.config, best.config);
            }
        }
    }

    #[test]
    fn warm_start_matches_cold_and_never_evaluates_more() {
        let e = engine();
        let snapshot = e.snapshot();
        for space in spaces() {
            let cold = anytime_search(&snapshot, &space, 1600, &AnytimeOptions::default());
            let best = cold.best.clone().expect("estimable");
            let warm = anytime_search(
                &snapshot,
                &space,
                1600,
                &AnytimeOptions {
                    warm_start: Some(best.config.clone()),
                    ..AnytimeOptions::default()
                },
            );
            let wbest = warm.best.expect("estimable");
            assert_eq!(wbest.config, best.config);
            assert_eq!(wbest.time.to_bits(), best.time.to_bits());
            assert!(warm.exhausted);
            assert_eq!(warm.evaluated + warm.pruned, warm.candidates);
            assert!(
                warm.evaluated <= cold.evaluated,
                "warm {} vs cold {}",
                warm.evaluated,
                cold.evaluated
            );
            // Seeding with the optimum makes it the sole incumbent.
            assert_eq!(warm.incumbents.len(), 1);
            assert_eq!(warm.incumbents[0].evaluations, 1);
        }
    }

    #[test]
    fn out_of_space_warm_start_degrades_to_cold() {
        let e = engine();
        let snapshot = e.snapshot();
        let space = ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![2, 2]);
        let cold = anytime_search(&snapshot, &space, 1600, &AnytimeOptions::default());
        // m = 5 exceeds max_m = 2: not a member of the space.
        let warm = anytime_search(
            &snapshot,
            &space,
            1600,
            &AnytimeOptions {
                warm_start: Some(Configuration::p1m1_p2m2(1, 5, 2, 5)),
                ..AnytimeOptions::default()
            },
        );
        assert_eq!(warm.evaluated, cold.evaluated);
        assert_eq!(
            warm.best.unwrap().time.to_bits(),
            cold.best.unwrap().time.to_bits()
        );
    }

    #[test]
    fn budgeted_runs_return_the_prefix_incumbent() {
        let e = engine();
        let snapshot = e.snapshot();
        let space = ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![2, 2]);
        let full = anytime_search(&snapshot, &space, 3200, &AnytimeOptions::default());
        assert!(full.exhausted);
        for budget in [1usize, 2, 3, 5, 8, full.evaluated] {
            let run = anytime_search(
                &snapshot,
                &space,
                3200,
                &AnytimeOptions {
                    max_evaluations: Some(budget),
                    ..AnytimeOptions::default()
                },
            );
            assert!(run.evaluated <= budget);
            // The budgeted best is the full run's last incumbent within
            // the budget: same deterministic walk, stopped early.
            let expect = full
                .incumbents
                .iter()
                .rev()
                .find(|i| i.evaluations <= budget)
                .expect("first evaluation estimable");
            let got = run.best.expect("estimable");
            assert_eq!(got.config, expect.config, "budget={budget}");
            assert_eq!(got.time.to_bits(), expect.time.to_bits(), "budget={budget}");
        }
        let zero = anytime_search(
            &snapshot,
            &space,
            3200,
            &AnytimeOptions {
                max_evaluations: Some(0),
                ..AnytimeOptions::default()
            },
        );
        assert!(zero.best.is_none());
        assert_eq!(zero.evaluated, 0);
        assert!(!zero.exhausted);
    }

    #[test]
    fn pareto_front_is_the_exact_brute_force_front() {
        let e = engine();
        let snapshot = e.snapshot();
        let em = energy_model();
        for space in spaces() {
            for n in [800usize, 3200] {
                let report = anytime_search(
                    &snapshot,
                    &space,
                    n,
                    &AnytimeOptions {
                        energy: Some(em.clone()),
                        ..AnytimeOptions::default()
                    },
                );
                // Independent O(n²) front over the full enumeration.
                let mut all: Vec<(f64, f64, Configuration)> = Vec::new();
                for cfg in space.enumerate() {
                    if let Ok(t) = snapshot.estimate(&cfg, n) {
                        let parts = snapshot
                            .estimator()
                            .estimate_raw_parts(&cfg, n)
                            .expect("raw resolves");
                        let en = em.joules(&cfg.uses, parts.ta, parts.tc);
                        if t.is_finite() && en.is_finite() {
                            all.push((t, en, cfg));
                        }
                    }
                }
                let brute: Vec<&(f64, f64, Configuration)> = all
                    .iter()
                    .filter(|p| {
                        !all.iter()
                            .any(|q| q.0 <= p.0 && q.1 <= p.1 && (q.0 < p.0 || q.1 < p.1))
                    })
                    .collect();
                assert_eq!(report.front.len(), brute.len(), "n={n}");
                assert!(!report.front.is_empty());
                for fp in &report.front {
                    assert!(
                        brute.iter().any(|b| b.0.to_bits() == fp.time.to_bits()
                            && b.1.to_bits() == fp.energy.to_bits()
                            && b.2 == fp.config),
                        "front point {fp:?} not in the brute-force front"
                    );
                    // Non-domination property of every reported point.
                    assert!(!report.front.iter().any(|q| q.time <= fp.time
                        && q.energy <= fp.energy
                        && (q.time < fp.time || q.energy < fp.energy)));
                }
                // The front contains the time argmin, bit-identical to
                // the exhaustive selection.
                let brute_best = best_config(&snapshot, &space, n).expect("estimable");
                let fastest = &report.front[0];
                assert_eq!(fastest.time.to_bits(), brute_best.time.to_bits());
                assert_eq!(fastest.config, brute_best.config);
            }
        }
    }

    #[test]
    fn pareto_front_is_deterministic_across_runs_and_warm_starts() {
        let e = engine();
        let snapshot = e.snapshot();
        let em = energy_model();
        let space = ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![2, 2]);
        let base = anytime_search(
            &snapshot,
            &space,
            1600,
            &AnytimeOptions {
                energy: Some(em.clone()),
                ..AnytimeOptions::default()
            },
        );
        let again = anytime_search(
            &snapshot,
            &space,
            1600,
            &AnytimeOptions {
                energy: Some(em.clone()),
                ..AnytimeOptions::default()
            },
        );
        let warm = anytime_search(
            &snapshot,
            &space,
            1600,
            &AnytimeOptions {
                energy: Some(em),
                warm_start: Some(Configuration::p1m1_p2m2(0, 0, 4, 2)),
                ..AnytimeOptions::default()
            },
        );
        for other in [&again, &warm] {
            assert_eq!(base.front.len(), other.front.len());
            for (a, b) in base.front.iter().zip(&other.front) {
                assert_eq!(a.time.to_bits(), b.time.to_bits());
                assert_eq!(a.energy.to_bits(), b.energy.to_bits());
                assert_eq!(a.config, b.config);
            }
        }
    }

    /// Exact ties resolve like `best_config`: first enumerated wins.
    /// With both kinds fitted from bit-identical samples, the
    /// single-PE estimates tie exactly; the enumeration visits kind 1
    /// solo (kind 0 unused) before kind 0 solo.
    #[test]
    fn exact_ties_resolve_to_the_first_enumerated_candidate() {
        let e = Engine::new(Box::new(PolyLsqBackend::paper()), synth_db(1.0), None)
            .expect("synth db fits");
        let snapshot = e.snapshot();
        let space = ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![2, 2]);
        for n in [400usize, 1600] {
            let brute = best_config(&snapshot, &space, n).expect("estimable");
            let report = anytime_search(&snapshot, &space, n, &AnytimeOptions::default());
            let best = report.best.expect("estimable");
            assert_eq!(best.config, brute.config, "n={n}");
            assert_eq!(best.time.to_bits(), brute.time.to_bits(), "n={n}");
        }
    }

    #[test]
    fn certificate_shortcuts_fire_on_the_synthetic_models() {
        let e = engine();
        let snapshot = e.snapshot();
        let space = ConfigSpace::new(&paper_cluster(CommLibProfile::mpich122()), vec![2, 2]);
        let report = anytime_search(&snapshot, &space, 1600, &AnytimeOptions::default());
        assert!(
            report.certificate_hits > 0,
            "no certified range-min shortcuts on a monotone-friendly model"
        );
    }

    /// A three-kind campaign: kind speeds 1.5 / 1.0 / 0.8, every kind
    /// measured at PE counts {1, 2, 4} and `m ∈ {1, 2}`, with
    /// communication cheap enough that the optimum mixes all three
    /// kinds at the larger sizes.
    fn synth_db_three_kinds() -> MeasurementDb {
        let mut db = MeasurementDb::new();
        for (kind, speed) in [1.5, 1.0, 0.8].into_iter().enumerate() {
            for pes in [1usize, 2, 4] {
                for m in 1..=2usize {
                    for n in [400usize, 800, 1600, 2400, 3200] {
                        let x = n as f64;
                        let p = (pes * m) as f64;
                        let ta = (2e-9 * x * x * x / p + 1e-5 * x) / speed + 0.05;
                        let tc = 1e-9 * x * x * (0.3 * p + 0.7 / p) + 0.01;
                        db.record(
                            SampleKey { kind, pes, m },
                            Sample {
                                n,
                                ta,
                                tc,
                                wall: ta + tc,
                                multi_node: pes > 1,
                            },
                        );
                    }
                }
            }
        }
        db
    }

    /// 2 dual-CPU nodes of kind 0, 8 single-CPU nodes of kind 1 and 16
    /// dual-CPU nodes of kind 2: 4 + 8 + 32 CPUs.
    fn three_kind_cluster() -> ClusterSpec {
        let mut nodes = Vec::new();
        for (kind, count, cpus) in [(0usize, 2usize, 2usize), (1, 8, 1), (2, 16, 2)] {
            for i in 0..count {
                nodes.push(NodeSpec {
                    name: format!("k{kind}-{i}"),
                    kind: KindId(kind),
                    cpus,
                    memory_bytes: 1024.0 * 1024.0 * 1024.0,
                });
            }
        }
        ClusterSpec::new(
            vec![athlon_1333(), athlon_1333(), pentium2_400()],
            nodes,
            NetworkSpec::fast_ethernet(),
            CommLibProfile::mpich122(),
        )
    }

    #[test]
    fn three_kind_exhausted_run_matches_the_exhaustive_oracle() {
        let e = Engine::new(
            Box::new(PolyLsqBackend::paper()),
            synth_db_three_kinds(),
            None,
        )
        .expect("three-kind synth db fits");
        let snapshot = e.snapshot();
        let space = ConfigSpace::new(&three_kind_cluster(), vec![2, 2, 2]);
        assert_eq!(space.len(), 9944);
        for n in [400usize, 1600, 3200, 9999] {
            let brute = best_config(&snapshot, &space, n).expect("estimable");
            let report = anytime_search(&snapshot, &space, n, &AnytimeOptions::default());
            let best = report.best.expect("estimable");
            assert_eq!(best.config, brute.config, "n={n}");
            assert_eq!(best.time.to_bits(), brute.time.to_bits(), "n={n}");
            assert!(report.exhausted, "n={n}");
            assert!(
                report.evaluated < report.candidates,
                "n={n}: pruning must discard candidates (evaluated {} of {})",
                report.evaluated,
                report.candidates
            );
            if n >= 1600 {
                let used = best.config.uses.iter().filter(|u| u.pes > 0).count();
                assert_eq!(
                    used, 3,
                    "n={n}: optimum {:?} must mix all kinds",
                    best.config
                );
            }
        }
    }
}
