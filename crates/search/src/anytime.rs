//! Anytime branch-and-bound over a [`ConfigSpace`], with certified
//! pruning and an optional time × energy Pareto front.
//!
//! The paper's §4 selection evaluates *every* candidate; §5 asks for a
//! way to shrink the search. This module answers with an exact
//! branch-and-bound whose cost follows what it evaluates, not the size
//! of the space:
//!
//! * **Bounds** — partial configurations (a prefix of kinds fixed, the
//!   rest free) are lower-bounded from the snapshot's P-T models, each
//!   taken once per search to its per-size form
//!   [`PtModel::at`](etm_core::PtModel::at): every multi-PE completion's
//!   P-T term is `≥ min` of its model's totals over the reachable
//!   process range. Where
//!   [`PtAt::monotone_p_limit`](etm_core::PtAt::monotone_p_limit)
//!   certifies the model convex in `P`, that minimum costs at most two
//!   evaluations ([`convex_min`](etm_core::convex_min):
//!   [`AnytimeReport::certificate_hits`] counts these); a model the
//!   certificate cannot vouch for is tabulated over its range and
//!   scanned. Subtrees whose bound cannot beat the incumbent are
//!   discarded wholesale; subtrees whose fixed prefix uses a group with
//!   no P-T model are all-error and discarded unconditionally.
//! * **Runs** — the last kind's multi-PE leaves under one prefix form a
//!   run over `P` per `M`. A run is bounded as a whole by one probe over
//!   its process and baseline ranges; where only part of it prunes, its
//!   prunable prefix and suffix are found by bisection, and past a leaf
//!   its own bound discards, the rest of the run is probed again. Pruned
//!   stretches are counted in closed form; only the leaves left between
//!   them are visited, in enumeration order, each with its own bound. A
//!   run's bound is below each of its leaves' bounds and the pruning bar
//!   only rises, so the walk evaluates, prunes and improves on exactly
//!   the leaves a leaf-by-leaf walk would.
//! * **Leaf prices** — a leaf that survives its bound is priced from the
//!   same per-size models (and the single-PE N-T splits taken beside
//!   them) through
//!   [`Estimator::estimate_terms`](etm_core::Estimator::estimate_terms),
//!   the estimator's one §3.4/§4.1 fold, with the process counts the
//!   bound already summed, so a price equals
//!   [`EngineSnapshot::estimate`] bit for bit. The walk carries
//!   enumeration indices, not configurations: an incumbent records its
//!   index ([`ConfigSpace::config_at`] decodes it), and a search builds
//!   a [`Configuration`] only for its reported best and its front.
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
//!   the exact non-dominated time × energy front, kept as it grows.
//!   Pruning then requires a front point that strictly dominates the
//!   subtree's `(time, energy)` lower bounds — strict dominance is
//!   transitive, so the surviving set provably contains the full
//!   brute-force front.
//!
//! # Soundness margins
//!
//! Lower bounds are shaved by a relative `1e-9` before any prune
//! comparison, absorbing floating-point jitter between the certificate's
//! reading of a convex curve, the §4.1 adjustment's combination of
//! bounds, and the estimate path's own rounding. A candidate tied with
//! the final optimum can therefore never be pruned, which is what makes
//! the full-budget result bit-identical.

use etm_cluster::{Configuration, EnergyModel, KindId, KindUse};
use etm_core::engine::EngineSnapshot;
use etm_core::{convex_min, EstimateTerms, ProcessCounts, PtAt, SampleKey};

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
    /// The enumeration index of the configuration that became the
    /// incumbent; [`ConfigSpace::config_at`] decodes it.
    pub index: usize,
    /// Its estimated time (seconds).
    pub time: f64,
    /// Evaluations spent when it took over (1-based; the warm start is
    /// evaluation 1 when present).
    pub evaluations: usize,
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
    /// Range-minimum queries answered by the convexity certificate
    /// instead of a scan.
    pub certificate_hits: usize,
    /// Whether the walk covered the whole space
    /// (`evaluated + pruned == candidates`).
    pub exhausted: bool,
}

/// One `(kind, m)` group of [`Tables`]: its per-size model and the
/// process counts `lo..=hi` a candidate using the group can reach, as
/// its own `P` or as a baseline's.
#[derive(Clone, Copy)]
struct Slot {
    /// The group's per-size model in [`Tables::ats`].
    at: usize,
    lo: usize,
    hi: usize,
    minima: Minima,
}

/// How a [`Slot`] answers the minimum of its totals over a P-range.
#[derive(Clone, Copy)]
enum Minima {
    /// The model is certified convex with this vertex
    /// ([`PtAt::monotone_p_limit`]): [`convex_min`] reads any range's
    /// minimum off it.
    Convex(f64),
    /// The certificate cannot vouch: the totals over `lo..=hi` are
    /// tabulated from [`Tables::times`]`[start]` on, and scanned.
    Scan { start: usize },
}

/// One `(kind, m)` entry of [`Tables`].
#[derive(Clone, Copy)]
struct Entry {
    /// The P-T group, `None` without a model.
    slot: Option<Slot>,
    /// The N-T `(Ta, Tc)` of `(kind, 1, m)`, `None` without a model.
    single: Option<(f64, f64)>,
}

/// The snapshot's models at the search's size, taken once per search:
/// every group's P-T model in its per-size form
/// [`PtModel::at`](etm_core::PtModel::at), and the single-PE N-T
/// splits. A group that the convexity certificate cannot vouch for also
/// has its totals tabulated over its reachable range, for the scans
/// that bound it. Both the bounds and the leaf prices read these; the
/// prices through [`Estimator::estimate_terms`], so the estimate rules
/// live in the estimator alone.
struct Tables {
    /// Per kind, the index of its `m = 1` entry in `entries`.
    first: Vec<usize>,
    entries: Vec<Entry>,
    /// The scanned groups' totals, one group after another.
    times: Vec<f64>,
    /// Every group's per-size model.
    ats: Vec<PtAt>,
}

impl Tables {
    /// Takes `snapshot`'s models of every `(kind, m)` of `space` to size
    /// `n`; `p_max` is the largest total process count in `space`.
    fn new(snapshot: &EngineSnapshot, space: &ConfigSpace, n: usize, p_max: usize) -> Tables {
        let bank = snapshot.bank();
        let groups: usize = space.max_m.iter().sum();
        let mut tables = Tables {
            first: Vec::with_capacity(space.max_m.len()),
            entries: Vec::with_capacity(groups),
            times: Vec::new(),
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
                    let minima = match at.monotone_p_limit() {
                        Some(vertex) => Minima::Convex(vertex),
                        None => {
                            let start = tables.times.len();
                            tables.times.extend((lo..=hi).map(|p| at.total(p)));
                            Minima::Scan { start }
                        }
                    };
                    tables.ats.push(at);
                    Slot {
                        at: tables.ats.len() - 1,
                        lo,
                        hi,
                        minima,
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

    /// Minimum of the slot's totals over `P ∈ [lo, hi]`. Answered by the
    /// convexity certificate with at most two evaluations
    /// ([`convex_min`]) where the model has one, else by scanning; a
    /// `NaN` total in the scanned range yields `NEG_INFINITY` (that term
    /// is invisible to the estimate's `max` fold, so it bounds nothing).
    fn range_min(&self, slot: Slot, lo: usize, hi: usize, hits: &mut usize) -> f64 {
        debug_assert!(slot.lo <= lo && lo <= hi && hi <= slot.hi);
        match slot.minima {
            Minima::Convex(vertex) => {
                let v = convex_min(vertex, lo, hi, |p| self.total(slot, p));
                if !v.is_nan() {
                    *hits += 1;
                    return v;
                }
                scan_min((lo..=hi).map(|p| self.total(slot, p)))
            }
            Minima::Scan { start } => scan_min(
                self.times[start + lo - slot.lo..=start + hi - slot.lo]
                    .iter()
                    .copied(),
            ),
        }
    }

    /// Whether every group's `(Ta, Tc)` split is finite and non-negative
    /// over its reachable range, where each candidate's makespan term
    /// lies — the precondition of the floor-watts energy bound.
    fn parts_safe(&self) -> bool {
        self.entries
            .iter()
            .filter_map(|e| e.slot)
            .all(|slot| self.ats[slot.at].split_non_negative(slot.lo, slot.hi))
    }
}

/// The smallest of `totals`, or `NEG_INFINITY` at the first `NaN`.
fn scan_min(totals: impl Iterator<Item = f64>) -> f64 {
    let mut m = f64::INFINITY;
    for v in totals {
        if v.is_nan() {
            return f64::NEG_INFINITY;
        }
        if v < m {
            m = v;
        }
    }
    m
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
        self.ats[slot.at].total(p)
    }

    fn split(&self, slot: Slot, p: usize) -> (f64, f64) {
        let at = &self.ats[slot.at];
        (at.ta(p), at.tc(p))
    }
}

/// Subtree assessment from the fixed prefix.
#[derive(Clone, Copy)]
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

/// The last kind's leaves under one fixed prefix of the other kinds.
#[derive(Clone, Copy)]
struct LastNode {
    /// The prefix's enumeration index; leaf `(P, M)` adds its digit.
    base_n: usize,
    /// The prefix's sums.
    sums: Fixed,
    /// The smallest `P` whose leaves are multi-PE (1, or 2 under an
    /// all-unused prefix), where each run starts.
    first: usize,
    /// The warm-start leaf's `(P, M)`, when it lies under this prefix.
    warm: Option<(usize, usize)>,
}

/// One run of [`Searcher::last_kind`]: its leaves at `P ∈ first..=pre`
/// and `suf..=available` are pruned, those between are left to visit.
#[derive(Clone, Copy)]
struct Run {
    pre: usize,
    suf: usize,
    /// [`Searcher::evaluated`] when the rest of the run last failed to
    /// prune.
    tried: Option<usize>,
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
    /// Whether a finite bound can discard anything: always for time
    /// alone; with energy, only where every `(Ta, Tc)` split a candidate
    /// can price is finite and non-negative, the precondition of the
    /// floor-watts energy bound.
    bounds_prune: bool,
    budget: Option<usize>,
    warm_n: Option<usize>,
    evaluated: usize,
    pruned: usize,
    cert_hits: usize,
    stopped: bool,
    /// Every improvement; the last entry is the best so far.
    incumbents: Vec<Incumbent>,
    /// Per `M` of the last kind, the current node's run.
    runs: Vec<Run>,
    /// The non-dominated `(enum index, time, energy)` points of the
    /// finite estimable candidates evaluated so far (energy mode): the
    /// bi-criteria pruning's archive, and at the end the front.
    archive: Vec<(usize, f64, f64)>,
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
            bounds_prune: opts.energy.is_none() || tables.parts_safe(),
            tables,
            budget: opts.max_evaluations,
            warm_n: None,
            evaluated: 0,
            pruned: 0,
            cert_hits: 0,
            stopped: false,
            incumbents: Vec::new(),
            runs: Vec::with_capacity(space.max_m.last().copied().unwrap_or(0)),
            archive: Vec::new(),
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

    /// The sums of `sums` with `pes` PEs of kind `k` at `m` processes
    /// each added.
    fn with_use(&self, sums: Fixed, k: usize, pes: usize, m: usize) -> Fixed {
        let base_m = if k == self.fast_kind { 1 } else { m };
        Fixed {
            pes: sums.pes + pes,
            procs: sums.procs + pes * m,
            base: sums.base + pes * base_m,
        }
    }

    /// Iterates kind `k`'s choices; `fixed` holds kinds `0..k`, whose
    /// sums are `sums`.
    fn node(&mut self, k: usize, fixed: &mut Vec<KindUse>, base_n: usize, sums: Fixed) {
        if k + 1 == self.kinds {
            self.last_kind(fixed, base_n, sums);
            return;
        }
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
            fixed.push(KindUse {
                kind: KindId(k),
                pes,
                procs_per_pe: m,
            });
            let child = self.with_use(sums, k, pes, m);
            self.subtree(k, fixed, base_n + choice * self.suffix[k + 1], child);
            fixed.pop();
        }
    }

    /// Bounds the subtree under `fixed` (kinds `0..=k`), pruning it or
    /// recursing.
    fn subtree(&mut self, k: usize, fixed: &mut Vec<KindUse>, base_n: usize, sums: Fixed) {
        if sums.pes >= 2 {
            let bound = self.bound(fixed, k, sums, sums);
            if self.prunes(bound) {
                self.count_pruned(base_n, self.suffix[k + 1]);
                return;
            }
        }
        self.node(k + 1, fixed, base_n, sums);
    }

    /// Visits the last kind's choices under `fixed` (every other kind,
    /// summed in `sums`). Its multi-PE leaves form one run over `P` per
    /// `M`. Each run is bounded as a whole; where only part of it
    /// prunes, its prunable prefix and suffix are found by bisection
    /// ([`Searcher::run`]). Both are counted in closed form, and only
    /// the leaves between them are visited, in enumeration order, each
    /// with its own bound; past a leaf its bound discards, the rest of
    /// the run is probed again.
    ///
    /// A run's bound is below each of its leaves' bounds, and the
    /// pruning bar only rises, so every leaf a run discards would have
    /// been discarded on its own visit: the walk evaluates, prunes and
    /// improves on exactly the leaves a leaf-by-leaf walk would.
    fn last_kind(&mut self, fixed: &mut Vec<KindUse>, base_n: usize, sums: Fixed) {
        let k = self.kinds - 1;
        let (avail, max_m) = (self.space.available[k], self.space.max_m[k]);
        let node = LastNode {
            base_n,
            sums,
            first: if sums.pes == 0 { 2 } else { 1 },
            warm: self
                .warm_n
                .filter(|&w| base_n < w && w <= base_n + avail * max_m)
                .map(|w| ((w - base_n - 1) / max_m + 1, (w - base_n - 1) % max_m + 1)),
        };
        fixed.push(KindUse {
            kind: KindId(k),
            pes: 0,
            procs_per_pe: 0,
        });
        self.leaf(fixed, base_n, sums);
        // Under an all-unused prefix, `P = 1` leaves are single-PE:
        // priced, never bounded.
        for m in 1..=max_m {
            if node.first == 1 || avail == 0 || self.stopped {
                break;
            }
            self.visit(fixed, &node, 1, m);
        }
        if !self.stopped {
            self.runs.clear();
            for m in 1..=max_m {
                let (pre, suf) = self.run(fixed, &node, m);
                self.runs.push(Run {
                    pre,
                    suf,
                    tried: None,
                });
            }
            let mut pes = self.runs.iter().map(|r| r.pre + 1).min().unwrap_or(1);
            'rows: while pes < self.runs.iter().map(|r| r.suf).max().unwrap_or(0) {
                for m in 1..=max_m {
                    let run = self.runs[m - 1];
                    if run.pre < pes && pes < run.suf {
                        let pruned = self.visit(fixed, &node, pes, m);
                        if self.stopped {
                            self.unprune_after(&node, pes, m);
                            break 'rows;
                        }
                        // Past a leaf its own bound discards, the bar that
                        // discarded it may discard the rest of the run
                        // too (a convex model's totals rise past its
                        // vertex). Tried again only after an evaluation
                        // may have raised the bar.
                        let suf = run.suf;
                        if pruned && run.tried != Some(self.evaluated) && pes + 1 < suf {
                            if self.prunes_run(fixed, node.sums, m, pes + 1, suf - 1) {
                                self.pruned += self.pruned_leaves(&node, m, pes + 1, suf - 1);
                                self.runs[m - 1].suf = pes + 1;
                            } else {
                                self.runs[m - 1].tried = Some(self.evaluated);
                            }
                        }
                    }
                }
                pes += 1;
            }
        }
        fixed.pop();
    }

    /// Visits the last kind's leaf `(pes, m)` of `node`; returns whether
    /// its bound discarded it.
    fn visit(&mut self, fixed: &mut [KindUse], node: &LastNode, pes: usize, m: usize) -> bool {
        let k = self.kinds - 1;
        fixed[k] = KindUse {
            kind: KindId(k),
            pes,
            procs_per_pe: m,
        };
        let sums = self.with_use(node.sums, k, pes, m);
        let n_idx = node.base_n + (pes - 1) * self.space.max_m[k] + m;
        self.leaf(fixed, n_idx, sums)
    }

    /// Bounds run `m` of `node`, its leaves `(P, m)` for
    /// `P ∈ first..=available`, and counts its prunable prefix
    /// `first..=pre` and suffix `suf..=available` as pruned. Returns
    /// `(pre, suf)`; the leaves strictly between are left to visit.
    /// Bisection applies because a sub-range's bound is at least its
    /// range's, so whether a prefix (suffix) prunes only changes once
    /// as it grows.
    fn run(&mut self, fixed: &mut [KindUse], node: &LastNode, m: usize) -> (usize, usize) {
        let (first, avail) = (node.first, self.space.available[self.kinds - 1]);
        let whole = if first > avail {
            Bound::Unbounded
        } else {
            self.run_bound(fixed, node.sums, m, first, avail)
        };
        let (pre, suf) = if self.prunes(whole) {
            (avail, avail + 1)
        } else if matches!(whole, Bound::Unbounded) {
            // Nothing to bisect: each leaf is left to its own bound.
            (first - 1, avail + 1)
        } else {
            // `lo` prunes (the empty prefix at first), `hi` does not.
            let (mut lo, mut hi) = (first - 1, avail);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if self.prunes_run(fixed, node.sums, m, first, mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            // The smallest start whose suffix prunes; the empty suffix
            // at `avail + 1` does.
            let (mut start, mut end) = (lo + 1, avail + 1);
            while start < end {
                let mid = start + (end - start) / 2;
                if self.prunes_run(fixed, node.sums, m, mid, avail) {
                    end = mid;
                } else {
                    start = mid + 1;
                }
            }
            (lo, start)
        };
        self.pruned +=
            self.pruned_leaves(node, m, first, pre) + self.pruned_leaves(node, m, suf, avail);
        (pre, suf)
    }

    /// Whether every leaf `(P, m)` of the last kind under `fixed` with
    /// `P ∈ a..=b` can be discarded, from one bound over their process
    /// and baseline ranges ([`Searcher::run_bound`]).
    fn prunes_run(
        &mut self,
        fixed: &mut [KindUse],
        sums: Fixed,
        m: usize,
        a: usize,
        b: usize,
    ) -> bool {
        let bound = self.run_bound(fixed, sums, m, a, b);
        self.prunes(bound)
    }

    /// One bound below every leaf `(P, m)` of the last kind under
    /// `fixed` with `P ∈ a..=b`.
    fn run_bound(
        &mut self,
        fixed: &mut [KindUse],
        sums: Fixed,
        m: usize,
        a: usize,
        b: usize,
    ) -> Bound {
        let k = self.kinds - 1;
        // The fewest PEs of the range set the energy floor.
        fixed[k] = KindUse {
            kind: KindId(k),
            pes: a,
            procs_per_pe: m,
        };
        let (lo, hi) = (self.with_use(sums, k, a, m), self.with_use(sums, k, b, m));
        self.bound(fixed, k, lo, hi)
    }

    /// How many leaves `(P, m)` of `node` with `P ∈ a..=b` a pruned run
    /// discards: all but the warm start, which was evaluated up front.
    fn pruned_leaves(&self, node: &LastNode, m: usize, a: usize, b: usize) -> usize {
        if a > b {
            return 0;
        }
        let warm = node
            .warm
            .is_some_and(|(pes, wm)| wm == m && (a..=b).contains(&pes));
        b + 1 - a - usize::from(warm)
    }

    /// Takes back the run leaves counted as pruned that lie after leaf
    /// `(pes, m)` in enumeration order: a walk stopped by its budget
    /// there never reaches them.
    fn unprune_after(&mut self, node: &LastNode, pes: usize, m: usize) {
        let avail = self.space.available[self.kinds - 1];
        for m2 in 1..=self.runs.len() {
            let Run { pre, suf, .. } = self.runs[m2 - 1];
            let from = if m2 > m { pes } else { pes + 1 };
            self.pruned -= self.pruned_leaves(node, m2, from.max(node.first), pre)
                + self.pruned_leaves(node, m2, from.max(suf), avail);
        }
    }

    /// Bounds and prices the leaf `fixed` (enumeration index `n_idx`,
    /// with sums `sums`); returns whether its bound discarded it.
    fn leaf(&mut self, fixed: &[KindUse], n_idx: usize, sums: Fixed) -> bool {
        if n_idx == 0 {
            return false; // the all-unused non-candidate
        }
        if self.warm_n == Some(n_idx) {
            return false; // already evaluated up front
        }
        if sums.pes >= 2 {
            let bound = self.bound(fixed, self.kinds - 1, sums, sums);
            if self.prunes(bound) {
                self.pruned += 1;
                return true;
            }
        }
        let counts = ProcessCounts {
            total: sums.procs,
            baseline: sums.base,
            m1: self.fixed_m1(fixed),
            single_pe: sums.pes == 1,
        };
        self.evaluate(fixed, n_idx, counts);
        false
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
        // The warm start inside this subtree was already evaluated; it
        // must not also be counted as pruned.
        let warm = self
            .warm_n
            .is_some_and(|w| base_n <= w && w < base_n + count);
        self.pruned += count - usize::from(warm);
    }

    /// Whether `bound` discards its whole subtree.
    fn prunes(&self, bound: Bound) -> bool {
        match bound {
            Bound::AllError => true,
            Bound::Lb { time, energy } => self.should_prune(time, energy),
            Bound::Unbounded => false,
        }
    }

    /// Lower-bounds every completion of `fixed` (kinds `0..=k`, all
    /// multi-PE by the caller's `sums.pes ≥ 2` gate) whose kinds
    /// `0..=k` sum to between `lo` and `hi` (equal, except over a run
    /// of last-kind leaves, where `fixed` holds the run's first).
    fn bound(&mut self, fixed: &[KindUse], k: usize, lo: Fixed, hi: Fixed) -> Bound {
        let mut hits = 0usize;
        let procs_hi = hi.procs + self.free_pm_max[k + 1];
        // Raw §3.4 bound: each completion's P-T term for a fixed used
        // slot is one of the slot's totals over the reachable range.
        let mut raw_lb = f64::NEG_INFINITY;
        for u in fixed.iter().filter(|u| u.pes > 0) {
            let Some(slot) = self.tables.slot(u.kind.0, u.procs_per_pe) else {
                return Bound::AllError;
            };
            if !self.bounds_prune {
                continue; // only the all-error check can still prune
            }
            let lb = self.tables.range_min(slot, lo.procs, procs_hi, &mut hits);
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
            let base = (lo.base, hi.base + self.free_base_max[k + 1]);
            time_lb = time_lb.min(self.adjusted_lb(fixed, base, raw_lb));
        }
        Bound::Lb {
            time: time_lb,
            energy: energy_lb,
        }
    }

    /// Lower bound on `scale·raw + base_coeff·baseline` over the
    /// completions of `fixed` whose baseline process count lies in
    /// `base`; `NEG_INFINITY` when the folded coefficients cannot be
    /// bounded from below.
    fn adjusted_lb(&mut self, fixed: &[KindUse], base: (usize, usize), raw_lb: f64) -> f64 {
        if self.scale < 0.0 || self.base_coeff < 0.0 {
            return f64::NEG_INFINITY;
        }
        if self.base_coeff == 0.0 {
            return self.scale * raw_lb;
        }
        let mut hits = 0usize;
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
                    let lb = self.tables.range_min(slot, base.0, base.1, &mut hits);
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
            None => match self.incumbents.last() {
                Some(b) => t_lb > b.time,
                None => false,
            },
            // Bi-criteria: an already-evaluated point strictly
            // dominates everything in the subtree, so no completion
            // can be the time argmin *or* sit on the front.
            Some(_) => {
                let e_lb = shave(energy_lb);
                self.archive
                    .iter()
                    .any(|&(_, at, ae)| at < t_lb && ae < e_lb)
            }
        }
    }

    /// Prices the candidate `fixed` (enumeration index `n_idx − 1`, with
    /// `counts` read off it) from the tables. It is recorded by index:
    /// no configuration is built.
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
                insert_non_dominated(&mut self.archive, (n_idx - 1, t, e));
            }
        }
        let index = n_idx - 1;
        let better = match self.incumbents.last() {
            None => true,
            Some(b) => t < b.time || (t == b.time && index < b.index),
        };
        if better {
            self.incumbents.push(Incumbent {
                index,
                time: t,
                evaluations: self.evaluated,
            });
        }
    }

    /// The exact non-dominated set over every finite estimable
    /// candidate: the archive, sorted by ascending time, then energy,
    /// then enumeration index, so the output is independent of
    /// evaluation order (warm starts evaluate out of order). Only the
    /// front's configurations are built.
    fn extract_front(&mut self) -> Vec<ParetoPoint> {
        let mut front = std::mem::take(&mut self.archive);
        sort_front(&mut front);
        front
            .into_iter()
            .map(|(index, time, energy)| ParetoPoint {
                config: self.space.config_at(index),
                time,
                energy,
            })
            .collect()
    }
}

/// The exact non-dominated subset of `(config, time, energy)` points
/// under standard Pareto dominance (`q` dominates `p` when it is no
/// worse on both axes and strictly better on one); points with a `NaN`
/// coordinate are left out. Points with bit-equal `(time, energy)` are
/// all kept; output is sorted by ascending time, ties by energy, then
/// input order.
pub fn pareto_front_of(points: &[(Configuration, f64, f64)]) -> Vec<ParetoPoint> {
    let mut front = Vec::new();
    for (i, &(_, t, e)) in points.iter().enumerate() {
        if !(t.is_nan() || e.is_nan()) {
            insert_non_dominated(&mut front, (i, t, e));
        }
    }
    sort_front(&mut front);
    front
        .into_iter()
        .map(|(i, time, energy)| ParetoPoint {
            config: points[i].0.clone(),
            time,
            energy,
        })
        .collect()
}

/// Adds `point` to `front`, a non-dominated set of `(key, time,
/// energy)` points, unless a point of `front` dominates it, and drops
/// the points it dominates. A point bit-equal to one in `front` joins
/// it. Dominance is transitive, so inserting points one by one leaves
/// exactly their non-dominated subset.
fn insert_non_dominated(front: &mut Vec<(usize, f64, f64)>, point: (usize, f64, f64)) {
    let dominates =
        |a: (f64, f64), b: (f64, f64)| a.0 <= b.0 && a.1 <= b.1 && (a.0 < b.0 || a.1 < b.1);
    let (_, t, e) = point;
    if front.iter().any(|&(_, qt, qe)| dominates((qt, qe), (t, e))) {
        return;
    }
    front.retain(|&(_, qt, qe)| !dominates((t, e), (qt, qe)));
    front.push(point);
}

/// Orders a front by ascending time, then energy, then key.
fn sort_front(front: &mut [(usize, f64, f64)]) {
    front.sort_unstable_by(|a, b| {
        a.1.total_cmp(&b.1)
            .then(a.2.total_cmp(&b.2))
            .then(a.0.cmp(&b.0))
    });
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
            config: space.config_at(b.index),
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
                assert_eq!(space.config_at(last.index), best.config);
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
            assert_eq!(got.config, space.config_at(expect.index), "budget={budget}");
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

    /// Bit-equal points are all kept, in input order; dominated ones
    /// and those with a `NaN` coordinate are left out.
    #[test]
    fn pareto_front_of_keeps_ties_and_leaves_out_nan_points() {
        let cfg = |p| Configuration::p1m1_p2m2(1, 1, p, 1);
        let points = vec![
            (cfg(1), 2.0, 5.0),
            (cfg(2), f64::NAN, 1.0),
            (cfg(3), 1.0, 6.0),
            (cfg(4), 3.0, f64::NAN),
            (cfg(5), 1.0, 6.0),
            (cfg(6), 2.5, 5.0),
        ];
        let front: Vec<_> = pareto_front_of(&points)
            .into_iter()
            .map(|p| (p.config, p.time, p.energy))
            .collect();
        assert_eq!(
            front,
            vec![(cfg(3), 1.0, 6.0), (cfg(5), 1.0, 6.0), (cfg(1), 2.0, 5.0)]
        );
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

    /// A kind with no PEs has no leaves: with either kind absent, the
    /// walk covers exactly the space and returns the sweep's argmin.
    #[test]
    fn spaces_with_an_absent_kind_match_the_exhaustive_oracle() {
        let e = engine();
        let snapshot = e.snapshot();
        for available in [vec![1, 0], vec![0, 4]] {
            let space = ConfigSpace {
                available,
                max_m: vec![2, 2],
                configs: std::sync::OnceLock::new(),
            };
            for n in [400usize, 1600, 3200] {
                let brute = best_config(&snapshot, &space, n).expect("estimable");
                let report = anytime_search(&snapshot, &space, n, &AnytimeOptions::default());
                let best = report.best.expect("estimable");
                assert_eq!(best.config, brute.config, "{space:?} n={n}");
                assert_eq!(best.time.to_bits(), brute.time.to_bits());
                assert_eq!(report.evaluated + report.pruned, space.len(), "{space:?}");
            }
        }
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
