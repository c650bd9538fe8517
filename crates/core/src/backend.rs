//! The fitting seam: the boundary between *what* the estimator serves
//! (a [`ModelBank`]) and *how* the models are fit.
//!
//! [`ModelBackend`] abstracts the §3 fitting pipeline so consumers never
//! depend on the fitter itself (related work treats the fitter as a
//! design choice — factorized ML models, arXiv:2003.04287). The one
//! production fitter is [`PolyLsqBackend`], the paper's pipeline
//! verbatim: ordinary least squares on the §3.2/§3.3 polynomial forms,
//! §3.4 communication-regime binning, §3.5 composition. `ModelBank::fit`
//! delegates here, and the `backend_golden` integration test pins the
//! result against a seed capture. Tests substitute fakes through the
//! trait to inject fit failures.
//!
//! There is one fit path, [`ModelBackend::refit_groups`] over a sorted,
//! distinct slice of dirty keys, and a full [`ModelBackend::fit`] is
//! that refit with every key dirty against the empty bank. A refit does
//! only what the dirty keys require:
//!
//! * the N-T model of each dirty key, and no other: an N-T model is a
//!   pure function of its key's samples, so every clean key's model is
//!   carried over bit for bit;
//! * one factored least-squares design (`NtDesign`) per distinct list
//!   of sizes among the dirty keys, shared by every key measured at
//!   those sizes — the whole Basic campaign is one 9-size design — and
//!   kept in the [`FitMemo`] for the next refit, which factors only the
//!   size lists the last one did not fit; runs of four dirty keys on one
//!   design are solved in lockstep, bit for bit what four solves give;
//! * the measured P-T model of each `(kind, m)` group holding a dirty
//!   key, gathered key by key into buffers the [`FitMemo`] keeps, and
//!   solved on the group's factored designs from its previous fit
//!   wherever their inputs match (below);
//! * the (cheap) §3.5 composition pass, always, over the database's kept
//!   size list (`MeasurementDb::sizes`).
//!
//! The result is bit-identical to a full fit over the same database, and
//! the [`FitWork`] returned with it counts what was done.
//!
//! A design is reused only on exact inputs. An N-T design is a pure
//! function of its size list, so a stored one serves every key measured
//! at exactly those sizes, in order. Each half of a group's
//! P-T fit (`Ta`, `Tc`) solves a design whose rows are a function of the
//! reference N-T coefficients that half reads and of the `(N, P)` row
//! layout. The memo keeps each group's factored halves with those
//! inputs; a fit solves on a stored half only when both equal, bit for
//! bit, what it gathered, and otherwise factors afresh and replaces it.
//! A reused design is thus exactly the one a fresh fit would build, and
//! nothing ever has to invalidate the memo: a half whose inputs moved
//! simply misses. Streamed samples mostly move times, not sizes or the
//! reference model: in the seeded replay `tests/campaign.rs` pins, 434
//! N-T fits factor no design (the engine's initial fit factored the one
//! 9-size design they all share) and 170 P-T fits factor 48 of their
//! 340 halves.

use std::collections::BTreeSet;

use crate::compose::{compose_fitted, PAPER_TC_SCALE};
use crate::grid::KeyGrid;
use crate::measurement::{MeasurementDb, SampleKey};
use crate::ntmodel::{NtDesign, NtModel};
use crate::pipeline::{ModelBank, PipelineError};
use crate::ptmodel::{PtDesigns, PtInputs, PtModel};

/// The fitting work one fit or refit did, counted as it went: what a
/// publication cost, independent of the host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FitWork {
    /// N-T models fit: one per dirty key with at least 4 sizes.
    pub nt_fits: usize,
    /// QR factorizations of N-T designs: two (`Ta` and `Tc`) per
    /// distinct size list among the keys fit whose design the
    /// [`FitMemo`] did not hold. `0` when every list was fit before.
    pub nt_factorizations: usize,
    /// Measured P-T models fit: one per fittable group holding a dirty
    /// key.
    pub pt_fits: usize,
    /// QR factorizations of P-T designs: up to two (`Ta` and `Tc`) per
    /// P-T fit, one for each half whose design the [`FitMemo`] could not
    /// reuse. `2 · pt_fits − pt_factorizations` is what the memo saved.
    pub pt_factorizations: usize,
}

/// The factored designs a refit solves on, carried from one refit to
/// the next — the N-T designs of the size lists the last refit fit and
/// the P-T designs of every `(kind, m)` group — and the buffers the fits
/// gather into.
///
/// A stored design is reused only when the inputs its rows read equal
/// the new fit's bit for bit: an N-T design's size list, a P-T half's
/// reference coefficients and `(N, P)` layout; see the module docs. An
/// empty memo (`FitMemo::default()`) makes every fit factor afresh, and
/// any memo gives the same bank.
#[derive(Debug, Default)]
pub struct FitMemo {
    nt: Vec<NtDesign>,
    groups: KeyGrid<(usize, usize), PtDesigns>,
    /// Scratch for the N-T times the solves overwrite: one key's, or a
    /// lockstep run's side by side.
    nt_times: Vec<f64>,
    inputs: PtInputs,
}

/// A fitting strategy turning a [`MeasurementDb`] into a [`ModelBank`].
///
/// Implementations must be deterministic: `fit` twice over the same
/// database yields bit-identical banks, and `refit_groups` over a bank
/// the same backend fit yields exactly what a full `fit` of the updated
/// database would.
pub trait ModelBackend: Send + Sync {
    /// Refits from `db` the N-T model of every key in `dirty` and the
    /// measured P-T model of every `(kind, m)` group holding one,
    /// carrying every other model over from `previous`, and re-runs the
    /// §3.5 composition pass (composed models depend on their donors,
    /// so they are always rebuilt). `dirty` is sorted and distinct, and
    /// must contain every key whose samples changed since `previous` was
    /// fit; given that, the bank is bit-identical to `self.fit(db)`.
    /// Also returns the work done.
    ///
    /// `memo` carries factored designs between calls; a backend
    /// reuses a stored design only when its inputs match exactly, so
    /// the bank never depends on what the memo holds, and a call that
    /// fails leaves it valid.
    ///
    /// # Errors
    /// Same contract as [`ModelBackend::fit`].
    fn refit_groups(
        &self,
        db: &MeasurementDb,
        previous: &ModelBank,
        dirty: &[SampleKey],
        memo: &mut FitMemo,
    ) -> Result<(ModelBank, FitWork), PipelineError>;

    /// Fits every model the database supports: a `refit_groups` of
    /// every key over the empty bank, with an empty memo.
    ///
    /// # Errors
    /// [`PipelineError::Fit`] if a well-posed fit fails numerically;
    /// [`PipelineError::NoDonor`] if §3.5 composition is impossible.
    fn fit(&self, db: &MeasurementDb) -> Result<ModelBank, PipelineError> {
        full_refit(self, db, &mut FitMemo::default()).map(|(bank, _)| bank)
    }
}

/// The full fit through the one refit path: every key of `db` is dirty
/// against the empty bank (the fit of an empty database). `memo` ends
/// up holding every measured group's designs.
///
/// # Errors
/// See [`ModelBackend::fit`].
pub(crate) fn full_refit<B: ModelBackend + ?Sized>(
    backend: &B,
    db: &MeasurementDb,
    memo: &mut FitMemo,
) -> Result<(ModelBank, FitWork), PipelineError> {
    // Grid iteration is key order: sorted and distinct.
    let every: Vec<SampleKey> = db.keys().copied().collect();
    backend.refit_groups(db, &ModelBank::default(), &every, memo)
}

/// The §3.5 fallback composition used when a group is quarantined: its
/// replacement P-T model is composed from a *measured* donor group of
/// another kind at the same multiplicity, exactly like
/// `compose_unfittable` (with the paper's communication scale) — but
/// the donor must itself be trustworthy:
///
/// * not in `exclude` (the currently quarantined set), and
/// * not composed (`bank.composed_groups`): a model composed *from* the
///   quarantined group would launder the mistrusted data back in.
///
/// # Errors
/// [`PipelineError::NoDonor`] when no such donor (or the N-T scale
/// curves the Ta fit needs) exists.
pub(crate) fn compose_fallback(
    db: &MeasurementDb,
    bank: &ModelBank,
    group: (usize, usize),
    exclude: &BTreeSet<(usize, usize)>,
) -> Result<PtModel, PipelineError> {
    compose_from_donor(&bank.nt, &bank.pt, group, db.sizes(), |donor| {
        !exclude.contains(&donor) && !bank.composed_groups.contains(&donor)
    })
}

/// §3.5 composition of `group`'s P-T model from a donor: the first group
/// in `pt` of another kind at the same multiplicity that `admit` accepts.
/// The Ta scale comes from the single-PE N-T curves of both kinds at
/// this `m`, falling back to their `m = 1` curves.
///
/// # Errors
/// [`PipelineError::NoDonor`] when no donor or no scale curve exists.
fn compose_from_donor(
    nt: &KeyGrid<SampleKey, NtModel>,
    pt: &KeyGrid<(usize, usize), PtModel>,
    group: (usize, usize),
    construction_ns: &[usize],
    admit: impl Fn((usize, usize)) -> bool,
) -> Result<PtModel, PipelineError> {
    let (kind, m) = group;
    let no_donor = || PipelineError::NoDonor { kind, m };
    let (donor_kind, donor_pt) = pt
        .iter()
        .find(|(&(dk, dm), _)| dk != kind && dm == m && admit((dk, dm)))
        .map(|(&(dk, _), model)| (dk, model))
        .ok_or_else(no_donor)?;
    let single_pe = |kind: usize| {
        nt.get(&SampleKey { kind, pes: 1, m })
            .or_else(|| nt.get(&SampleKey { kind, pes: 1, m: 1 }))
    };
    let (Some(target_nt), Some(donor_nt)) = (single_pe(kind), single_pe(donor_kind)) else {
        return Err(no_donor());
    };
    Ok(compose_fitted(
        donor_pt,
        target_nt,
        donor_nt,
        construction_ns,
        PAPER_TC_SCALE,
    ))
}

/// The paper's §3 pipeline: ordinary least squares on the polynomial
/// forms, with the paper's §3.5 communication scale
/// (`PAPER_TC_SCALE`, 0.85).
#[derive(Clone, Copy, Debug, Default)]
pub struct PolyLsqBackend;

impl PolyLsqBackend {
    /// The backend with the paper's composition constants.
    pub fn paper() -> Self {
        PolyLsqBackend
    }
}

impl ModelBackend for PolyLsqBackend {
    fn refit_groups(
        &self,
        db: &MeasurementDb,
        previous: &ModelBank,
        dirty: &[SampleKey],
        memo: &mut FitMemo,
    ) -> Result<(ModelBank, FitWork), PipelineError> {
        refit_bank(db, previous, dirty, memo)
    }
}

/// Fits one `(kind, m)` group's measured P-T model on the group's
/// designs in `memo`, gathering into the memo's buffers. Returns the
/// model and the number of designs factored; `Ok(None)` means the group
/// is unfittable (too few distinct PE counts, or no reference N-T model)
/// and must go through §3.5 composition.
fn fit_pt_group(
    db: &MeasurementDb,
    nt: &KeyGrid<SampleKey, NtModel>,
    group: (usize, usize),
    keys: &[SampleKey],
    memo: &mut FitMemo,
) -> Result<Option<(PtModel, usize)>, PipelineError> {
    // The keys of one group differ only in `pes`: one distinct P each.
    if keys.len() < 2 {
        return Ok(None);
    }
    // Reference N-T model: the *largest* measured P of the group, its
    // last key. The smallest (often P = 1) has no inter-PE
    // communication at all, so its Tc curve is a degenerate basis for
    // the P-T communication model.
    let reference = match nt.get(&keys[keys.len() - 1]) {
        Some(r) => *r,
        None => return Ok(None),
    };
    // §3.4 binning by communication regime: the Tc model is fit only on
    // samples with real inter-node communication — the single-node
    // trials (P = 1, or both processes on one dual node) sit in a
    // different regime whose near-zero Tc would distort the P-slope of
    // the fit. That regime holds one P per key with a multi-node
    // sample; with fewer than two, Tc is fit on every sample, like Ta.
    // Both halves are gathered key by key, each in key then N order.
    let binned = keys
        .iter()
        .filter(|k| db.samples(k).iter().any(|s| s.multi_node))
        .nth(1)
        .is_some();
    let inputs = &mut memo.inputs;
    inputs.clear();
    // A re-factored half takes its layout buffer over, so the next group
    // may gather into an empty one: size every buffer once for the
    // group's rows (the binned `Tc` half gathers at most that many).
    let rows: usize = keys.iter().map(|k| db.samples(k).len()).sum();
    inputs.ta_layout.reserve(rows);
    inputs.ta.reserve(rows);
    inputs.tc_layout.reserve(rows);
    inputs.tc.reserve(rows);
    for k in keys {
        let p = k.total_p();
        let samples = db.samples(k);
        inputs.ta_layout.extend(samples.iter().map(|s| (s.n, p)));
        inputs.ta.extend(samples.iter().map(|s| s.ta));
        if binned {
            let regime = || samples.iter().filter(|s| s.multi_node);
            inputs.tc_layout.extend(regime().map(|s| (s.n, p)));
            inputs.tc.extend(regime().map(|s| s.tc));
        } else {
            inputs.tc_layout.extend(samples.iter().map(|s| (s.n, p)));
            inputs.tc.extend(samples.iter().map(|s| s.tc));
        }
    }
    let designs = memo.groups.get_or_insert_with(group, PtDesigns::default);
    Ok(Some(designs.fit(reference, inputs)?))
}

/// Composition output: the composed `(kind, m)` groups, then the kinds
/// they span.
type ComposedLists = (Vec<(usize, usize)>, Vec<usize>);

/// The §3.5 composition pass: derives a P-T model for every group in
/// `unfittable` (ascending order) from a donor kind's model at the same
/// multiplicity, inserting into `pt` as it goes — a group composed early
/// can donate to a later one. Returns the composed group and kind lists.
fn compose_unfittable(
    nt: &KeyGrid<SampleKey, NtModel>,
    pt: &mut KeyGrid<(usize, usize), PtModel>,
    unfittable: &[(usize, usize)],
    construction_ns: &[usize],
) -> Result<ComposedLists, PipelineError> {
    let mut composed_groups = Vec::new();
    let mut composed_kinds = Vec::new();
    for &(kind, m) in unfittable {
        // A group composed earlier in this pass can donate.
        let composed = compose_from_donor(nt, pt, (kind, m), construction_ns, |_| true)?;
        pt.insert((kind, m), composed);
        composed_groups.push((kind, m));
        if !composed_kinds.contains(&kind) {
            composed_kinds.push(kind);
        }
    }
    Ok((composed_groups, composed_kinds))
}

/// Dirty keys a refit solves in lockstep on one shared N-T design
/// (`NtDesign::fit_many`); a shorter run goes key by key.
const LANES: usize = 4;

/// The one fit path: refit the N-T models of the dirty keys and the
/// measured P-T models of their groups from `db`, carry every other
/// model over from `previous`, and re-run the composition pass from
/// scratch (composed models depend on donors and N-T scale curves in
/// *other* groups, so reuse would be unsound). `NtModel::fit` is a pure
/// function of a key's samples, so a carried N-T model is bitwise what
/// its refit would give. Dirty keys measured at the same sizes share one
/// `NtDesign`, found in `memo` when the last refit fit that size list,
/// and each run of [`LANES`] consecutive dirty keys on one design is
/// solved in lockstep, bit for bit what key-by-key solves give. Each
/// refit group solves on its P-T designs in `memo`; see
/// `ModelBank::fit` for the model-selection rules. The bank's grids and
/// the memo's are sized to the database's boxes first, so no insert
/// regrows them.
fn refit_bank(
    db: &MeasurementDb,
    previous: &ModelBank,
    dirty: &[SampleKey],
    memo: &mut FitMemo,
) -> Result<(ModelBank, FitWork), PipelineError> {
    debug_assert!(
        dirty.windows(2).all(|w| w[0] < w[1]),
        "dirty keys must be sorted and distinct"
    );
    let mut work = FitWork::default();
    let mut nt = previous.nt.clone();
    nt.cover(db.key_extent());
    // The designs this call uses are moved to the front of the memo's
    // list, `used` of them; the rest are dropped once every fit is done,
    // so the memo holds the size lists of the last refit only.
    let mut used = 0;
    let mut rest = dirty;
    while let Some(key) = rest.first() {
        let samples = db.samples(key);
        if samples.len() < 4 {
            nt.remove(key);
            rest = &rest[1..];
            continue;
        }
        let at = match memo.nt.iter().position(|d| d.matches(samples)) {
            Some(at) => at,
            None => {
                memo.nt.push(NtDesign::new(samples)?);
                work.nt_factorizations += 2;
                memo.nt.len() - 1
            }
        };
        let at = if at >= used {
            memo.nt.swap(at, used);
            used += 1;
            used - 1
        } else {
            at
        };
        let design = &memo.nt[at];
        // This key and the next `LANES - 1`, when all are measured at
        // its sizes, are solved in lockstep. A fit error belongs to the
        // design, so the run raises the one this key alone would.
        let run = rest
            .first_chunk::<LANES>()
            .filter(|run| run[1..].iter().all(|k| design.matches(db.samples(k))));
        if let Some(run) = run {
            let fits = design.fit_many(run.map(|k| db.samples(&k)), &mut memo.nt_times)?;
            for (k, fit) in run.iter().zip(fits) {
                nt.insert(*k, fit);
            }
            work.nt_fits += LANES;
            rest = &rest[LANES..];
        } else {
            nt.insert(*key, design.fit(samples, &mut memo.nt_times)?);
            work.nt_fits += 1;
            rest = &rest[1..];
        }
    }
    memo.nt.truncate(used);
    // Measured P-T models: refit every group holding a dirty key, carry
    // the others over. A clean group that was *composed* before stays on
    // the composition path — its donors may have moved.
    let groups = db.groups();
    memo.groups.cover(groups.extent());
    let mut pt = KeyGrid::new();
    pt.cover(groups.extent());
    let mut unfittable: Vec<(usize, usize)> = Vec::new();
    for (&group, keys) in groups {
        if keys.iter().any(|k| dirty.binary_search(k).is_ok()) {
            match fit_pt_group(db, &nt, group, keys, memo)? {
                Some((model, factored)) => {
                    pt.insert(group, model);
                    work.pt_fits += 1;
                    work.pt_factorizations += factored;
                }
                None => unfittable.push(group),
            }
        } else if let (Some(model), false) = (
            previous.pt.get(&group),
            previous.composed_groups.contains(&group),
        ) {
            pt.insert(group, *model);
        } else {
            unfittable.push(group);
        }
    }
    let (composed_groups, composed_kinds) =
        compose_unfittable(&nt, &mut pt, &unfittable, db.sizes())?;
    let bank = ModelBank {
        nt,
        pt,
        composed_kinds,
        composed_groups,
    };
    Ok((bank, work))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::measurement::Sample;

    /// Two kinds: kind 0 is a single fast PE (every group unfittable →
    /// composed), kind 1 spans three PE counts (measured P-T models).
    fn synth_db() -> MeasurementDb {
        let sizes = [400usize, 800, 1600, 2400, 3200];
        let mut db = MeasurementDb::new();
        for kind in 0..2usize {
            let pes_list: &[usize] = if kind == 0 { &[1] } else { &[1, 2, 4] };
            for &pes in pes_list {
                for m in 1..=2usize {
                    for &n in &sizes {
                        db.record(SampleKey { kind, pes, m }, synth_sample(kind, pes, m, n));
                    }
                }
            }
        }
        db
    }

    fn synth_sample(kind: usize, pes: usize, m: usize, n: usize) -> Sample {
        let x = n as f64;
        let p = (pes * m) as f64;
        let speed = if kind == 0 { 2.0 } else { 1.0 };
        let ta = (2e-9 * x * x * x / p + 1e-5 * x) / speed + 0.05;
        let tc = 1e-7 * x * x * (0.3 * p + 0.7 / p) + 0.01;
        Sample {
            n,
            ta,
            tc,
            wall: ta + tc,
            multi_node: pes > 1,
        }
    }

    /// Asserts two banks hold the same models, bit for bit, and the same
    /// composed lists.
    pub(crate) fn assert_banks_bit_equal(a: &ModelBank, b: &ModelBank) {
        assert_eq!(a.nt.len(), b.nt.len());
        for (key, ma) in &a.nt {
            let mb = b.nt.get(key).expect("key in both banks");
            for i in 0..4 {
                assert_eq!(ma.ka[i].to_bits(), mb.ka[i].to_bits(), "{key:?} ka[{i}]");
            }
            for i in 0..3 {
                assert_eq!(ma.kc[i].to_bits(), mb.kc[i].to_bits(), "{key:?} kc[{i}]");
            }
        }
        assert_eq!(a.pt.len(), b.pt.len());
        for (key, ma) in &a.pt {
            let mb = b.pt.get(key).expect("group in both banks");
            for i in 0..2 {
                assert_eq!(ma.ka[i].to_bits(), mb.ka[i].to_bits(), "{key:?} ka[{i}]");
            }
            for i in 0..3 {
                assert_eq!(ma.kc[i].to_bits(), mb.kc[i].to_bits(), "{key:?} kc[{i}]");
            }
        }
        assert_eq!(a.composed_kinds, b.composed_kinds);
        assert_eq!(a.composed_groups, b.composed_groups);
    }

    #[test]
    fn poly_backend_matches_legacy_fit() {
        let db = synth_db();
        let via_backend = PolyLsqBackend::paper().fit(&db).unwrap();
        let via_legacy = ModelBank::fit(&db).unwrap();
        assert_banks_bit_equal(&via_backend, &via_legacy);
    }

    #[test]
    fn refit_of_measured_group_matches_full_fit_bit_for_bit() {
        let backend = PolyLsqBackend::paper();
        let mut db = synth_db();
        let mut memo = FitMemo::default();
        let (old_bank, _) = full_refit(&backend, &db, &mut memo).unwrap();
        // Perturb one sample and add a brand-new size to the group.
        let key = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        let mut s = db.samples(&key)[0];
        s.ta *= 1.1;
        db.upsert(key, s);
        db.upsert(key, synth_sample(1, 2, 1, 4000));
        let (incremental, work) = backend
            .refit_groups(&db, &old_bank, &[key], &mut memo)
            .unwrap();
        let full = backend.fit(&db).unwrap();
        assert_banks_bit_equal(&incremental, &full);
        // One key's N-T model on its own design, and its group's P-T
        // model, whose layout gained a size: nothing else was refit.
        assert_eq!(
            work,
            FitWork {
                nt_fits: 1,
                nt_factorizations: 2,
                pt_fits: 1,
                pt_factorizations: 2,
            }
        );
        // The untouched measured group (1, 2) was carried over, not
        // refit: still bitwise equal to the old bank's model.
        assert_eq!(
            incremental.pt[&(1, 2)].ka[0].to_bits(),
            old_bank.pt[&(1, 2)].ka[0].to_bits()
        );
    }

    /// Refits of 1, 3, 4, 5 and all 54 dirty keys of a Basic-shaped
    /// campaign, every key on one 9-size design, so the dirty keys run
    /// through the lockstep solve in fours with 0–3 left over: each bank
    /// is bit for bit a full fit of the changed database, and no N-T
    /// design is factored again. A last refit whose dirty keys straddle
    /// two size lists breaks the run and matches too.
    #[test]
    fn lockstep_refits_of_any_dirty_count_match_a_full_fit() {
        let backend = PolyLsqBackend::paper();
        let plan = crate::plan::MeasurementPlan::basic();
        let mut db = MeasurementDb::new();
        for point in &plan.construction {
            let k = point.key;
            db.record(k, synth_sample(k.kind, k.pes, k.m, point.n));
        }
        let keys: Vec<SampleKey> = db.keys().copied().collect();
        assert_eq!(keys.len(), 54);
        let mut memo = FitMemo::default();
        let (mut bank, _) = full_refit(&backend, &db, &mut memo).unwrap();
        for (round, count) in [1usize, 3, 4, 5, 54].into_iter().enumerate() {
            let step = keys.len() / count;
            let dirty: Vec<SampleKey> = keys.iter().step_by(step).take(count).copied().collect();
            for (i, k) in dirty.iter().enumerate() {
                for mut s in db.samples(k).to_vec() {
                    s.ta *= 1.0 + 0.01 * (round + i + 1) as f64;
                    s.tc *= 1.0 - 0.005 * (i + 1) as f64;
                    db.upsert(*k, s);
                }
            }
            let (refit, work) = backend.refit_groups(&db, &bank, &dirty, &mut memo).unwrap();
            assert_banks_bit_equal(&refit, &backend.fit(&db).unwrap());
            assert_eq!(
                (work.nt_fits, work.nt_factorizations),
                (count, 0),
                "{count}"
            );
            bank = refit;
        }
        let dirty = [keys[10], keys[11], keys[12], keys[13], keys[14]];
        db.upsert(keys[12], synth_sample(1, 1, 1, 12_000));
        for k in &dirty {
            let mut s = db.samples(k)[0];
            s.ta *= 0.9;
            db.upsert(*k, s);
        }
        let (refit, work) = backend.refit_groups(&db, &bank, &dirty, &mut memo).unwrap();
        assert_banks_bit_equal(&refit, &backend.fit(&db).unwrap());
        assert_eq!((work.nt_fits, work.nt_factorizations), (5, 2));
    }

    #[test]
    fn refit_of_composed_groups_donor_recomposes_it() {
        let backend = PolyLsqBackend::paper();
        let mut db = synth_db();
        let mut memo = FitMemo::default();
        let (old_bank, _) = full_refit(&backend, &db, &mut memo).unwrap();
        assert_eq!(old_bank.composed_groups, vec![(0, 1), (0, 2)]);
        // Dirty the donor group (1, 1): the composed (0, 1) model must
        // move with it even though (0, 1) itself is clean.
        let key = SampleKey {
            kind: 1,
            pes: 4,
            m: 1,
        };
        let mut s = db.samples(&key)[2];
        s.tc *= 1.25;
        db.upsert(key, s);
        let (incremental, _) = backend
            .refit_groups(&db, &old_bank, &[key], &mut memo)
            .unwrap();
        let full = backend.fit(&db).unwrap();
        assert_banks_bit_equal(&incremental, &full);
        assert_ne!(
            incremental.pt[&(0, 1)].kc[0].to_bits(),
            old_bank.pt[&(0, 1)].kc[0].to_bits(),
            "composed model must track its donor"
        );
    }

    #[test]
    fn new_group_appears_through_refit() {
        let backend = PolyLsqBackend::paper();
        let mut db = synth_db();
        let mut memo = FitMemo::default();
        let (old_bank, _) = full_refit(&backend, &db, &mut memo).unwrap();
        // A whole new multiplicity group for kind 1, spanning three PE
        // counts so it gets a measured P-T model of its own.
        for pes in [1usize, 2, 4] {
            for n in [400usize, 800, 1600, 2400, 3200] {
                db.upsert(SampleKey { kind: 1, pes, m: 3 }, synth_sample(1, pes, 3, n));
            }
        }
        let dirty: Vec<SampleKey> = [1usize, 2, 4]
            .into_iter()
            .map(|pes| SampleKey { kind: 1, pes, m: 3 })
            .collect();
        let (incremental, work) = backend
            .refit_groups(&db, &old_bank, &dirty, &mut memo)
            .unwrap();
        // Three keys at the five sizes every key shares: the design the
        // full fit factored serves them; the new group's P-T designs are
        // factored for the first time.
        assert_eq!(
            work,
            FitWork {
                nt_fits: 3,
                nt_factorizations: 0,
                pt_fits: 1,
                pt_factorizations: 2,
            }
        );
        let full = backend.fit(&db).unwrap();
        assert_banks_bit_equal(&incremental, &full);
        assert!(incremental.pt.contains_key(&(1, 3)));
        assert!(incremental.nt.contains_key(&SampleKey {
            kind: 1,
            pes: 1,
            m: 3,
        }));
    }

    /// An N-T design serves only keys at exactly its size list, and the
    /// memo keeps the lists the last refit used: a new list of the same
    /// length is factored, and so is a list an earlier refit dropped.
    #[test]
    fn nt_designs_are_reused_only_on_their_exact_size_list() {
        let backend = PolyLsqBackend::paper();
        let mut db = synth_db();
        let mut memo = FitMemo::default();
        let (mut bank, _) = full_refit(&backend, &db, &mut memo).unwrap();
        let key = |pes| SampleKey { kind: 1, pes, m: 1 };
        let mut refit = |db: &MeasurementDb, dirty: &[SampleKey]| {
            let (next, work) = backend.refit_groups(db, &bank, dirty, &mut memo).unwrap();
            assert_banks_bit_equal(&next, &backend.fit(db).unwrap());
            bank = next;
            work.nt_factorizations
        };
        scale(&mut db, key(1), 800, 1.1, 1.0);
        assert_eq!(refit(&db, &[key(1)]), 0, "the full fit's five sizes");
        db.upsert(key(2), synth_sample(1, 2, 1, 4000));
        assert_eq!(refit(&db, &[key(2)]), 2, "six sizes ending at 4000");
        db.upsert(key(4), synth_sample(1, 4, 1, 4800));
        assert_eq!(refit(&db, &[key(4)]), 2, "six sizes ending at 4800");
        scale(&mut db, key(1), 400, 0.9, 1.0);
        assert_eq!(refit(&db, &[key(1)]), 2, "five sizes, dropped since");
    }

    /// Upserts `key`'s sample at `n` with `ta`/`tc` scaled.
    fn scale(db: &mut MeasurementDb, key: SampleKey, n: usize, ta: f64, tc: f64) {
        let mut s = *db
            .samples(&key)
            .iter()
            .find(|s| s.n == n)
            .expect("measured");
        s.ta *= ta;
        s.tc *= tc;
        db.upsert(key, s);
    }

    /// Refits `dirty` over `bank` on `memo`, requires the bank a fresh
    /// full fit gives, bit for bit, and returns it with the P-T designs
    /// the refit factored.
    fn refit_checked(
        db: &MeasurementDb,
        bank: &ModelBank,
        dirty: &[SampleKey],
        memo: &mut FitMemo,
    ) -> (ModelBank, usize) {
        let (refit, work) = PolyLsqBackend::paper()
            .refit_groups(db, bank, dirty, memo)
            .unwrap();
        assert_banks_bit_equal(&refit, &PolyLsqBackend::paper().fit(db).unwrap());
        (refit, work.pt_factorizations)
    }

    /// The reference key of a group goes dirty: the half whose
    /// reference coefficients moved is re-factored, the other reused.
    #[test]
    fn memo_refactors_exactly_the_halves_whose_reference_moved() {
        let mut db = synth_db();
        let mut memo = FitMemo::default();
        let (bank, work) = full_refit(&PolyLsqBackend::paper(), &db, &mut memo).unwrap();
        // Groups (1, 1) and (1, 2), two halves each.
        assert_eq!((work.pt_fits, work.pt_factorizations), (2, 4));
        let reference = SampleKey {
            kind: 1,
            pes: 4,
            m: 1,
        };
        let other = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        // Another key's times move: both designs are reused.
        scale(&mut db, other, 800, 1.1, 0.9);
        let (bank, factored) = refit_checked(&db, &bank, &[other], &mut memo);
        assert_eq!(factored, 0);
        // The reference's Ta moves: `ka` moves, `kc` keeps its bits, so
        // only Ta is re-factored.
        scale(&mut db, reference, 1600, 1.1, 1.0);
        let (next, factored) = refit_checked(&db, &bank, &[reference], &mut memo);
        assert_eq!(next.nt[&reference].kc, bank.nt[&reference].kc);
        assert_ne!(next.nt[&reference].ka, bank.nt[&reference].ka);
        assert_eq!(factored, 1);
        // The reference's Tc moves: only Tc is re-factored.
        scale(&mut db, reference, 2400, 1.0, 1.2);
        let (bank, factored) = refit_checked(&db, &next, &[reference], &mut memo);
        assert_eq!(bank.nt[&reference].ka, next.nt[&reference].ka);
        assert_eq!(factored, 1);
        // Both move: both halves.
        scale(&mut db, reference, 400, 0.9, 1.1);
        let (_, factored) = refit_checked(&db, &bank, &[reference], &mut memo);
        assert_eq!(factored, 2);
    }

    /// A key of the group gains a size, or a new key joins the group:
    /// the layout moved, so both halves are re-factored.
    #[test]
    fn memo_refactors_both_halves_when_the_layout_moves() {
        let mut db = synth_db();
        let mut memo = FitMemo::default();
        let (bank, _) = full_refit(&PolyLsqBackend::paper(), &db, &mut memo).unwrap();
        let other = SampleKey {
            kind: 1,
            pes: 2,
            m: 1,
        };
        db.upsert(other, synth_sample(1, 2, 1, 4000));
        let (bank, factored) = refit_checked(&db, &bank, &[other], &mut memo);
        assert_eq!(factored, 2);
        let joined = SampleKey {
            kind: 1,
            pes: 3,
            m: 1,
        };
        for n in [400usize, 800, 1600, 2400, 3200] {
            db.upsert(joined, synth_sample(1, 3, 1, n));
        }
        let (_, factored) = refit_checked(&db, &bank, &[joined], &mut memo);
        assert_eq!(factored, 2);
    }

    /// A group whose Tc regime holds a single P fits Tc on every sample,
    /// the same rows as Ta. Reuse there gives the fresh fit's
    /// coefficients, and a rank-deficient Tc design stays stored and
    /// gives the fresh fit's error again; a failed refit leaves a memo
    /// that later refits can still trust.
    #[test]
    fn memo_in_the_single_p_tc_regime_matches_fresh_fits_and_errors() {
        let sizes = [400usize, 800, 1600, 2400, 3200];
        let key = |pes| SampleKey { kind: 1, pes, m: 1 };
        let mut db = MeasurementDb::new();
        for pes in [1usize, 2] {
            for n in sizes {
                db.record(key(pes), synth_sample(1, pes, 1, n));
            }
        }
        let mut memo = FitMemo::default();
        let (bank, work) = full_refit(&PolyLsqBackend::paper(), &db, &mut memo).unwrap();
        assert_eq!((work.pt_fits, work.pt_factorizations), (1, 2));
        scale(&mut db, key(1), 800, 1.1, 1.0);
        let (bank, factored) = refit_checked(&db, &bank, &[key(1)], &mut memo);
        assert_eq!(factored, 0);

        // A reference with no communication at all: `kc` is zero, so
        // the Tc rows `[P·0, 0/P, 1]` are collinear.
        let measured = db.samples(&key(2)).to_vec();
        for s in &measured {
            db.upsert(key(2), Sample { tc: 0.0, ..*s });
        }
        let fresh = PolyLsqBackend::paper().fit(&db).unwrap_err();
        assert!(matches!(
            fresh,
            PipelineError::Fit(etm_lsq::LsqError::RankDeficient { .. })
        ));
        let first = PolyLsqBackend::paper()
            .refit_groups(&db, &bank, &[key(2)], &mut memo)
            .unwrap_err();
        assert_eq!(first, fresh);
        let kc = NtModel::fit(db.samples(&key(2))).unwrap().kc;
        assert_eq!(kc, [0.0; 3]);
        assert_eq!(memo.groups[&(1, 1)].tc_coeffs(), Some(kc.map(f64::to_bits)));
        // Solved again on the stored design: the same error.
        scale(&mut db, key(1), 1600, 0.9, 1.0);
        let again = PolyLsqBackend::paper()
            .refit_groups(&db, &bank, &[key(1), key(2)], &mut memo)
            .unwrap_err();
        assert_eq!(again, fresh);
        // Restored, the group fits again as a fresh fit does.
        for s in measured {
            db.upsert(key(2), s);
        }
        let (_, factored) = refit_checked(&db, &bank, &[key(1), key(2)], &mut memo);
        assert_eq!(factored, 1);
    }
}
