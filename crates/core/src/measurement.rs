//! The measurement database: `(kind, P_pes, Mᵢ, N) → (Ta, Tc)` samples
//! from (simulated) HPL trials, plus the bookkeeping the paper reports in
//! Tables 3 and 6 (how long the measurement campaign itself took).

use std::collections::BTreeMap;
use std::sync::Arc;

use etm_cluster::KindId;

use crate::grid::KeyGrid;

/// Identifies a measured configuration of a *homogeneous* trial: `pes`
/// PEs of `kind`, each running `m` processes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SampleKey {
    /// PE kind index.
    pub kind: usize,
    /// PEs used (the paper's `Pᵢ`).
    pub pes: usize,
    /// Processes per PE (the paper's `Mᵢ`).
    pub m: usize,
}

impl SampleKey {
    /// Creates a key.
    pub fn new(kind: KindId, pes: usize, m: usize) -> Self {
        SampleKey {
            kind: kind.0,
            pes,
            m,
        }
    }

    /// Total process count `P = pes · m` of the homogeneous trial.
    pub fn total_p(&self) -> usize {
        self.pes * self.m
    }

    /// The kind as a typed id.
    pub fn kind_id(&self) -> KindId {
        KindId(self.kind)
    }
}

/// One measured trial.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Sample {
    /// Matrix order N.
    pub n: usize,
    /// Measured computation time of the kind's slowest process (s).
    pub ta: f64,
    /// Measured communication time of the kind's slowest process (s).
    pub tc: f64,
    /// End-to-end execution time of the trial (s) — what Tables 3/6 sum.
    pub wall: f64,
    /// Whether the trial spanned more than one node (inter-node
    /// communication present). §3.4 binning: the P-T communication model
    /// is fit only on samples from this regime.
    pub multi_node: bool,
}

impl Sample {
    /// True when every measured time is finite. Non-finite samples are
    /// rejected at ingest: a NaN or infinite `ta`/`tc`/`wall` silently
    /// poisons the least-squares fit.
    pub(crate) fn is_finite(&self) -> bool {
        self.ta.is_finite() && self.tc.is_finite() && self.wall.is_finite()
    }

    /// True when both samples hold the same bits in every field. Unlike
    /// `==`, this tells `0.0` from `-0.0` — the fit sees the bits, so
    /// change detection must too.
    pub(crate) fn same_bits(&self, other: &Sample) -> bool {
        self.n == other.n
            && self.ta.to_bits() == other.ta.to_bits()
            && self.tc.to_bits() == other.tc.to_bits()
            && self.wall.to_bits() == other.wall.to_bits()
            && self.multi_node == other.multi_node
    }
}

/// True when two sample lists match element for element in
/// [`Sample::same_bits`].
#[cfg(test)]
pub(crate) fn same_bits(a: &[Sample], b: &[Sample]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_bits(y))
}

/// The `(kind, m)` groups of `keys`, ascending and distinct.
pub(crate) fn groups_of_keys(keys: &[SampleKey]) -> Vec<(usize, usize)> {
    let mut groups: Vec<(usize, usize)> = keys.iter().map(|k| (k.kind, k.m)).collect();
    groups.sort_unstable();
    groups.dedup();
    groups
}

/// One `(key, N)` slot of a [`MeasurementDb`], as
/// [`MeasurementDb::changed_slot`] found it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    /// The slot's position among the key's samples (ascending N).
    at: usize,
    /// The sample the slot holds; `None` when the key has none at N.
    pub(crate) held: Option<Sample>,
}

/// All measurements of one campaign.
///
/// The distinct problem sizes and the `(kind, m)` groups are kept
/// beside the samples, updated as samples arrive. Samples and groups
/// live in [`KeyGrid`]s, so a lookup by key is an index computation.
///
/// The store is copy-on-write. Each key's sample list, the size list
/// and the group index sit behind `Arc`s, so a clone is one grid of
/// pointers plus reference-count bumps, and clones share every list
/// until one of them writes it. A replaced sample copies its key's list
/// only while another clone still shares it (`Arc::make_mut`), and a new
/// size or key copies the size list or group index only then too; a
/// sample at a new size builds its key's longer list afresh. A clone
/// never sees another's writes.
#[derive(Clone, Debug, Default)]
pub struct MeasurementDb {
    samples: KeyGrid<SampleKey, Arc<[Sample]>>,
    /// Every problem size held by any sample, ascending and distinct.
    sizes: Arc<Vec<usize>>,
    /// Every key by `(kind, m)` group, ascending by `pes` within one.
    groups: Arc<KeyGrid<(usize, usize), Vec<SampleKey>>>,
}

impl MeasurementDb {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a trial.
    pub fn record(&mut self, key: SampleKey, sample: Sample) {
        debug_assert!(
            self.held(&key, sample.n).is_none(),
            "duplicate measurement for {key:?} at N={}",
            sample.n
        );
        self.upsert(key, sample);
    }

    /// Records a trial, replacing any existing sample of the same key
    /// and problem size (streaming ingestion re-measures configurations;
    /// [`MeasurementDb::record`] asserts that never happens). Returns
    /// whether the stored slot changed: an insert, or a replacement
    /// that differs in any bit (`Sample::same_bits`).
    pub fn upsert(&mut self, key: SampleKey, sample: Sample) -> bool {
        match self.changed_slot(&key, &sample) {
            Some(slot) => {
                self.write(key, slot, sample);
                true
            }
            None => false,
        }
    }

    /// The sample `key` holds at size `n`, if any.
    pub(crate) fn held(&self, key: &SampleKey, n: usize) -> Option<&Sample> {
        self.samples(key).iter().find(|s| s.n == n)
    }

    /// The slot an upsert of `sample` under `key` would change: where the
    /// key's sample at `sample.n` lives, or where an insert would put
    /// it, and what it holds now. `None` when it already holds
    /// `sample`'s bits, so the upsert would change nothing.
    pub(crate) fn changed_slot(&self, key: &SampleKey, sample: &Sample) -> Option<Slot> {
        let samples = self.samples(key);
        let at = samples
            .iter()
            .position(|s| s.n >= sample.n)
            .unwrap_or(samples.len());
        match samples.get(at).filter(|s| s.n == sample.n) {
            Some(held) if held.same_bits(sample) => None,
            held => Some(Slot {
                at,
                held: held.copied(),
            }),
        }
    }

    /// Writes `sample` into `slot`, which
    /// [`MeasurementDb::changed_slot`] found for it under `key` with no
    /// write in between. A replacement copies the key's list first if
    /// another clone shares it.
    pub(crate) fn write(&mut self, key: SampleKey, slot: Slot, sample: Sample) {
        let entry = self.samples.get_or_insert_with(key, Arc::default);
        if slot.held.is_some() {
            Arc::make_mut(entry)[slot.at] = sample;
        } else {
            // An insert builds the longer list afresh: one allocation,
            // whether or not another clone shares the old one.
            let (before, after) = entry.split_at(slot.at);
            *entry = before
                .iter()
                .chain([&sample])
                .chain(after)
                .copied()
                .collect();
            let first = entry.len() == 1;
            self.index(key, sample.n, first);
        }
    }

    /// Keeps the size list and the group index current after `key`
    /// gained a sample at size `n` (`first`: its first sample). Either
    /// is copied only when it changes while another clone shares it.
    fn index(&mut self, key: SampleKey, n: usize, first: bool) {
        if let Err(at) = self.sizes.binary_search(&n) {
            Arc::make_mut(&mut self.sizes).insert(at, n);
        }
        if first {
            let groups = Arc::make_mut(&mut self.groups);
            let keys = groups.get_or_insert_with((key.kind, key.m), Vec::new);
            if let Err(at) = keys.binary_search(&key) {
                keys.insert(at, key);
            }
        }
    }

    /// Every problem size measured anywhere in the database, ascending
    /// and distinct — the §3.5 Ta-scale fitting grid.
    pub(crate) fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Keys grouped by `(kind, m)` — the paper's P-T fitting groups,
    /// ascending. Within a group, keys ascend by `pes`.
    pub(crate) fn groups(&self) -> &KeyGrid<(usize, usize), Vec<SampleKey>> {
        &self.groups
    }

    /// The box of every measured key: an N-T bank over this database
    /// fits in a grid of this extent.
    pub(crate) fn key_extent(&self) -> [usize; 3] {
        self.samples.extent()
    }

    /// Samples for a configuration (ascending N), empty if none.
    pub fn samples(&self, key: &SampleKey) -> &[Sample] {
        self.samples.get(key).map_or(&[], |s| s)
    }

    /// Whether `self` and `other` share `key`'s sample list, the size
    /// list and the group index, in that order: a clone shares all three
    /// until either side writes one.
    #[cfg(test)]
    pub(crate) fn shared_with(&self, other: &MeasurementDb, key: &SampleKey) -> [bool; 3] {
        let list = match (self.samples.get(key), other.samples.get(key)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        [
            list,
            Arc::ptr_eq(&self.sizes, &other.sizes),
            Arc::ptr_eq(&self.groups, &other.groups),
        ]
    }

    /// All keys with at least one sample.
    pub fn keys(&self) -> impl Iterator<Item = &SampleKey> {
        self.samples.keys()
    }

    /// Total measurement wall time per kind and N — the paper's Table 3 /
    /// Table 6 rows. Returns `(n, seconds)` pairs ascending in N.
    pub fn cost_by_n(&self, kind: KindId) -> Vec<(usize, f64)> {
        let mut acc: BTreeMap<usize, f64> = BTreeMap::new();
        for (key, samples) in &self.samples {
            if key.kind != kind.0 {
                continue;
            }
            for s in samples.iter() {
                *acc.entry(s.n).or_default() += s.wall;
            }
        }
        acc.into_iter().collect()
    }

    /// Total measurement wall time of the whole campaign.
    pub fn total_cost(&self) -> f64 {
        self.samples
            .values()
            .flat_map(|v| v.iter())
            .map(|s| s.wall)
            .sum()
    }

    /// Number of (configuration, N) trials recorded.
    pub fn len(&self) -> usize {
        self.samples.values().map(|s| s.len()).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(pes: usize, m: usize) -> SampleKey {
        SampleKey::new(KindId(1), pes, m)
    }

    fn sample(n: usize, wall: f64) -> Sample {
        Sample {
            n,
            ta: wall * 0.8,
            tc: wall * 0.2,
            wall,
            multi_node: true,
        }
    }

    #[test]
    fn records_sorted_by_n() {
        let mut db = MeasurementDb::new();
        db.record(key(1, 1), sample(800, 2.0));
        db.record(key(1, 1), sample(400, 1.0));
        let s = db.samples(&key(1, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].n, 400);
        assert_eq!(s[1].n, 800);
        assert!(db.samples(&key(2, 1)).is_empty());
    }

    #[test]
    fn total_p_combines_pes_and_m() {
        assert_eq!(key(4, 3).total_p(), 12);
        assert_eq!(SampleKey::new(KindId(0), 1, 6).total_p(), 6);
    }

    #[test]
    fn cost_accounting_matches_tables() {
        let mut db = MeasurementDb::new();
        db.record(key(1, 1), sample(400, 1.0));
        db.record(key(1, 2), sample(400, 2.0));
        db.record(key(1, 1), sample(800, 4.0));
        db.record(SampleKey::new(KindId(0), 1, 1), sample(400, 8.0));
        let by_n = db.cost_by_n(KindId(1));
        assert_eq!(by_n, vec![(400, 3.0), (800, 4.0)]);
        assert_eq!(db.total_cost(), 15.0);
        assert_eq!(db.len(), 4);
    }

    #[test]
    fn upsert_replaces_same_n_and_inserts_sorted() {
        let mut db = MeasurementDb::new();
        db.record(key(1, 1), sample(800, 2.0));
        db.upsert(key(1, 1), sample(400, 1.0));
        db.upsert(key(1, 1), sample(800, 3.0));
        let s = db.samples(&key(1, 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].n, 400);
        assert_eq!(s[1].wall, 3.0);
    }

    #[test]
    fn groups_partition_keys_by_kind_and_m() {
        let mut db = MeasurementDb::new();
        db.record(key(1, 1), sample(400, 1.0));
        db.record(key(2, 1), sample(400, 1.5));
        db.record(key(2, 3), sample(400, 1.5));
        let groups = db.groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[&(1, 1)], vec![key(1, 1), key(2, 1)]);
        assert_eq!(groups[&(1, 3)], vec![key(2, 3)]);
    }

    #[test]
    fn upsert_reports_insert_replace_and_unchanged() {
        let mut db = MeasurementDb::new();
        assert!(db.upsert(key(1, 1), sample(400, 1.0)), "insert");
        assert!(!db.upsert(key(1, 1), sample(400, 1.0)), "same bits");
        assert!(db.upsert(key(1, 1), sample(400, 1.5)), "replace");
        assert!(db.upsert(key(1, 1), sample(800, 1.5)), "insert at new N");
        // Each field's bits count, the sign of a zero included.
        let base = sample(400, 1.5);
        for changed in [
            Sample { ta: 1.0, ..base },
            Sample { tc: 1.0, ..base },
            Sample { wall: 2.0, ..base },
            Sample {
                multi_node: false,
                ..base
            },
        ] {
            assert!(db.upsert(key(1, 1), changed), "{changed:?}");
            assert!(db.upsert(key(1, 1), base));
        }
        let zero = Sample { tc: 0.0, ..base };
        assert!(db.upsert(key(1, 1), zero));
        assert!(db.upsert(key(1, 1), Sample { tc: -0.0, ..base }));
        assert!(!db.upsert(key(1, 1), Sample { tc: -0.0, ..base }));
        assert!(same_bits(db.samples(&key(1, 2)), &[]));
        assert!(!same_bits(
            db.samples(&key(1, 1)),
            &[zero, sample(800, 1.5)]
        ));
    }

    /// A clone of a campaign database shares every list; an upsert into
    /// the clone copies only the list it changes, and the original keeps
    /// its bits.
    #[test]
    fn a_clone_copies_only_what_it_writes() {
        let plan = crate::plan::MeasurementPlan::basic();
        let mut db = MeasurementDb::new();
        for (i, point) in plan.construction.iter().enumerate() {
            db.record(point.key, sample(point.n, 1.0 + i as f64));
        }
        let keys: Vec<SampleKey> = db.keys().copied().collect();
        assert_eq!(keys.len(), 54);
        let lists: Vec<Vec<Sample>> = keys.iter().map(|k| db.samples(k).to_vec()).collect();
        let (sizes, groups) = (db.sizes().to_vec(), db.groups().clone());
        let mut copy = db.clone();
        assert!(keys.iter().all(|k| db.shared_with(&copy, k) == [true; 3]));
        let hit = keys[7];
        let held = db.samples(&hit)[3];
        assert!(copy.upsert(hit, Sample { ta: 99.0, ..held }), "replace");
        assert_eq!(db.shared_with(&copy, &hit), [false, true, true]);
        assert!(
            copy.upsert(hit, sample(12_345, 2.0)),
            "insert at a new size"
        );
        assert_eq!(db.shared_with(&copy, &hit), [false, false, true]);
        let new_key = SampleKey::new(KindId(0), 2, 1);
        assert!(db.samples(&new_key).is_empty());
        assert!(copy.upsert(new_key, sample(400, 3.0)), "a new key");
        assert_eq!(db.shared_with(&copy, &hit), [false; 3]);
        for (k, list) in keys.iter().zip(&lists) {
            assert!(same_bits(db.samples(k), list), "{k:?}");
            assert_eq!(db.shared_with(&copy, k)[0], *k != hit, "{k:?}");
        }
        assert_eq!((db.sizes(), db.groups()), (&sizes[..], &groups));
        assert!(db.samples(&new_key).is_empty());
        assert_eq!(copy.samples(&hit)[3].ta, 99.0);
        assert_eq!(copy.len(), db.len() + 2);
    }

    /// The kept size list and group index are always what a rescan of
    /// every sample gives.
    #[test]
    fn kept_sizes_and_groups_track_every_write() {
        let assert_rescans = |db: &MeasurementDb| {
            let mut ns: Vec<usize> = db
                .keys()
                .flat_map(|k| db.samples(k).iter().map(|s| s.n))
                .collect();
            ns.sort_unstable();
            ns.dedup();
            assert_eq!(db.sizes(), ns);
            let mut groups: BTreeMap<(usize, usize), Vec<SampleKey>> = BTreeMap::new();
            for k in db.keys() {
                groups.entry((k.kind, k.m)).or_default().push(*k);
            }
            assert!(db.groups().iter().eq(groups.iter()));
        };
        let mut db = MeasurementDb::new();
        assert_rescans(&db);
        db.record(key(1, 1), sample(800, 2.0));
        db.record(key(2, 1), sample(400, 1.0));
        db.record(key(2, 1), sample(800, 1.0));
        assert_rescans(&db);
        assert_eq!(db.sizes(), [400, 800]);
        assert!(db.upsert(key(1, 2), sample(1600, 3.0)), "insert");
        assert!(db.upsert(key(1, 1), sample(600, 3.0)), "insert");
        assert!(db.upsert(SampleKey::new(KindId(0), 1, 2), sample(800, 1.0)));
        assert!(db.upsert(key(1, 1), sample(800, 9.0)), "replace");
        assert_rescans(&db);
        assert_eq!(db.sizes(), [400, 600, 800, 1600]);
    }
}
