//! Dense, direct-indexed tables for the paper's configuration keys.
//!
//! The models are keyed by configuration: the N-T models by
//! `(kind, Pᵢ, Mᵢ)` (§3.2), the P-T models by `(kind, Mᵢ)` (§3.3). These
//! keys are small integer coordinates, and a campaign measures most
//! points of the box they span (the Basic campaign: 54 keys in a box of
//! 126, 12 groups in a box of 14). A [`KeyGrid`] therefore stores one
//! slot per point of the box, so a lookup is an index computation
//! instead of a tree search.
//!
//! * **Box.** Every coordinate of every stored key is below the grid's
//!   extent in that dimension; the box starts at the origin.
//! * **Order.** Slots are row-major, most significant coordinate first,
//!   and [`GridKey::coords`] preserves the key order, so iteration
//!   visits keys in ascending order — exactly a `BTreeMap`'s order.
//! * **Growth.** An insert outside the box rebuilds the grid once, into
//!   the smallest box holding both the old box and the key.
//!   `KeyGrid::cover` sizes a grid up front, so a fill never regrows.
//! * **Bound.** A box may hold at most `MAX_SLOTS` (65,536) slots. A key whose
//!   box would exceed it is a caller error: inserting it panics with the
//!   key in the message.

use std::fmt;
use std::ops::Index;

use crate::measurement::SampleKey;

/// The most slots a [`KeyGrid`]'s box may span. The paper's campaigns
/// need a few hundred at most.
pub(crate) const MAX_SLOTS: usize = 1 << 16;

/// A key a [`KeyGrid`] can index: a point of a three-dimensional box.
pub trait GridKey: Copy + Ord + fmt::Debug {
    /// The key's coordinates, most significant first; unused trailing
    /// coordinates are 0. Distinct keys have distinct coordinates, and
    /// `a < b` exactly when `a.coords() < b.coords()` lexicographically.
    fn coords(&self) -> [usize; 3];
}

impl GridKey for SampleKey {
    fn coords(&self) -> [usize; 3] {
        [self.kind, self.pes, self.m]
    }
}

/// A `(kind, m)` group.
impl GridKey for (usize, usize) {
    fn coords(&self) -> [usize; 3] {
        [self.0, self.1, 0]
    }
}

/// The slot count of a box with `extent`, `None` beyond [`MAX_SLOTS`].
fn slot_count(extent: [usize; 3]) -> Option<usize> {
    extent
        .iter()
        .try_fold(1usize, |n, &e| n.checked_mul(e))
        .filter(|&n| n <= MAX_SLOTS)
}

/// The smallest box holding `extent` and the point `coords`, `None`
/// beyond [`MAX_SLOTS`].
fn grown(extent: [usize; 3], coords: [usize; 3]) -> Option<[usize; 3]> {
    let mut out = extent;
    for (e, c) in out.iter_mut().zip(coords) {
        *e = (*e).max(c.checked_add(1)?);
    }
    slot_count(out).map(|_| out)
}

/// A map from [`GridKey`]s to values with one slot per point of the
/// keys' box; see the module docs.
#[derive(Clone)]
pub struct KeyGrid<K, V> {
    extent: [usize; 3],
    slots: Vec<Option<(K, V)>>,
    len: usize,
}

impl<K, V> Default for KeyGrid<K, V> {
    fn default() -> Self {
        KeyGrid {
            extent: [0; 3],
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<K: GridKey, V> KeyGrid<K, V> {
    /// An empty grid with an empty box.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The box: one past the largest coordinate in each dimension.
    pub(crate) fn extent(&self) -> [usize; 3] {
        self.extent
    }

    /// Grows the box to hold `extent` too, rebuilding at most once.
    ///
    /// # Panics
    /// If the grown box would exceed [`MAX_SLOTS`].
    pub(crate) fn cover(&mut self, extent: [usize; 3]) {
        let mut want = self.extent;
        for (w, e) in want.iter_mut().zip(extent) {
            *w = (*w).max(e);
        }
        if want == self.extent {
            return;
        }
        let Some(count) = slot_count(want) else {
            panic!("KeyGrid: a box of {want:?} exceeds {MAX_SLOTS} slots");
        };
        let old = std::mem::take(&mut self.slots);
        self.extent = want;
        self.slots.resize_with(count, || None);
        for (key, value) in old.into_iter().flatten() {
            let at = self.slot(&key).expect("the grown box holds every old key");
            self.slots[at] = Some((key, value));
        }
    }

    /// The row-major slot of `key`, `None` outside the box.
    fn slot(&self, key: &K) -> Option<usize> {
        let c = key.coords();
        let [_, e1, e2] = self.extent;
        (c[0] < self.extent[0] && c[1] < e1 && c[2] < e2).then(|| (c[0] * e1 + c[1]) * e2 + c[2])
    }

    /// The slot of `key`, growing the box to hold it.
    ///
    /// # Panics
    /// If the grown box would exceed [`MAX_SLOTS`].
    fn slot_or_grow(&mut self, key: &K) -> usize {
        if let Some(at) = self.slot(key) {
            return at;
        }
        let Some(extent) = grown(self.extent, key.coords()) else {
            panic!("KeyGrid: {key:?} lies beyond a box of {MAX_SLOTS} slots");
        };
        self.cover(extent);
        self.slot(key).expect("the grown box holds the key")
    }

    /// The value of `key`, if stored.
    pub fn get(&self, key: &K) -> Option<&V> {
        let at = self.slot(key)?;
        self.slots[at].as_ref().map(|(_, v)| v)
    }

    /// Whether `key` is stored.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Stores `value` at `key`, returning the value it replaced.
    ///
    /// # Panics
    /// If `key` lies outside the box and the grown box would exceed
    /// `MAX_SLOTS`.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let at = self.slot_or_grow(&key);
        let old = self.slots[at].replace((key, value)).map(|(_, v)| v);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value of `key`, inserting `make()` first if none is stored.
    ///
    /// # Panics
    /// As [`KeyGrid::insert`].
    pub(crate) fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let at = self.slot_or_grow(&key);
        let slot = &mut self.slots[at];
        if slot.is_none() {
            self.len += 1;
        }
        &mut slot.get_or_insert_with(|| (key, make())).1
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let at = self.slot(key)?;
        let (_, v) = self.slots[at].take()?;
        self.len -= 1;
        Some(v)
    }

    /// Every stored `(key, value)`, ascending by key.
    pub(crate) fn iter(&self) -> Iter<'_, K, V> {
        Iter(self.slots.iter())
    }

    /// Every stored key, ascending.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Every stored value, ascending by key.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.iter().map(|(_, v)| v)
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Iterator over a [`KeyGrid`]'s entries, ascending by key.
pub struct Iter<'a, K, V>(std::slice::Iter<'a, Option<(K, V)>>);

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.0
            .by_ref()
            .find_map(|s| s.as_ref().map(|(k, v)| (k, v)))
    }
}

impl<'a, K: GridKey, V> IntoIterator for &'a KeyGrid<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

impl<K: GridKey, V> Index<&K> for KeyGrid<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        match self.get(key) {
            Some(v) => v,
            None => panic!("KeyGrid: no entry for {key:?}"),
        }
    }
}

/// Equal when both hold the same entries, whatever their boxes.
impl<K: GridKey, V: PartialEq> PartialEq for KeyGrid<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<K: GridKey, V: fmt::Debug> fmt::Debug for KeyGrid<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etm_support::prop::check;
    use etm_support::rng::Rng64;
    use std::collections::BTreeMap;

    /// What one [`matches_a_btreemap`] case exercised.
    #[derive(Default)]
    struct Seen {
        regrows: usize,
        emptied: usize,
    }

    /// Random `insert` / `remove` / `get` / `get_mut` steps over keys of
    /// small ranges, starting from an empty box, checked after every
    /// step against a `BTreeMap` doing the same: length, the full
    /// iteration.
    fn matches_a_btreemap<K: GridKey>(
        rng: &mut Rng64,
        seen: &mut Seen,
        key: impl Fn(&mut Rng64) -> K,
    ) {
        let mut grid: KeyGrid<K, u64> = KeyGrid::new();
        let mut map: BTreeMap<K, u64> = BTreeMap::new();
        for step in 0..rng.range_inclusive(1, 60) {
            let k = key(rng);
            let value = rng.next_u64() % 1000;
            match rng.range_usize(4) {
                0 | 1 => {
                    let before = grid.extent();
                    assert_eq!(grid.insert(k, value), map.insert(k, value), "insert {k:?}");
                    seen.regrows += usize::from(grid.extent() != before);
                }
                2 => {
                    let removed = grid.remove(&k);
                    seen.emptied += usize::from(removed.is_some());
                    assert_eq!(removed, map.remove(&k), "remove {k:?}");
                }
                _ => {
                    assert_eq!(grid.get(&k), map.get(&k), "get {k:?}");
                    assert_eq!(grid.contains_key(&k), map.contains_key(&k));
                }
            }
            assert_eq!(grid.len(), map.len(), "step {step}");
            assert_eq!(grid.is_empty(), map.is_empty());
            assert!(grid.iter().eq(map.iter()), "step {step}");
        }
    }

    #[test]
    fn sample_key_grid_matches_a_btreemap() {
        let mut seen = Seen::default();
        check(200, 31, |rng| {
            matches_a_btreemap(rng, &mut seen, |rng| SampleKey {
                kind: rng.range_inclusive(0, 2),
                pes: rng.range_inclusive(0, 5),
                m: rng.range_inclusive(0, 4),
            })
        });
        assert!(seen.regrows > 50 && seen.emptied > 50);
    }

    #[test]
    fn group_grid_matches_a_btreemap() {
        let mut seen = Seen::default();
        check(200, 37, |rng| {
            matches_a_btreemap(rng, &mut seen, |rng| {
                (rng.range_inclusive(0, 3), rng.range_inclusive(0, 7))
            })
        });
        assert!(seen.regrows > 50 && seen.emptied > 50);
    }

    #[test]
    fn cover_sizes_the_box_once_and_keeps_entries() {
        let mut grid: KeyGrid<(usize, usize), u8> = KeyGrid::new();
        grid.insert((1, 1), 7);
        grid.cover([3, 4, 1]);
        assert_eq!(grid.extent(), [3, 4, 1]);
        grid.insert((2, 3), 9);
        assert_eq!(grid.extent(), [3, 4, 1], "inside the box: no regrow");
        assert_eq!(grid[&(1, 1)], 7);
        assert_eq!(grid.keys().copied().collect::<Vec<_>>(), [(1, 1), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "pes: 70000")]
    fn a_key_beyond_the_slot_bound_panics_with_the_key() {
        let mut grid: KeyGrid<SampleKey, ()> = KeyGrid::new();
        grid.insert(
            SampleKey {
                kind: 0,
                pes: 70_000,
                m: 0,
            },
            (),
        );
    }
}
