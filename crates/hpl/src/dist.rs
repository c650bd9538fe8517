//! Column distributions over processes: the paper's equal 1-D
//! block-cyclic deal (1 × P process grid) plus the related-work
//! *weighted* assignment (§2: Kalinov & Lastovetsky, Beaumont et al.
//! rewrite the application so each PE's share matches its speed).

/// How column blocks map to processes — what the rank body needs to
/// know about a distribution.
pub trait ColumnAssignment {
    /// Matrix order N.
    fn n(&self) -> usize;
    /// Block width NB.
    fn nb(&self) -> usize;
    /// Number of column blocks.
    fn num_blocks(&self) -> usize {
        self.n().div_ceil(self.nb())
    }
    /// First global column of block `b`.
    fn block_start(&self, b: usize) -> usize {
        b * self.nb()
    }
    /// Width of block `b` (the last may be partial).
    fn block_width(&self, b: usize) -> usize {
        self.nb().min(self.n() - b * self.nb())
    }
    /// Owner rank of block `b`.
    fn owner(&self, b: usize) -> usize;
    /// Total columns owned by `rank`.
    fn cols_of(&self, rank: usize) -> usize {
        self.trailing_cols_of(rank, 0)
    }
    /// Columns owned by `rank` among blocks `b ≥ from_block`.
    fn trailing_cols_of(&self, rank: usize, from_block: usize) -> usize {
        (from_block..self.num_blocks())
            .filter(|&b| self.owner(b) == rank)
            .map(|b| self.block_width(b))
            .sum()
    }
}

/// The columns a rank owns to the right of the block a panel loop is
/// on, kept as a running count: it starts from all of the rank's
/// columns and drops each owned block's width as the loop passes it.
/// The loop then pays O(1) per block instead of rescanning the
/// remaining blocks, and the integer count equals
/// [`ColumnAssignment::trailing_cols_of`]`(rank, k + 1)` exactly.
pub(crate) struct TrailingCols {
    rank: usize,
    left: usize,
}

impl TrailingCols {
    /// Starts the count for `rank` before block 0.
    pub(crate) fn new(dist: &impl ColumnAssignment, rank: usize) -> Self {
        TrailingCols {
            rank,
            left: dist.cols_of(rank),
        }
    }

    /// Passes block `k` (blocks must be passed in ascending order) and
    /// returns the rank's columns among blocks `b > k`.
    pub(crate) fn pass(&mut self, dist: &impl ColumnAssignment, k: usize) -> usize {
        if dist.owner(k) == self.rank {
            self.left -= dist.block_width(k);
        }
        self.left
    }
}

/// Describes how the `n` columns of the matrix are dealt out to `p`
/// processes in blocks of `nb` columns, round-robin: block `b` belongs
/// to rank `b mod p`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockCyclic {
    /// Matrix order N.
    pub(crate) n: usize,
    /// Column block width NB.
    pub(crate) nb: usize,
    /// Number of processes P.
    pub(crate) p: usize,
}

impl BlockCyclic {
    /// Creates a distribution.
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    pub fn new(n: usize, nb: usize, p: usize) -> Self {
        assert!(n > 0 && nb > 0 && p > 0, "n, nb, p must be positive");
        BlockCyclic { n, nb, p }
    }
}

impl ColumnAssignment for BlockCyclic {
    fn n(&self) -> usize {
        self.n
    }
    fn nb(&self) -> usize {
        self.nb
    }
    fn owner(&self, b: usize) -> usize {
        b % self.p
    }
}

/// Weighted column assignment in the style of Kalinov & Lastovetsky's
/// *heterogeneous block cyclic distribution*: standard-width `NB` blocks,
/// but each ownership cycle hands rank `r` a number of consecutive block
/// slots proportional to its speed (≥ 1). Within a cycle the owners run
/// `[0,0,…,1,2,…]` in ascending order, so every owner transition is
/// either a self-transition (no transfer) or one ring hop — the layout a
/// rewritten heterogeneous HPL would actually use.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedDist {
    /// Matrix order N.
    pub(crate) n: usize,
    /// Block width NB.
    pub(crate) nb: usize,
    /// Owner per block, ascending in block index.
    owners: Vec<usize>,
}

impl WeightedDist {
    /// Builds the assignment for `weights[rank]` (need not be
    /// normalized).
    ///
    /// # Panics
    /// Panics if `weights` is empty, non-positive, or `n`/`nb` are zero.
    pub fn new(n: usize, nb: usize, weights: &[f64]) -> Self {
        assert!(n > 0 && nb > 0, "n and nb must be positive");
        assert!(!weights.is_empty(), "need at least one rank");
        assert!(
            weights.iter().all(|&w| w > 0.0 && w.is_finite()),
            "weights must be positive"
        );
        let p = weights.len();
        let min_w = weights.iter().cloned().fold(f64::INFINITY, f64::min);
        // Slots per cycle: the slowest rank gets exactly one; everyone
        // else gets a rounded multiple (>= 1) of its speed ratio.
        let slots: Vec<usize> = weights
            .iter()
            .map(|&w| ((w / min_w).round() as usize).max(1))
            .collect();
        let cycle: Vec<usize> = (0..p)
            .flat_map(|r| std::iter::repeat_n(r, slots[r]))
            .collect();
        let num_blocks = n.div_ceil(nb);
        let owners: Vec<usize> = cycle.iter().cycle().take(num_blocks).copied().collect();
        WeightedDist { n, nb, owners }
    }
}

impl ColumnAssignment for WeightedDist {
    fn n(&self) -> usize {
        self.n
    }
    fn nb(&self) -> usize {
        self.nb
    }
    fn owner(&self, b: usize) -> usize {
        self.owners[b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_counts_and_widths() {
        let d = BlockCyclic::new(100, 32, 3);
        assert_eq!(d.num_blocks(), 4);
        assert_eq!(d.block_width(0), 32);
        assert_eq!(d.block_width(3), 4, "partial last block");
        assert_eq!(d.block_start(2), 64);
    }

    #[test]
    fn round_robin_ownership() {
        let d = BlockCyclic::new(100, 10, 3);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(1), 1);
        assert_eq!(d.owner(2), 2);
        assert_eq!(d.owner(3), 0);
        let owned: Vec<usize> = (0..d.num_blocks()).filter(|&b| d.owner(b) == 0).collect();
        assert_eq!(owned, vec![0, 3, 6, 9]);
    }

    #[test]
    fn columns_partition_exactly() {
        for (n, nb, p) in [(100, 7, 3), (64, 8, 4), (33, 32, 5), (10, 3, 1)] {
            let d = BlockCyclic::new(n, nb, p);
            let total: usize = (0..p).map(|r| d.cols_of(r)).sum();
            assert_eq!(total, n, "n={n} nb={nb} p={p}");
        }
    }

    #[test]
    fn trailing_cols_shrink_with_progress() {
        let d = BlockCyclic::new(96, 8, 4);
        for rank in 0..4 {
            let mut prev = d.trailing_cols_of(rank, 0);
            assert_eq!(prev, d.cols_of(rank));
            for k in 1..d.num_blocks() {
                let cur = d.trailing_cols_of(rank, k);
                assert!(cur <= prev);
                prev = cur;
            }
            assert_eq!(d.trailing_cols_of(rank, d.num_blocks()), 0);
        }
    }

    #[test]
    fn weighted_shares_track_weights() {
        // ~5x-faster rank 0 gets ~5/13 of the columns alongside 8 slow
        // ranks with one slot each.
        let weights = [5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let w = WeightedDist::new(6400, 64, &weights);
        let total: usize = (0..9).map(|r| w.cols_of(r)).sum();
        assert_eq!(total, 6400, "columns partition exactly");
        let fast = w.cols_of(0) as f64 / total as f64;
        assert!((fast - 5.0 / 13.0).abs() < 0.02, "fast rank owns {fast}");
    }

    #[test]
    fn weighted_transitions_are_ring_friendly() {
        // Every owner transition is a self-transition or +1 (mod P).
        let w = WeightedDist::new(2000, 10, &[3.0, 1.0, 1.0, 1.0]);
        for b in 0..ColumnAssignment::num_blocks(&w) - 1 {
            let a = ColumnAssignment::owner(&w, b);
            let c = ColumnAssignment::owner(&w, b + 1);
            assert!(c == a || c == (a + 1) % 4, "block {b}: {a} -> {c}");
        }
    }

    #[test]
    fn weighted_equal_weights_matches_block_cyclic_layout() {
        let w = WeightedDist::new(1000, 10, &[1.0; 4]);
        let c = BlockCyclic::new(1000, 10, 4);
        assert_eq!(ColumnAssignment::num_blocks(&w), c.num_blocks());
        for b in 0..c.num_blocks() {
            assert_eq!(ColumnAssignment::owner(&w, b), c.owner(b));
            assert_eq!(ColumnAssignment::block_width(&w, b), c.block_width(b));
            assert_eq!(ColumnAssignment::block_start(&w, b), c.block_start(b));
        }
    }

    /// Checks the running count against a fresh rescan at every block.
    fn assert_running_count_matches(dist: &impl ColumnAssignment, ranks: usize) {
        for rank in 0..ranks {
            let mut running = TrailingCols::new(dist, rank);
            for k in 0..dist.num_blocks() {
                let want = dist.trailing_cols_of(rank, k + 1);
                assert_eq!(running.pass(dist, k), want, "rank {rank}, block {k}");
            }
        }
    }

    #[test]
    fn running_trailing_count_matches_rescan() {
        // Partial last blocks (N not a multiple of NB) alongside exact
        // ones, more ranks than blocks, and a single rank.
        for (n, nb, p) in [
            (1600, 64, 9),
            (100, 32, 3),
            (1000, 64, 7),
            (33, 32, 5),
            (10, 3, 1),
        ] {
            assert_running_count_matches(&BlockCyclic::new(n, nb, p), p);
        }
        for (n, nb, weights) in [
            (1000, 64, vec![5.0, 1.0, 1.0, 1.0]),
            (777, 13, vec![2.0, 3.0]),
            (6400, 64, vec![5.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
        ] {
            assert_running_count_matches(&WeightedDist::new(n, nb, &weights), weights.len());
        }
        // The 2-D grid deals column blocks over its process columns.
        for (n, nb, cols) in [(1000, 64, 4), (1600, 64, 3), (500, 64, 2)] {
            assert_running_count_matches(&BlockCyclic::new(n, nb, cols), cols);
        }
    }

    #[test]
    fn weighted_covers_all_blocks() {
        let w = WeightedDist::new(777, 13, &[2.0, 3.0]);
        let covered: usize = (0..2).map(|r| w.cols_of(r)).sum();
        assert_eq!(covered, 777);
        // Trailing columns shrink monotonically.
        let mut prev = w.trailing_cols_of(1, 0);
        for k in 1..ColumnAssignment::num_blocks(&w) {
            let cur = w.trailing_cols_of(1, k);
            assert!(cur <= prev);
            prev = cur;
        }
    }
}
