//! HPL run parameters.

/// Panel broadcast algorithm (HPL's `BCAST` option).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcastAlgo {
    /// Increasing ring (`1ring`), HPL's default — P−1 pipelined hops.
    Ring,
    /// Binomial tree — log₂ P depth.
    Binomial,
}

/// Parameters of one HPL run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HplParams {
    /// Matrix order N.
    pub n: usize,
    /// Column block width NB.
    pub nb: usize,
    /// Panel broadcast algorithm.
    pub bcast: BcastAlgo,
    /// Seed for the test matrix / right-hand side.
    pub(crate) seed: u64,
}

impl HplParams {
    /// A run of order `n` with the defaults the paper's HPL build uses:
    /// NB = 64, ring broadcast.
    pub fn order(n: usize) -> Self {
        HplParams {
            n,
            nb: 64,
            bcast: BcastAlgo::Ring,
            seed: 42,
        }
    }

    /// Overrides the block size.
    pub fn with_nb(mut self, nb: usize) -> Self {
        assert!(nb > 0);
        self.nb = nb;
        self
    }

    /// Overrides the broadcast algorithm.
    pub fn with_bcast(mut self, b: BcastAlgo) -> Self {
        self.bcast = b;
        self
    }

    /// Overrides the matrix seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let p = HplParams::order(1600)
            .with_nb(32)
            .with_bcast(BcastAlgo::Binomial)
            .with_seed(7);
        assert_eq!(p.n, 1600);
        assert_eq!(p.nb, 32);
        assert_eq!(p.bcast, BcastAlgo::Binomial);
        assert_eq!(p.seed, 7);
    }

    #[test]
    fn defaults_match_paper_build() {
        let p = HplParams::order(400);
        assert_eq!(p.nb, 64);
        assert_eq!(p.bcast, BcastAlgo::Ring);
    }
}
