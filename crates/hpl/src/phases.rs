//! Detailed per-phase timing, mirroring HPL's `-DHPL_DETAILED_TIMING`
//! output items (the paper's Fig. 4) plus the `bcast` instrumentation the
//! authors added by hand.

/// Accumulated wall/virtual time per HPL phase for one process, in
/// seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    /// Panel factorization compute (`pfact`, included in `rfact`).
    pub pfact: f64,
    /// Pivot bookkeeping (`mxswp`, included in `rfact`).
    pub mxswp: f64,
    /// Trailing-matrix update compute (dtrsm + dgemm), *excluding* laswp.
    pub update: f64,
    /// Row interchanges (`laswp`, included in `update` by HPL's nesting;
    /// kept separate here like the paper's `update − laswp`).
    pub laswp: f64,
    /// Backward substitution.
    pub uptrsv: f64,
    /// Panel broadcast communication (including wait time).
    pub bcast: f64,
}

impl PhaseTimes {
    /// HPL's `rfact` = recursive panel factorization = `pfact + mxswp`.
    pub fn rfact(&self) -> f64 {
        self.pfact + self.mxswp
    }

    /// Computation time per the paper's decomposition:
    /// `Ta = (rfact − mxswp) + (update − laswp) + uptrsv`
    /// (with our fields already disjoint: `pfact + update + uptrsv`).
    pub fn ta(&self) -> f64 {
        self.pfact + self.update + self.uptrsv
    }

    /// Communication time per the paper:
    /// `Tc = mxswp + laswp + bcast`.
    pub fn tc(&self) -> f64 {
        self.mxswp + self.laswp + self.bcast
    }

    /// Total accounted time `Ta + Tc`.
    pub fn total(&self) -> f64 {
        self.ta() + self.tc()
    }
}

/// HPL's reported flop count for an `N × N` solve:
/// `2N³/3 + 3N²/2` (factorization plus the two triangular solves).
pub(crate) fn hpl_flops(n: usize) -> f64 {
    let n = n as f64;
    2.0 * n * n * n / 3.0 + 1.5 * n * n
}

/// Gflop/s for a solve of order `n` finishing in `seconds`.
pub(crate) fn gflops(n: usize, seconds: f64) -> f64 {
    assert!(seconds > 0.0);
    hpl_flops(n) / seconds / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PhaseTimes {
        /// Element-wise maximum (the slowest process per phase).
        pub(crate) fn max(&self, other: &PhaseTimes) -> PhaseTimes {
            PhaseTimes {
                pfact: self.pfact.max(other.pfact),
                mxswp: self.mxswp.max(other.mxswp),
                update: self.update.max(other.update),
                laswp: self.laswp.max(other.laswp),
                uptrsv: self.uptrsv.max(other.uptrsv),
                bcast: self.bcast.max(other.bcast),
            }
        }
    }

    fn sample() -> PhaseTimes {
        PhaseTimes {
            pfact: 1.0,
            mxswp: 0.1,
            update: 10.0,
            laswp: 0.5,
            uptrsv: 0.2,
            bcast: 2.0,
        }
    }

    #[test]
    fn paper_decomposition_identities() {
        let t = sample();
        assert!((t.rfact() - 1.1).abs() < 1e-12);
        assert!((t.ta() - 11.2).abs() < 1e-12);
        assert!((t.tc() - 2.6).abs() < 1e-12);
        assert!((t.total() - (t.ta() + t.tc())).abs() < 1e-12);
    }

    #[test]
    fn max_is_fieldwise() {
        let a = sample();
        let mut b = sample();
        b.bcast = 9.0;
        b.update = 1.0;
        let m = a.max(&b);
        assert_eq!(m.bcast, 9.0);
        assert_eq!(m.update, 10.0);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(hpl_flops(1), 2.0 / 3.0 + 1.5);
        let n = 1000;
        let f = hpl_flops(n);
        assert!((f - (2e9 / 3.0 + 1.5e6)).abs() < 1.0);
        // 1 Gflop/s machine solving N=1000 in f/1e9 seconds.
        assert!((gflops(n, f / 1e9) - 1.0).abs() < 1e-12);
    }
}
