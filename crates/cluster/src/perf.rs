//! Calibrated cost model: maps algorithmic work (flops, bytes) to
//! uncontended execution seconds on a given PE kind.
//!
//! CPU *contention* (several processes time-slicing one PE) is handled by
//! the discrete-event simulator's processor-sharing resources; this model
//! returns the time a task would take **alone**, including the paper's
//! three first-order effects:
//!
//! 1. **Efficiency vs problem size** — HPL's Gflops rise with N (Fig. 1)
//!    because larger trailing matrices amortize BLAS-3 overheads. Modelled
//!    as a saturating efficiency in the per-process working set.
//! 2. **Multiprocessing overhead** — `m` co-resident processes cost
//!    `1 + σ(m−1)` beyond fair sharing (context switches, cache pollution),
//!    the drop between the `nP/CPU` curves of Fig. 1(b).
//! 3. **Memory pressure** — once a node's working set exceeds usable RAM,
//!    compute slows by `1 + β·(overcommit − 1)`: the Athlon's collapse at
//!    N = 10000 in Fig. 3(a).

use crate::config::Placement;
use crate::spec::{ClusterSpec, KindId};

/// Per-run cost model for one cluster and one HPL problem size.
#[derive(Clone, Debug)]
pub struct PerfModel<'a> {
    spec: &'a ClusterSpec,
    /// HPL matrix order N.
    n: usize,
    /// Total process count P.
    p: usize,
}

impl<'a> PerfModel<'a> {
    /// Creates the model for matrix order `n` distributed over `p`
    /// processes.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn new(spec: &'a ClusterSpec, n: usize, p: usize) -> Self {
        assert!(p > 0, "need at least one process");
        PerfModel { spec, n, p }
    }

    /// Bytes of matrix state owned by one process: its share of the
    /// `N × N` f64 matrix under 1-D block-cyclic distribution, plus a
    /// panel receive buffer.
    pub(crate) fn working_set_per_proc(&self, block: usize) -> f64 {
        let n = self.n as f64;
        8.0 * n * n / self.p as f64 + 8.0 * n * block as f64
    }

    /// Memory overcommit ratio of a node: bytes required by its resident
    /// processes over usable bytes. ≤ 1 means everything fits.
    pub fn node_overcommit(&self, placement: &Placement, node: usize, block: usize) -> f64 {
        let procs = placement.procs_on_node(node) as f64;
        if procs == 0.0 {
            return 0.0;
        }
        let required = procs * self.working_set_per_proc(block);
        let usable = self.spec.nodes[node].memory_bytes * self.spec.usable_mem_frac;
        required / usable
    }

    /// Compute-time multiplier from memory pressure (≥ 1).
    pub fn swap_factor(&self, overcommit: f64) -> f64 {
        if overcommit <= 1.0 {
            1.0
        } else {
            1.0 + self.spec.swap_beta * (overcommit - 1.0)
        }
    }

    /// DGEMM efficiency (0, 1] for a kind at this run's working set.
    pub fn dgemm_eff(&self, kind: KindId, block: usize) -> f64 {
        let k = self.spec.kind(kind);
        let ws = self.working_set_per_proc(block);
        k.eff_min + (1.0 - k.eff_min) * ws / (ws + k.eff_halfway_bytes)
    }

    /// Multiprocessing overhead multiplier for `m` co-resident processes.
    pub fn mp_factor(&self, kind: KindId, m: usize) -> f64 {
        let k = self.spec.kind(kind);
        1.0 + k.mp_overhead * (m.saturating_sub(1)) as f64
    }

    /// The prices of one rank's work, computed once: a process of `kind`
    /// sharing its CPU with `m_on_cpu − 1` others, on a node at memory
    /// overcommit `overcommit`, factoring blocks of width `block`.
    pub fn rank_prices(
        &self,
        kind: KindId,
        m_on_cpu: usize,
        overcommit: f64,
        block: usize,
    ) -> RankPrices {
        let k = self.spec.kind(kind);
        RankPrices {
            gemm_rate: k.peak_flops * self.dgemm_eff(kind, block),
            panel_rate: k.peak_flops * k.panel_eff,
            mem_bw: k.mem_bw,
            mp_factor: self.mp_factor(kind, m_on_cpu),
            swap_factor: self.swap_factor(overcommit),
            stall: k.sched_quantum * m_on_cpu.saturating_sub(1) as f64,
        }
    }

    /// Uncontended seconds for `flops` of BLAS-3 work (the `update`
    /// phase's dtrsm+dgemm) on one process.
    pub fn gemm_time(
        &self,
        kind: KindId,
        flops: f64,
        m_on_cpu: usize,
        overcommit: f64,
        block: usize,
    ) -> f64 {
        self.rank_prices(kind, m_on_cpu, overcommit, block)
            .gemm(flops)
    }

    /// Uncontended seconds for `flops` of panel-factorization work
    /// (BLAS-2 bound `dgetf2`, the paper's `pfact`).
    pub fn panel_time(&self, kind: KindId, flops: f64, m_on_cpu: usize, overcommit: f64) -> f64 {
        // The block width only sets the gemm rate, which a panel never reads.
        self.rank_prices(kind, m_on_cpu, overcommit, 0).panel(flops)
    }

    /// Uncontended seconds to stream `bytes` through memory (the `laswp`
    /// row interchanges — reads + writes already folded into `mem_bw`).
    pub fn memop_time(&self, kind: KindId, bytes: f64, overcommit: f64) -> f64 {
        self.rank_prices(kind, 1, overcommit, 0).memop(bytes)
    }

    /// Scheduler stall at a synchronization point for a process sharing
    /// its CPU with `m − 1` others: about `(m − 1)` timeslices pass
    /// before a just-unblocked process gets the CPU back. This is the
    /// effect that makes heavy multiprocessing lose at small N (many
    /// synchronizations per unit of work) while remaining cheap at large
    /// N — the crossovers of the paper's Fig. 3(b).
    pub fn sync_stall(&self, kind: KindId, m_on_cpu: usize) -> f64 {
        self.rank_prices(kind, m_on_cpu, 0.0, 0).sync_stall()
    }
}

/// One rank's cost operands from [`PerfModel::rank_prices`]: every
/// uncontended time the rank is charged is one of its four prices.
#[derive(Clone, Copy, Debug)]
pub struct RankPrices {
    /// BLAS-3 flop/s at the run's working set.
    gemm_rate: f64,
    /// BLAS-2 (panel) flop/s.
    panel_rate: f64,
    /// Memory streaming bytes/s.
    mem_bw: f64,
    /// Multiprocessing overhead multiplier.
    mp_factor: f64,
    /// Memory-pressure multiplier.
    swap_factor: f64,
    /// Scheduler stall after blocking at a synchronization point.
    stall: f64,
}

impl RankPrices {
    /// Seconds for `flops` of BLAS-3 work (see [`PerfModel::gemm_time`]).
    pub fn gemm(&self, flops: f64) -> f64 {
        flops / self.gemm_rate * self.mp_factor * self.swap_factor
    }

    /// Seconds for `flops` of panel work (see [`PerfModel::panel_time`]).
    pub fn panel(&self, flops: f64) -> f64 {
        flops / self.panel_rate * self.mp_factor * self.swap_factor
    }

    /// Seconds to stream `bytes` (see [`PerfModel::memop_time`]).
    pub fn memop(&self, bytes: f64) -> f64 {
        bytes / self.mem_bw * self.swap_factor
    }

    /// Scheduler stall at a synchronization point (see
    /// [`PerfModel::sync_stall`]).
    pub fn sync_stall(&self) -> f64 {
        self.stall
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commlib::CommLibProfile;
    use crate::config::Configuration;
    use crate::spec::paper_cluster;

    const NB: usize = 64;

    fn spec() -> ClusterSpec {
        paper_cluster(CommLibProfile::mpich122())
    }

    #[test]
    fn efficiency_rises_with_n() {
        let s = spec();
        let small = PerfModel::new(&s, 1000, 1).dgemm_eff(KindId(0), NB);
        let large = PerfModel::new(&s, 7000, 1).dgemm_eff(KindId(0), NB);
        assert!(large > small, "{small} -> {large}");
        assert!(large < 1.0);
        assert!(small >= s.kind(KindId(0)).eff_min);
    }

    #[test]
    fn athlon_gflops_curve_matches_fig1_shape() {
        // Fig 1(b), 1P/CPU: ~0.5-0.7 Gflops at N=1000 rising to ~1.0-1.2
        // at N=7000.
        let s = spec();
        let at = |n: usize| {
            let pm = PerfModel::new(&s, n, 1);
            s.kind(KindId(0)).peak_flops * pm.dgemm_eff(KindId(0), NB) / 1e9
        };
        let g1000 = at(1000);
        let g7000 = at(7000);
        assert!((0.4..0.85).contains(&g1000), "N=1000: {g1000} Gflops");
        assert!((0.95..1.3).contains(&g7000), "N=7000: {g7000} Gflops");
    }

    #[test]
    fn mp_factor_grows_linearly() {
        let s = spec();
        let pm = PerfModel::new(&s, 3200, 4);
        assert_eq!(pm.mp_factor(KindId(0), 1), 1.0);
        let f2 = pm.mp_factor(KindId(0), 2);
        let f4 = pm.mp_factor(KindId(0), 4);
        assert!(f2 > 1.0 && f4 > f2);
        assert!(f4 < 1.25, "overhead stays modest: {f4}");
    }

    #[test]
    fn swap_factor_kicks_in_past_capacity() {
        let s = spec();
        let pm = PerfModel::new(&s, 10_000, 1);
        assert_eq!(pm.swap_factor(0.5), 1.0);
        assert_eq!(pm.swap_factor(1.0), 1.0);
        assert!(pm.swap_factor(1.2) > 1.5);
    }

    #[test]
    fn athlon_overcommits_at_n10000_single_process() {
        // 8·10000² = 800 MB > 0.90·768 MB: the Fig 3(a) memory cliff.
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(1, 1, 0, 0);
        let placement = Placement::new(&s, &cfg).unwrap();
        let pm = PerfModel::new(&s, 10_000, 1);
        let oc = pm.node_overcommit(&placement, 0, NB);
        assert!(oc > 1.05, "overcommit {oc}");
        // While N=8000 still fits.
        let pm8 = PerfModel::new(&s, 8000, 1);
        assert!(pm8.node_overcommit(&placement, 0, NB) < 1.0);
    }

    #[test]
    fn five_p2_do_not_overcommit_at_n10000() {
        // Fig 3(a): "P2 x 5" keeps scaling at N = 10000 because the
        // matrix is spread over several nodes.
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(0, 0, 5, 1);
        let placement = Placement::new(&s, &cfg).unwrap();
        let pm = PerfModel::new(&s, 10_000, 5);
        for node in placement.used_nodes() {
            let oc = pm.node_overcommit(&placement, node, NB);
            assert!(oc < 1.0, "node {node} overcommit {oc}");
        }
    }

    #[test]
    fn gemm_time_scales_inverse_with_rate() {
        let s = spec();
        let pm = PerfModel::new(&s, 4800, 2);
        let t_athlon = pm.gemm_time(KindId(0), 1e9, 1, 0.5, NB);
        let t_p2 = pm.gemm_time(KindId(1), 1e9, 1, 0.5, NB);
        let ratio = t_p2 / t_athlon;
        assert!(
            (3.5..7.0).contains(&ratio),
            "Athlon ~5x faster than P-II, got {ratio}"
        );
    }

    #[test]
    fn panel_slower_than_gemm_per_flop() {
        let s = spec();
        let pm = PerfModel::new(&s, 4800, 2);
        let g = pm.gemm_time(KindId(1), 1e8, 1, 0.5, NB);
        let p = pm.panel_time(KindId(1), 1e8, 1, 0.5);
        assert!(p > g, "BLAS-2 panel ({p}) must cost more than BLAS-3 ({g})");
    }

    #[test]
    fn rank_prices_match_the_per_call_formulas_bit_for_bit() {
        let s = spec();
        let same =
            |a: f64, b: f64, what: &str| assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
        for n in [400, 1600, 6400, 10_000] {
            for p in [1, 6] {
                let pm = PerfModel::new(&s, n, p);
                for kind in [KindId(0), KindId(1)] {
                    let k = s.kind(kind);
                    for m in 1..=6 {
                        for oc in [0.0, 0.4, 1.0, 1.07, 1.9] {
                            let prices = pm.rank_prices(kind, m, oc, NB);
                            let (mp, swap) = (pm.mp_factor(kind, m), pm.swap_factor(oc));
                            for work in [0.0, 16.0 * 64.0, 3.3e6, 2.7e9] {
                                let gemm =
                                    work / (k.peak_flops * pm.dgemm_eff(kind, NB)) * mp * swap;
                                let panel = work / (k.peak_flops * k.panel_eff) * mp * swap;
                                let memop = work / k.mem_bw * swap;
                                same(prices.gemm(work), gemm, "gemm");
                                same(prices.panel(work), panel, "panel");
                                same(prices.memop(work), memop, "memop");
                                same(pm.gemm_time(kind, work, m, oc, NB), gemm, "gemm_time");
                                same(pm.panel_time(kind, work, m, oc), panel, "panel_time");
                                same(pm.memop_time(kind, work, oc), memop, "memop_time");
                            }
                            let stall = k.sched_quantum * m.saturating_sub(1) as f64;
                            same(prices.sync_stall(), stall, "stall");
                            same(pm.sync_stall(kind, m), stall, "sync_stall");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn memop_time_positive_and_linear() {
        let s = spec();
        let pm = PerfModel::new(&s, 4800, 2);
        let t1 = pm.memop_time(KindId(0), 1e6, 0.5);
        let t2 = pm.memop_time(KindId(0), 2e6, 0.5);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
    }
}
