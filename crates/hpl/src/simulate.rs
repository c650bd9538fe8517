//! The *timed* HPL: [`TimedWork`] runs the numeric HPL's rank body,
//! [`hpl_rank`], against the discrete-event fabric with calibrated
//! virtual-time charges instead of arithmetic;
//! `crates/hpl/tests/send_sequence.rs` checks that it sends the numeric
//! run's messages, byte for byte.
//!
//! Each rank is a simulation process on its CPU's processor-sharing
//! resource; co-resident ranks (multiprocessing, `Mᵢ > 1`) therefore slow
//! each other down exactly as time-sliced processes do, with the
//! additional `1 + σ(m−1)` scheduling overhead from the
//! [`PerfModel`]. Panel broadcasts travel the ring
//! (or binomial tree) through NIC and intra-node paths, so communication
//! time emerges from contention rather than being a closed-form guess.
//!
//! Phase accounting mirrors `-DHPL_DETAILED_TIMING`: the body measures
//! elapsed *virtual* time around every phase, so waiting inside a
//! broadcast counts toward `bcast` — precisely how the paper's Fig. 4
//! items are measured.

use std::future::Future;
use std::rc::Rc;

use etm_cluster::{ClusterSpec, Configuration, KindId, PerfModel, Placement, RankPrices};
use etm_mpisim::{run_sim_ranks, FabricSim, SimComm, SimFabric, SimMsg, SimRanks};

use crate::dist::{BlockCyclic, ColumnAssignment};
use crate::params::HplParams;
use crate::phases::{gflops, PhaseTimes};
use crate::rank::{hpl_rank, Block, RankWork};

/// Outcome of one simulated HPL run.
#[derive(Debug, Clone)]
pub struct SimulatedRun {
    /// Per-rank phase breakdown (virtual seconds).
    pub phases: Vec<PhaseTimes>,
    /// PE kind of each rank.
    pub(crate) kinds: Vec<KindId>,
    /// Number of distinct nodes the run spanned.
    pub nodes_used: usize,
    /// End-to-end virtual seconds.
    pub wall_seconds: f64,
    /// HPL-reported Gflop/s.
    pub gflops: f64,
    /// Events the simulation kernel dispatched.
    pub events: u64,
    /// Process polls the simulation kernel made.
    pub polls: u64,
}

impl SimulatedRun {
    /// Max computation time over ranks running on `kind` (the paper's
    /// `Tai` for PEs of that kind); `None` if the kind is unused.
    pub fn ta_of_kind(&self, kind: KindId) -> Option<f64> {
        self.phase_fold(kind, |p| p.ta())
    }

    /// Max communication time over ranks on `kind` (the paper's `Tci`).
    pub fn tc_of_kind(&self, kind: KindId) -> Option<f64> {
        self.phase_fold(kind, |p| p.tc())
    }

    fn phase_fold(&self, kind: KindId, f: impl Fn(&PhaseTimes) -> f64) -> Option<f64> {
        let mut best: Option<f64> = None;
        for (ph, k) in self.phases.iter().zip(&self.kinds) {
            if *k == kind {
                let v = f(ph);
                best = Some(best.map_or(v, |b: f64| b.max(v)));
            }
        }
        best
    }
}

/// `dgetf2` flop count on a `rows × w` panel (`rows ≥ w`): per column
/// `j`, a pivot search over `rows − j` entries (1 cmp ≈ 1 flop), a scal
/// of the `rows − j − 1` below it, and a rank-1 update of those rows by
/// the `w − j − 1` columns to its right.
///
/// The sum is an exact integer, computed in closed form in `u64` and cast
/// once. Every term and partial sum of the column-by-column `f64` sum is
/// an integer far below 2⁵³ (≈ 8·10⁸ for a 12 000 × 256 panel), so that
/// sum is exact too and equals this count bit for bit.
fn pfact_flops(rows: usize, w: usize) -> f64 {
    debug_assert!(rows >= w, "a {rows}-row panel cannot be {w} columns wide");
    if w == 0 {
        return 0.0;
    }
    let (rows, w) = (rows as u64, w as u64);
    // Σ_j (2(rows − j) − 1), then Σ_t 2t(rows − w + t) with t = w − 1 − j.
    let search_scal = 2 * w * rows - w * w;
    let update = (rows - w) * w * (w - 1) + w * (w - 1) * (2 * w - 1) / 3;
    (search_scal + update) as f64
}

/// One rank's charges for the timed run of [`hpl_rank`]: each phase
/// computes (or waits) for the virtual time its [`RankPrices`] put on
/// the work the numeric run does, and each message carries the byte
/// count of the numeric one.
pub struct TimedWork<'a> {
    comm: &'a SimComm,
    cost: RankPrices,
    /// Bytes of the backward-substitution token and the solution: N
    /// doubles.
    token_bytes: f64,
}

impl<'a> TimedWork<'a> {
    /// The charges of the rank behind `comm` for an order-`n` run.
    pub fn new(comm: &'a SimComm, cost: RankPrices, n: usize) -> Self {
        TimedWork {
            comm,
            cost,
            token_bytes: 8.0 * n as f64,
        }
    }
}

impl RankWork for TimedWork<'_> {
    type Msg = SimMsg;

    fn now(&self) -> f64 {
        self.comm.now()
    }

    // The unconditional charges return the fabric's future itself: an
    // `async` wrapper around it measurably slowed the closed-loop trials.
    fn pfact(&mut self, b: &Block) -> impl Future<Output = ()> {
        self.comm.compute(self.cost.panel(pfact_flops(b.rows, b.w)))
    }

    /// Charges the pivot bookkeeping; the panel message is the factored
    /// panel plus one index per pivot.
    async fn mxswp(&mut self, b: &Block) -> SimMsg {
        self.comm.compute(self.cost.memop(16.0 * b.w as f64)).await;
        SimMsg::of(8.0 * (b.rows * b.w) as f64 + 8.0 * b.w as f64)
    }

    /// The scheduler stall a time-sliced process pays to get the CPU
    /// back after blocking at the synchronization point.
    async fn sync_stall(&mut self) {
        let stall = self.cost.sync_stall();
        if stall > 0.0 {
            self.comm.idle(stall).await;
        }
    }

    /// Row interchanges on the trailing columns (plus the rhs).
    async fn laswp(&mut self, b: &Block, _panel: SimMsg) {
        if b.tcols > 0 {
            let touched = 2.0 * (b.w * b.tcols) as f64 * 8.0;
            self.comm.compute(self.cost.memop(touched)).await;
        }
    }

    fn forward(&mut self, b: &Block) -> impl Future<Output = ()> {
        let flops = (b.w * b.w) as f64 + 2.0 * ((b.rows - b.w) * b.w) as f64;
        self.comm.compute(self.cost.panel(flops))
    }

    fn update(&mut self, b: &Block) -> impl Future<Output = ()> {
        let trsm = (b.w * b.w * b.tcols) as f64;
        let gemm = 2.0 * ((b.rows - b.w) * b.w * b.tcols) as f64;
        self.comm.compute(self.cost.gemm(trsm + gemm))
    }

    fn take_token(&mut self, _token: Option<SimMsg>) {}

    /// trsv on the diagonal block + elimination above.
    fn backsolve(&mut self, start: usize, w: usize) -> impl Future<Output = ()> {
        let flops = (w * w) as f64 + 2.0 * (start * w) as f64;
        self.comm.compute(self.cost.panel(flops))
    }

    fn pass_token(&mut self) -> SimMsg {
        SimMsg::of(self.token_bytes)
    }
}

/// Execution-side perturbation of one simulated run: stragglers and
/// degraded links, applied to the fabric *before* the ranks start so
/// every contention and overlap effect flows through the discrete-event
/// kernel rather than being a post-hoc scale on measured outputs.
///
/// The default is a no-op: [`simulate_hpl`] with the default
/// perturbation is bit-identical to the unperturbed entry point.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecutionPerturbation {
    /// Per-kind CPU slowdown factors `(kind, slowdown)`: every CPU
    /// hosting a rank of `kind` serves `slowdown`× slower (a straggling
    /// PE class). Factors must be finite and positive; `1.0` is a no-op.
    pub cpu_slowdown: Vec<(KindId, f64)>,
    /// Cluster-wide NIC slowdown (a degraded switch). `1.0` is a no-op.
    pub net_slowdown: f64,
}

impl Default for ExecutionPerturbation {
    fn default() -> Self {
        ExecutionPerturbation {
            cpu_slowdown: Vec::new(),
            net_slowdown: 1.0,
        }
    }
}

impl ExecutionPerturbation {
    /// Derates `fabric` before any rank runs. Every factor other than
    /// `1.0` is checked, including one for a kind with no rank here.
    fn apply(&self, sim: &mut FabricSim, fabric: &SimFabric, placement: &Placement) {
        for &(kind, slowdown) in &self.cpu_slowdown {
            if slowdown != 1.0 {
                fabric.derate_kind_cpus(sim, placement, kind, slowdown);
            }
        }
        if self.net_slowdown != 1.0 {
            fabric.derate_nics(sim, self.net_slowdown);
        }
    }
}

/// Runs one timed HPL program on every rank of `placement` through the
/// fabric launcher and collects the run: the harness under the 1-D,
/// weighted and 2-D entry points. `rank` receives each rank's
/// communicator and cost model and returns its phase times.
pub(crate) fn simulate_ranks<F, Fut>(
    spec: &ClusterSpec,
    placement: &Placement,
    params: &HplParams,
    name: &'static str,
    perturb: &ExecutionPerturbation,
    mut rank: F,
) -> SimulatedRun
where
    F: FnMut(SimComm, RankPrices) -> Fut,
    Fut: Future<Output = PhaseTimes> + 'static,
{
    let pm = PerfModel::new(spec, params.n, placement.len());
    let SimRanks {
        outs: phases,
        makespan: wall_seconds,
        events,
        polls,
    } = run_sim_ranks(
        spec,
        placement,
        name,
        |sim, fabric| perturb.apply(sim, fabric, placement),
        |comm, slot| {
            let oc = pm.node_overcommit(placement, slot.node, params.nb);
            let m = placement.procs_on_cpu(slot);
            rank(comm, pm.rank_prices(slot.kind, m, oc, params.nb))
        },
    );
    SimulatedRun {
        kinds: placement.slots.iter().map(|s| s.kind).collect(),
        nodes_used: placement.used_nodes().count(),
        phases,
        wall_seconds,
        gflops: gflops(params.n, wall_seconds),
        events,
        polls,
    }
}

/// The 1 × P timed HPL over any column assignment: the driver behind
/// [`simulate_hpl_perturbed`] and
/// [`simulate_hpl_weighted`](crate::simulate_hpl_weighted).
pub(crate) fn simulate_1d<D: ColumnAssignment + 'static>(
    spec: &ClusterSpec,
    placement: &Placement,
    params: &HplParams,
    name: &'static str,
    dist: D,
    perturb: &ExecutionPerturbation,
) -> SimulatedRun {
    let dist = Rc::new(dist); // one copy for every rank
    let run_params = *params;
    simulate_ranks(spec, placement, params, name, perturb, |comm, cost| {
        let dist = Rc::clone(&dist);
        async move {
            let mut work = TimedWork::new(&comm, cost, run_params.n);
            hpl_rank(&comm, &*dist, run_params.bcast, &mut work).await.0
        }
    })
}

/// Simulates one HPL run of `params` under `config` on `spec`.
///
/// # Panics
/// Panics if the configuration is invalid for the cluster (use
/// [`Placement::new`] to pre-validate) or the simulation deadlocks
/// (which would be a bug in the communication schedule).
pub fn simulate_hpl(
    spec: &ClusterSpec,
    config: &Configuration,
    params: &HplParams,
) -> SimulatedRun {
    simulate_hpl_perturbed(spec, config, params, &ExecutionPerturbation::default())
}

/// [`simulate_hpl`] with an execution-side fault: the perturbation
/// derates fabric resources before any rank runs, so slowdowns
/// propagate through processor sharing, broadcast waits, and NIC
/// contention exactly as a real straggler or flaky switch would.
///
/// # Panics
/// Panics as [`simulate_hpl`] does, or if a slowdown factor is not
/// finite and positive.
pub fn simulate_hpl_perturbed(
    spec: &ClusterSpec,
    config: &Configuration,
    params: &HplParams,
    perturb: &ExecutionPerturbation,
) -> SimulatedRun {
    let placement = Placement::new(spec, config).expect("invalid configuration");
    let dist = BlockCyclic::new(params.n, params.nb, placement.len());
    simulate_1d(spec, &placement, params, "hpl-rank", dist, perturb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etm_cluster::commlib::CommLibProfile;
    use etm_cluster::spec::paper_cluster;

    fn spec() -> ClusterSpec {
        paper_cluster(CommLibProfile::mpich122())
    }

    /// The column-by-column `f64` sum the closed form replaced.
    fn pfact_flops_loop(rows: usize, w: usize) -> f64 {
        let mut f = 0.0;
        for j in 0..w {
            let below = (rows - j).saturating_sub(1) as f64;
            f += (rows - j) as f64 + below + 2.0 * below * ((w - j).saturating_sub(1)) as f64;
        }
        f
    }

    #[test]
    fn closed_form_panel_flops_match_the_loop_bit_for_bit() {
        let check = |rows: usize, w: usize| {
            let (closed, summed) = (pfact_flops(rows, w), pfact_flops_loop(rows, w));
            assert_eq!(
                closed.to_bits(),
                summed.to_bits(),
                "{rows} × {w}: {closed} vs {summed}"
            );
        };
        for w in 0..=512 {
            for rows in w..w + 400 {
                check(rows, w);
            }
        }
        for (rows, w) in [(12_000, 64), (20_000, 256), (10_000, 512)] {
            check(rows, w);
        }
    }

    #[test]
    fn clean_perturbation_is_bit_identical_to_unperturbed() {
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(1, 1, 2, 1);
        let params = HplParams::order(800);
        let base = simulate_hpl(&s, &cfg, &params);
        let clean = ExecutionPerturbation {
            cpu_slowdown: vec![(KindId(0), 1.0)],
            net_slowdown: 1.0,
        };
        let run = simulate_hpl_perturbed(&s, &cfg, &params, &clean);
        assert_eq!(base.wall_seconds.to_bits(), run.wall_seconds.to_bits());
        for (a, b) in base.phases.iter().zip(&run.phases) {
            assert_eq!(a.total().to_bits(), b.total().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "finite positive")]
    fn slowdown_factor_is_checked_for_a_kind_without_ranks() {
        // A P-II-only run: no rank is an Athlon, but the factor is
        // still refused instead of running as if clean.
        let bad = ExecutionPerturbation {
            cpu_slowdown: vec![(KindId(0), -1.0)],
            net_slowdown: 1.0,
        };
        let cfg = Configuration::p1m1_p2m2(0, 0, 2, 1);
        let _ = simulate_hpl_perturbed(&spec(), &cfg, &HplParams::order(400), &bad);
    }

    #[test]
    fn straggling_kind_and_degraded_net_slow_the_run() {
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(1, 1, 2, 1);
        let params = HplParams::order(800);
        let base = simulate_hpl(&s, &cfg, &params);
        let straggle = ExecutionPerturbation {
            cpu_slowdown: vec![(KindId(1), 3.0)],
            net_slowdown: 1.0,
        };
        let slow = simulate_hpl_perturbed(&s, &cfg, &params, &straggle);
        assert!(
            slow.wall_seconds > base.wall_seconds * 1.05,
            "straggler must elongate the run: {} vs {}",
            slow.wall_seconds,
            base.wall_seconds
        );
        let degraded = ExecutionPerturbation {
            cpu_slowdown: Vec::new(),
            net_slowdown: 10.0,
        };
        let net = simulate_hpl_perturbed(&s, &cfg, &params, &degraded);
        assert!(
            net.wall_seconds > base.wall_seconds,
            "degraded network must elongate the run: {} vs {}",
            net.wall_seconds,
            base.wall_seconds
        );
    }

    #[test]
    fn single_athlon_run_is_reasonable() {
        let s = spec();
        let run = simulate_hpl(
            &s,
            &Configuration::p1m1_p2m2(1, 1, 0, 0),
            &HplParams::order(1600),
        );
        // ~2.7 Gflop of work at ~0.9 Gflop/s => a few seconds.
        assert!(
            (1.0..10.0).contains(&run.wall_seconds),
            "wall {}",
            run.wall_seconds
        );
        assert!(
            run.gflops > 0.3 && run.gflops < 1.4,
            "gflops {}",
            run.gflops
        );
        // Single PE: no broadcast partners, bcast ~ 0.
        let ph = &run.phases[0];
        assert!(
            ph.bcast < 0.01 * ph.ta(),
            "bcast {} vs ta {}",
            ph.bcast,
            ph.ta()
        );
    }

    #[test]
    fn update_dominates_at_scale() {
        // Paper: update ≈ 100x rfact and uptrsv at N=9600. Check the
        // ordering (with a softer factor at N=3200).
        let s = spec();
        let run = simulate_hpl(
            &s,
            &Configuration::p1m1_p2m2(1, 1, 0, 0),
            &HplParams::order(3200),
        );
        let ph = &run.phases[0];
        assert!(
            ph.update > 10.0 * ph.rfact(),
            "update {} rfact {}",
            ph.update,
            ph.rfact()
        );
        assert!(
            ph.update > 10.0 * ph.uptrsv,
            "update {} uptrsv {}",
            ph.update,
            ph.uptrsv
        );
    }

    #[test]
    fn heterogeneous_run_produces_per_kind_times() {
        let s = spec();
        let run = simulate_hpl(
            &s,
            &Configuration::p1m1_p2m2(1, 1, 4, 1),
            &HplParams::order(1600),
        );
        assert_eq!(run.phases.len(), 5);
        let ta0 = run.ta_of_kind(KindId(0)).unwrap();
        let ta1 = run.ta_of_kind(KindId(1)).unwrap();
        // Equal work split but the P-II is ~5x slower per flop.
        assert!(ta1 > 2.0 * ta0, "P-II ta {ta1} vs Athlon ta {ta0}");
        assert!(run.tc_of_kind(KindId(0)).unwrap() > 0.0);
        assert!(run.ta_of_kind(KindId(9)).is_none());
    }

    #[test]
    fn deterministic_runs() {
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(1, 2, 2, 1);
        let a = simulate_hpl(&s, &cfg, &HplParams::order(800));
        let b = simulate_hpl(&s, &cfg, &HplParams::order(800));
        assert_eq!(a.wall_seconds.to_bits(), b.wall_seconds.to_bits());
        assert_eq!(a.phases, b.phases);
    }

    #[test]
    fn multiprocessing_helps_heterogeneous_cluster_at_large_n() {
        // Fig 3(b): at large N, n=2 on the Athlon beats n=1.
        let s = spec();
        let n = 6400;
        let t1 = simulate_hpl(
            &s,
            &Configuration::p1m1_p2m2(1, 1, 4, 1),
            &HplParams::order(n),
        )
        .wall_seconds;
        let t2 = simulate_hpl(
            &s,
            &Configuration::p1m1_p2m2(1, 2, 4, 1),
            &HplParams::order(n),
        )
        .wall_seconds;
        assert!(t2 < t1, "n=2 ({t2}) should beat n=1 ({t1}) at N={n}");
    }

    #[test]
    fn multiprocessing_hurts_single_pe() {
        // Fig 1(b): on one CPU, more processes only add overhead.
        let s = spec();
        let n = 2400;
        let t1 = simulate_hpl(
            &s,
            &Configuration::p1m1_p2m2(1, 1, 0, 0),
            &HplParams::order(n),
        )
        .wall_seconds;
        let t4 = simulate_hpl(
            &s,
            &Configuration::p1m1_p2m2(1, 4, 0, 0),
            &HplParams::order(n),
        )
        .wall_seconds;
        assert!(t4 > t1, "4P/CPU ({t4}) must be slower than 1P/CPU ({t1})");
        // At this modest N the scheduler-quantum stalls are significant
        // (paper Fig 1(b): 4P/CPU well below 1P/CPU at small N, gap
        // narrowing with N) but the run must not collapse as it does
        // under the MPICH-1.2.1 profile.
        assert!(t4 < 3.0 * t1, "but not catastrophically with MPICH-1.2.2");
        let n_large = 6400;
        let t1l = simulate_hpl(
            &s,
            &Configuration::p1m1_p2m2(1, 1, 0, 0),
            &HplParams::order(n_large),
        )
        .wall_seconds;
        let t4l = simulate_hpl(
            &s,
            &Configuration::p1m1_p2m2(1, 4, 0, 0),
            &HplParams::order(n_large),
        )
        .wall_seconds;
        assert!(
            (t4l - t1l) / t1l < (t4 - t1) / t1,
            "the multiprocessing gap must narrow with N: small {:.3} vs large {:.3}",
            (t4 - t1) / t1,
            (t4l - t1l) / t1l
        );
    }

    #[test]
    fn memory_cliff_at_n10000_single_athlon() {
        // Fig 3(a): the single Athlon degrades at N=10000.
        let s = spec();
        let g8000 = simulate_hpl(
            &s,
            &Configuration::p1m1_p2m2(1, 1, 0, 0),
            &HplParams::order(8000),
        )
        .gflops;
        let g10000 = simulate_hpl(
            &s,
            &Configuration::p1m1_p2m2(1, 1, 0, 0),
            &HplParams::order(10_000),
        )
        .gflops;
        assert!(
            g10000 < 0.85 * g8000,
            "memory cliff: {g8000} -> {g10000} Gflops"
        );
    }
}
