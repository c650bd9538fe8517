//! The *timed* Jacobi: [`TimedSweep`] runs the numeric stencil's rank
//! body, [`stencil_rank`], against the discrete-event fabric with
//! calibrated virtual-time charges instead of arithmetic: memory-bound
//! sweeps, byte-count halo rows and an 8-byte convergence all-reduce.
//! It produces the same `(Ta, Tc)` sample shape as the HPL simulation,
//! so the estimation pipeline runs unchanged on a second application;
//! `crates/hpl/tests/send_sequence.rs` checks that it sends the numeric
//! run's messages, byte for byte.

use std::future::Future;

use etm_cluster::{ClusterSpec, Configuration, KindId, PerfModel, Placement, ProcSlot};
use etm_mpisim::{run_sim_ranks, SimComm, SimMsg, SimRanks};

use crate::rank::{stencil_rank, strip, Side, StencilTimes, SweepWork};

/// Parameters of a timed stencil run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StencilParams {
    /// Grid side length N (the problem-size axis for the models).
    pub(crate) n: usize,
    /// Jacobi iterations.
    pub(crate) iters: usize,
}

impl StencilParams {
    /// A run of side `n` with an iteration count proportional to `n`
    /// (keeps total work O(N³)-ish like a real convergence run).
    pub fn side(n: usize) -> Self {
        StencilParams { n, iters: n / 4 }
    }
}

/// Outcome of one timed stencil run.
#[derive(Clone, Debug)]
pub struct StencilRun {
    /// Per-rank phases.
    pub phases: Vec<StencilTimes>,
    /// Kind of each rank.
    pub(crate) kinds: Vec<KindId>,
    /// Nodes spanned.
    pub nodes_used: usize,
    /// End-to-end virtual seconds.
    pub wall_seconds: f64,
}

impl StencilRun {
    /// Max `Ta` over ranks of a kind.
    pub fn ta_of_kind(&self, kind: KindId) -> Option<f64> {
        self.fold(kind, |p| p.ta())
    }

    /// Max `Tc` over ranks of a kind.
    pub fn tc_of_kind(&self, kind: KindId) -> Option<f64> {
        self.fold(kind, |p| p.tc())
    }

    fn fold(&self, kind: KindId, f: impl Fn(&StencilTimes) -> f64) -> Option<f64> {
        self.phases
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| **k == kind)
            .map(|(p, _)| f(p))
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
    }
}

/// What one stencil rank pays per iteration. Its kind, CPU sharing and
/// strip fix every charge, so a rank is priced once, before it starts.
#[derive(Clone, Copy, Debug)]
pub struct SweepPrices {
    /// Seconds of one sweep over the strip.
    sweep: f64,
    /// Seconds idled after the halo exchange to get the CPU back.
    stall: f64,
    /// Bytes of one halo row: N doubles.
    halo_bytes: f64,
}

impl SweepPrices {
    /// The charges of the rank on `slot` of `placement` for a side-`n`
    /// grid, under `pm`.
    pub fn new(pm: &PerfModel, placement: &Placement, slot: &ProcSlot, n: usize) -> Self {
        let (kind, m) = (slot.kind, placement.procs_on_cpu(slot));
        let oc = pm.node_overcommit(placement, slot.node, 1);
        let (start, end) = strip(n, placement.len(), slot.rank);
        // 5-point sweep: ~5 reads + 1 write per cell, memory-bound.
        let sweep_bytes = 6.0 * 8.0 * ((end - start) * n) as f64;
        SweepPrices {
            sweep: pm.memop_time(kind, sweep_bytes, oc) * pm.mp_factor(kind, m),
            stall: pm.sync_stall(kind, m),
            halo_bytes: 8.0 * n as f64,
        }
    }
}

/// One rank's charges for the timed stencil, on its simulated
/// communicator.
pub struct TimedSweep<'a> {
    comm: &'a SimComm,
    prices: SweepPrices,
}

impl<'a> TimedSweep<'a> {
    /// The rank behind `comm`, charged `prices`.
    pub fn new(comm: &'a SimComm, prices: SweepPrices) -> Self {
        TimedSweep { comm, prices }
    }
}

impl SweepWork for TimedSweep<'_> {
    type Msg = SimMsg;

    fn now(&self) -> f64 {
        self.comm.now()
    }

    fn edge_row(&self, _: Side) -> SimMsg {
        SimMsg::of(self.prices.halo_bytes)
    }

    fn fill_halo(&mut self, _: Side, _: SimMsg) {}

    async fn sync_stall(&mut self) {
        if self.prices.stall > 0.0 {
            self.comm.idle(self.prices.stall).await;
        }
    }

    fn sweep(&mut self) -> impl Future<Output = ()> {
        self.comm.compute(self.prices.sweep)
    }

    /// One double, as the numeric run's change.
    fn local_change(&self) -> SimMsg {
        SimMsg::of(8.0)
    }

    fn max_change(&self, _: Vec<SimMsg>) -> SimMsg {
        SimMsg::of(8.0)
    }

    fn set_residual(&mut self, _: SimMsg) {}
}

/// Simulates a stencil run under `config`.
///
/// # Panics
/// Panics if the configuration is invalid or the simulation deadlocks.
pub fn simulate_stencil(
    spec: &ClusterSpec,
    config: &Configuration,
    params: &StencilParams,
) -> StencilRun {
    let placement = Placement::new(spec, config).expect("invalid configuration");
    let params = *params;
    let pm = PerfModel::new(spec, params.n, placement.len());
    let SimRanks {
        outs: phases,
        makespan: wall_seconds,
        ..
    } = run_sim_ranks(
        spec,
        &placement,
        "stencil-rank",
        |_, _| {},
        |comm, slot| {
            let prices = SweepPrices::new(&pm, &placement, slot, params.n);
            async move {
                let mut work = TimedSweep::new(&comm, prices);
                stencil_rank(&comm, params.iters, &mut work).await
            }
        },
    );
    StencilRun {
        kinds: placement.slots.iter().map(|s| s.kind).collect(),
        nodes_used: placement.used_nodes().count(),
        phases,
        wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etm_cluster::commlib::CommLibProfile;
    use etm_cluster::spec::paper_cluster;

    fn spec() -> ClusterSpec {
        paper_cluster(CommLibProfile::mpich122())
    }

    #[test]
    fn single_pe_run_is_compute_only() {
        let run = simulate_stencil(
            &spec(),
            &Configuration::p1m1_p2m2(1, 1, 0, 0),
            &StencilParams::side(512),
        );
        assert_eq!(run.phases.len(), 1);
        let ph = &run.phases[0];
        assert!(ph.compute > 0.0);
        assert_eq!(ph.halo, 0.0, "no neighbours, no halo");
        assert!(ph.reduce < 1e-9, "self-reduce is free");
        assert!(run.wall_seconds > 0.0);
    }

    #[test]
    fn communication_fraction_grows_with_p() {
        // Halo + reduce are O(N) per iteration while compute is O(N²/P):
        // more processes -> larger communication share.
        let s = spec();
        let params = StencilParams::side(1024);
        let frac = |p2: usize| {
            let run = simulate_stencil(&s, &Configuration::p1m1_p2m2(0, 0, p2, 1), &params);
            let ph = run
                .phases
                .iter()
                .fold((0.0f64, 0.0f64), |(a, c), p| (a + p.ta(), c + p.tc()));
            ph.1 / (ph.0 + ph.1)
        };
        let f2 = frac(2);
        let f8 = frac(8);
        assert!(f8 > f2, "comm share must grow: P=2 {f2} vs P=8 {f8}");
    }

    #[test]
    fn faster_kind_finishes_sweeps_sooner() {
        let s = spec();
        let run = simulate_stencil(
            &s,
            &Configuration::p1m1_p2m2(1, 1, 4, 1),
            &StencilParams::side(1024),
        );
        let ta_fast = run.ta_of_kind(KindId(0)).unwrap();
        let ta_slow = run.ta_of_kind(KindId(1)).unwrap();
        // Memory-bound: ratio tracks mem_bw (650/220 ≈ 3), not flops.
        let ratio = ta_slow / ta_fast;
        assert!((1.5..5.0).contains(&ratio), "mem-bw ratio, got {ratio}");
    }

    #[test]
    fn deterministic() {
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(1, 2, 2, 1);
        let a = simulate_stencil(&s, &cfg, &StencilParams::side(512));
        let b = simulate_stencil(&s, &cfg, &StencilParams::side(512));
        assert_eq!(a.wall_seconds.to_bits(), b.wall_seconds.to_bits());
    }

    #[test]
    fn iters_scale_time_linearly() {
        let s = spec();
        let cfg = Configuration::p1m1_p2m2(0, 0, 4, 1);
        let t1 = simulate_stencil(&s, &cfg, &StencilParams { n: 512, iters: 50 }).wall_seconds;
        let t2 = simulate_stencil(&s, &cfg, &StencilParams { n: 512, iters: 100 }).wall_seconds;
        let ratio = t2 / t1;
        assert!((1.9..2.1).contains(&ratio), "iteration scaling {ratio}");
    }
}
