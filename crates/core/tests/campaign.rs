//! Integration tests of the parallel measurement campaign: it must be
//! bit-identical at every worker count, and the simulator work behind
//! each of the paper's campaigns is pinned.

use etm_cluster::spec::paper_cluster;
use etm_cluster::{ClusterSpec, CommLibProfile};
use etm_core::pipeline::{run_construction_threads, simulate_construction_point};
use etm_core::plan::MeasurementPlan;
use etm_support::json;
use etm_support::pool;

const NB: usize = 64;

/// The Basic plan cut down to its smallest problem sizes, so a full
/// campaign runs in well under a second per worker count.
fn small_plan() -> MeasurementPlan {
    let mut plan = MeasurementPlan::basic();
    plan.construction.retain(|p| p.n <= 800);
    assert!(
        plan.construction.len() >= 20,
        "need enough points to exercise the fan-out"
    );
    plan
}

#[test]
fn campaign_is_bit_identical_at_any_worker_count() {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let plan = small_plan();
    let serial = json::to_string(&run_construction_threads(&spec, &plan, NB, 1));
    let widths = [2, pool::num_threads().max(2)];
    for threads in widths {
        let parallel = json::to_string(&run_construction_threads(&spec, &plan, NB, threads));
        assert_eq!(serial, parallel, "campaign diverged at {threads} worker(s)");
    }
}

/// Kernel events and process polls summed over every construction
/// trial of `plan`.
fn simulator_work(spec: &ClusterSpec, plan: &MeasurementPlan) -> (u64, u64) {
    let runs = pool::par_map(&plan.construction, pool::num_threads(), |_, point| {
        let run = simulate_construction_point(spec, point, NB);
        (run.events, run.polls)
    });
    runs.iter()
        .fold((0, 0), |(e, p), (de, dp)| (e + de, p + dp))
}

/// Count gate on the simulator. Events are exact: a different count
/// means the simulated behaviour changed. Polls are an upper bound, to
/// be lowered by the change that earns it.
#[test]
fn campaign_simulator_work_is_pinned() {
    let spec = paper_cluster(CommLibProfile::mpich122());
    for (plan, events, max_polls) in [
        (MeasurementPlan::basic(), 1_808_005, 1_814_161),
        (MeasurementPlan::nl(), 585_741, 590_911),
        (MeasurementPlan::ns(), 137_502, 138_418),
    ] {
        let (got_events, got_polls) = simulator_work(&spec, &plan);
        assert_eq!(got_events, events, "{:?} campaign events", plan.kind);
        assert!(
            got_polls <= max_polls,
            "{:?} campaign polled {got_polls} times, bound {max_polls}",
            plan.kind
        );
    }
}
