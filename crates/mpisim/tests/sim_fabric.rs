//! Integration tests: collectives and contention on the discrete-event
//! fabric.

use std::future::Future;

use etm_cluster::spec::paper_cluster;
use etm_cluster::{CommLibProfile, Configuration, KindId, Placement};
use etm_mpisim::coll::{barrier, binomial_bcast, gather, ring_bcast};
use etm_mpisim::{run_sim_ranks, Comm, SimComm, SimFabric, SimMsg, SimRanks};
use etm_sim::Simulation;

/// Runs `body` as every rank of the given configuration and returns the
/// simulation's end time.
fn run_ranks<F, Fut>(cfg: Configuration, body: F) -> f64
where
    F: Fn(SimComm) -> Fut,
    Fut: Future<Output = ()> + 'static,
{
    let spec = paper_cluster(CommLibProfile::mpich122());
    let placement = Placement::new(&spec, &cfg).expect("the paper cluster fits the configuration");
    run_sim_ranks(&spec, &placement, "rank", |_, _| {}, |comm, _| body(comm)).makespan
}

#[test]
fn launcher_returns_results_in_rank_order_and_the_makespan() {
    // Rank r computes r + 1 seconds on its own CPU, so ranks finish in
    // rank order and the last rank's finish time is the makespan.
    let spec = paper_cluster(CommLibProfile::mpich122());
    let placement = Placement::new(&spec, &Configuration::p1m1_p2m2(1, 1, 4, 1)).unwrap();
    let SimRanks {
        outs: out,
        makespan,
        ..
    } = run_sim_ranks(
        &spec,
        &placement,
        "rank",
        |_, _| {},
        |comm, slot| {
            let kind = slot.kind;
            async move {
                comm.compute((comm.rank() + 1) as f64).await;
                (comm.rank(), kind, comm.now())
            }
        },
    );
    assert_eq!(out.len(), 5);
    for (r, (rank, kind, finish)) in out.iter().enumerate() {
        assert_eq!(*rank, r);
        assert_eq!(*kind, placement.slots[r].kind);
        assert_eq!(*finish, (r + 1) as f64);
    }
    assert_eq!(makespan.to_bits(), out[4].2.to_bits());
}

#[test]
fn launcher_derates_the_fabric_before_any_rank_runs() {
    // Every rank computes one second at t = 0; P-II CPUs derated 3x in
    // the hook must serve that whole second 3x slower.
    let spec = paper_cluster(CommLibProfile::mpich122());
    let placement = Placement::new(&spec, &Configuration::p1m1_p2m2(1, 1, 2, 1)).unwrap();
    let SimRanks {
        outs: out,
        makespan,
        ..
    } = run_sim_ranks(
        &spec,
        &placement,
        "rank",
        |sim, fabric| fabric.derate_kind_cpus(sim, &placement, KindId(1), 3.0),
        |comm, _| async move {
            comm.compute(1.0).await;
            comm.now()
        },
    );
    for (slot, finish) in placement.slots.iter().zip(&out) {
        let want = if slot.kind == KindId(1) { 3.0 } else { 1.0 };
        assert_eq!(*finish, want, "rank {}", slot.rank);
    }
    assert_eq!(makespan, 3.0);
}

#[test]
#[should_panic(expected = "finite positive")]
fn derating_an_absent_kind_still_checks_the_factor() {
    // No Athlon rank runs here, but a negative factor is still refused.
    let spec = paper_cluster(CommLibProfile::mpich122());
    let placement = Placement::new(&spec, &Configuration::p1m1_p2m2(0, 0, 2, 1)).unwrap();
    let mut sim = Simulation::new();
    let fabric = SimFabric::build(&mut sim, &spec, &placement);
    fabric.derate_kind_cpus(&mut sim, &placement, KindId(0), -1.0);
}

#[test]
fn ring_bcast_works_on_sim_fabric() {
    let end = run_ranks(Configuration::p1m1_p2m2(1, 1, 8, 1), |comm| async move {
        let msg = if comm.rank() == 0 {
            Some(SimMsg::of(1_000_000.0))
        } else {
            None
        };
        let got = ring_bcast(&comm, 0, msg).await;
        assert_eq!(got.bytes, 1_000_000.0);
    });
    // 8 inter-node hops of 1 MB at 11.5 MB/s each ≈ 0.087 s per hop; the
    // ring pipelines but our blocking sends serialize per rank: total
    // must be positive and bounded by P * per-hop.
    assert!(end > 0.05, "end {end}");
    assert!(end < 2.0, "end {end}");
}

#[test]
fn binomial_bcast_faster_than_ring_for_many_ranks() {
    // With store-and-forward blocking sends, binomial depth log2(P)
    // beats the ring's P-1 chain end-to-end latency for the last rank.
    let cfg = Configuration::p1m1_p2m2(1, 1, 8, 1);
    let bytes = 500_000.0;
    let t_ring = run_ranks(cfg.clone(), move |comm| async move {
        let msg = (comm.rank() == 0).then(|| SimMsg::of(bytes));
        let _ = ring_bcast(&comm, 0, msg).await;
    });
    let t_binom = run_ranks(cfg, move |comm| async move {
        let msg = (comm.rank() == 0).then(|| SimMsg::of(bytes));
        let _ = binomial_bcast(&comm, 0, msg).await;
    });
    assert!(
        t_binom < t_ring,
        "binomial {t_binom} should beat ring {t_ring}"
    );
}

#[test]
fn barrier_and_gather_on_sim_fabric() {
    run_ranks(Configuration::p1m1_p2m2(1, 2, 4, 1), |comm| async move {
        barrier(&comm).await;
        let res = gather(&comm, 0, SimMsg::of(comm.rank() as f64)).await;
        if comm.rank() == 0 {
            let all = res.unwrap();
            for (r, m) in all.iter().enumerate() {
                assert_eq!(m.bytes, r as f64);
            }
        } else {
            assert!(res.is_none());
        }
        barrier(&comm).await;
    });
}

#[test]
fn nic_contention_slows_concurrent_senders() {
    // Two senders on one node pushing to two receivers on other nodes
    // share the sender NIC: the run takes ~2x one transfer.
    let spec = paper_cluster(CommLibProfile::mpich122());
    let bytes = 2_000_000.0;
    let one_xfer = bytes / spec.network.bandwidth;

    // Both P-II CPUs of node2 send to the two CPUs of node3.
    let cfg = Configuration::p1m1_p2m2(0, 0, 4, 1);
    let placement = Placement::new(&spec, &cfg).unwrap();
    // Ranks are round-robin over CPUs: node2 holds ranks {0,1}? Find them.
    let on_first_node: Vec<usize> = placement
        .slots
        .iter()
        .filter(|s| s.node == placement.slots[0].node)
        .map(|s| s.rank)
        .collect();
    let elsewhere: Vec<usize> = placement
        .slots
        .iter()
        .filter(|s| s.node != placement.slots[0].node)
        .map(|s| s.rank)
        .collect();
    assert_eq!(on_first_node.len(), 2);
    assert_eq!(elsewhere.len(), 2);

    let mut sim = Simulation::new();
    let fabric = SimFabric::build(&mut sim, &spec, &placement);
    for (i, &rank) in on_first_node.iter().enumerate() {
        let seed = fabric.seed(rank);
        let dst = elsewhere[i];
        sim.spawn(format!("send{rank}"), move |ctx| async move {
            let comm = seed.bind(ctx);
            comm.send(dst, 5, SimMsg::of(bytes)).await;
        });
    }
    for (i, &rank) in elsewhere.iter().enumerate() {
        let seed = fabric.seed(rank);
        let src = on_first_node[i];
        sim.spawn(format!("recv{rank}"), move |ctx| async move {
            let comm = seed.bind(ctx);
            let _ = comm.recv(src, 5).await;
        });
    }
    let end = sim.run().unwrap();
    // Sender NIC serializes the two outbound transfers (~2x), then the
    // shared receiver NIC adds its store-and-forward stage.
    assert!(
        end > 1.8 * one_xfer,
        "shared NIC must serialize: end {end}, one transfer {one_xfer}"
    );
    assert!(end < 4.5 * one_xfer, "end {end} vs {one_xfer}");
}

#[test]
fn intra_node_send_contends_with_compute() {
    // A 4 MB intra-node copy while a co-resident rank computes: the copy
    // shares the CPU, so it takes about twice as long as when idle.
    let spec = paper_cluster(CommLibProfile::mpich122());
    let cfg = Configuration::p1m1_p2m2(1, 3, 0, 0);
    let bytes = 4e6;
    let copy_alone = bytes / spec.comm_lib.intra_throughput(bytes);

    // Rank 0 sends, rank 1 receives, rank 2 is the optional load.
    let run = |with_load: bool| {
        run_ranks(cfg.clone(), move |comm| async move {
            match comm.rank() {
                0 => comm.send(1, 9, SimMsg::of(bytes)).await,
                1 => {
                    let _ = comm.recv(0, 9).await;
                }
                _ if with_load => comm.compute(10.0 * copy_alone).await,
                _ => {}
            }
        })
    };
    let idle = run(false);
    let loaded = run(true);
    assert!(
        loaded > 1.5 * idle.max(copy_alone),
        "copy under load {loaded} vs idle {idle}"
    );
}
