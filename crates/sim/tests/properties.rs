//! Property tests of the discrete-event kernel's conservation and
//! ordering invariants, driven by the deterministic in-tree harness
//! ([`etm_support::prop`]).

use std::cell::RefCell;
use std::rc::Rc;

use etm_sim::Simulation;
use etm_support::prop::check;
use etm_support::rng::Rng64;

/// `count` pairs of (hold, work) durations in `[0, hi)`.
fn schedule(rng: &mut Rng64, count: usize, hi: f64) -> Vec<(f64, f64)> {
    (0..count)
        .map(|_| (rng.range_f64(0.0, hi), rng.range_f64(0.0, hi)))
        .collect()
}

/// The simulation ends exactly when the last process finishes:
/// end = max over processes of its serial (hold + compute-alone)
/// schedule when every process has a private CPU.
#[test]
fn private_cpus_end_time_is_max_schedule() {
    check(24, 0x5349_4d31, |rng| {
        let nprocs = rng.range_inclusive(1, 5);
        let schedules: Vec<Vec<(f64, f64)>> = (0..nprocs)
            .map(|_| {
                let steps = rng.range_inclusive(1, 4);
                schedule(rng, steps, 0.5)
            })
            .collect();
        let mut sim = Simulation::<()>::new();
        let mut expected: f64 = 0.0;
        for (i, sched) in schedules.iter().enumerate() {
            let cpu = sim.add_shared_resource(format!("cpu{i}"), 1.0);
            let total: f64 = sched.iter().map(|(h, w)| h + w).sum();
            expected = expected.max(total);
            let sched = sched.clone();
            sim.spawn(format!("p{i}"), move |ctx| async move {
                for (hold, work) in sched {
                    ctx.hold(hold).await;
                    ctx.compute(cpu, work).await;
                }
            });
        }
        let end = sim.run().expect("simulation completes");
        assert!(
            (end - expected).abs() < 1e-9,
            "end {end} vs expected {expected}"
        );
    });
}

/// Work conservation on a shared CPU: total served work equals the sum
/// of submitted work, and the makespan is at least that sum (unit-speed
/// resource, no idling because all jobs start at t=0).
#[test]
fn shared_cpu_makespan_equals_total_work() {
    check(24, 0x5349_4d32, |rng| {
        let works: Vec<f64> = (0..rng.range_inclusive(1, 7))
            .map(|_| rng.range_f64(0.01, 1.0))
            .collect();
        let mut sim = Simulation::<()>::new();
        let cpu = sim.add_shared_resource("cpu", 1.0);
        let total: f64 = works.iter().sum();
        for (i, w) in works.iter().enumerate() {
            let w = *w;
            sim.spawn(format!("w{i}"), move |ctx| async move {
                ctx.compute(cpu, w).await
            });
        }
        let end = sim.run().expect("simulation completes");
        assert!(
            (end - total).abs() < 1e-6 * total.max(1.0),
            "makespan {end} vs total work {total}"
        );
    });
}

/// Processor sharing preserves completion ORDER by job size when all
/// jobs arrive together.
#[test]
fn shared_cpu_smaller_jobs_finish_first() {
    check(24, 0x5349_4d33, |rng| {
        let works: Vec<f64> = (0..rng.range_inclusive(2, 5))
            .map(|_| rng.range_f64(0.01, 1.0))
            .collect();
        let mut sim = Simulation::<()>::new();
        let cpu = sim.add_shared_resource("cpu", 1.0);
        let finish = Rc::new(RefCell::new(Vec::new()));
        for (i, w) in works.iter().enumerate() {
            let w = *w;
            let finish = Rc::clone(&finish);
            sim.spawn(format!("w{i}"), move |ctx| async move {
                ctx.compute(cpu, w).await;
                finish.borrow_mut().push((i, ctx.now()));
            });
        }
        sim.run().expect("simulation completes");
        let finish = finish.borrow();
        for (i, ti) in finish.iter() {
            for (j, tj) in finish.iter() {
                if works[*i] < works[*j] - 1e-12 {
                    assert!(
                        ti <= tj,
                        "job {i} ({}) finished after job {j} ({})",
                        works[*i],
                        works[*j]
                    );
                }
            }
        }
    });
}

/// FIFO mailboxes deliver in send order regardless of message count.
#[test]
fn mailbox_order_preserved() {
    check(24, 0x5349_4d34, |rng| {
        let count = rng.range_inclusive(1, 49);
        let mut sim = Simulation::new();
        let mb = sim.add_mailbox();
        sim.spawn("sender", move |ctx| async move {
            for i in 0..count {
                ctx.send(mb, i);
            }
        });
        sim.spawn("receiver", move |ctx| async move {
            for i in 0..count {
                let got: usize = ctx.recv(mb).await;
                assert_eq!(got, i);
            }
        });
        assert!(sim.run().is_ok());
    });
}

/// Bit-for-bit determinism for arbitrary workloads.
#[test]
fn arbitrary_workloads_are_deterministic() {
    check(24, 0x5349_4d35, |rng| {
        let count = rng.range_inclusive(2, 5);
        let works = schedule(rng, count, 0.3);
        let run = |works: Vec<(f64, f64)>| -> f64 {
            let mut sim = Simulation::new();
            let cpu = sim.add_shared_resource("cpu", 1.3);
            let mb = sim.add_mailbox();
            let n = works.len();
            for (i, (h, w)) in works.into_iter().enumerate() {
                sim.spawn(format!("p{i}"), move |ctx| async move {
                    ctx.hold(h).await;
                    ctx.compute(cpu, w).await;
                    ctx.send(mb, i);
                });
            }
            sim.spawn("collector", move |ctx| async move {
                for _ in 0..n {
                    let _: usize = ctx.recv(mb).await;
                }
            });
            sim.run().expect("simulation completes")
        };
        let a = run(works.clone());
        let b = run(works);
        assert_eq!(a.to_bits(), b.to_bits());
    });
}
