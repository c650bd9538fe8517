//! Property tests of the discrete-event kernel's conservation and
//! ordering invariants, driven by the deterministic in-tree harness
//! ([`etm_support::prop`]).

use std::cell::RefCell;
use std::rc::Rc;

use etm_sim::Simulation;
use etm_support::hash::Fnv1a;
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

/// One step of a [`lone_and_shared_golden`] process script.
#[derive(Clone, Copy, Debug)]
enum Step {
    Hold(f64),
    Compute(usize, f64),
    /// Post to the mailbox of a higher-numbered process.
    Send(usize),
    /// Take one message from the process's own mailbox.
    Recv,
}

/// Resource speeds: powers of two keep quantized times exact, so jobs
/// join and finish at the same instant; 1.3 and 3.0 do not.
const SPEEDS: [f64; 5] = [0.5, 1.0, 2.0, 1.3, 3.0];

/// A duration or work amount: half the time a multiple of 0.25 in
/// `[0, 0.75]` (zero included), else uniform in `[0, hi)`.
fn amount(rng: &mut Rng64, hi: f64) -> f64 {
    if rng.chance(0.5) {
        rng.range_usize(4) as f64 * 0.25
    } else {
        rng.range_f64(0.0, hi)
    }
}

/// Seeded scripts for `nprocs` processes over `nres` resources. A
/// process receives only from lower-numbered ones, one `Recv` per
/// message sent to it, so every script runs to the end.
fn scripts(rng: &mut Rng64, nprocs: usize, nres: usize) -> Vec<Vec<Step>> {
    let mut scripts: Vec<Vec<Step>> = vec![Vec::new(); nprocs];
    for (p, script) in scripts.iter_mut().enumerate() {
        for _ in 0..rng.range_inclusive(1, 6) {
            let step = match rng.range_usize(5) {
                0 => Step::Hold(amount(rng, 0.6)),
                1..=3 => Step::Compute(rng.range_usize(nres), amount(rng, 0.6)),
                _ if p + 1 < nprocs => Step::Send(rng.range_inclusive(p + 1, nprocs - 1)),
                _ => Step::Hold(0.0),
            };
            script.push(step);
        }
    }
    for p in 0..nprocs {
        let sends: Vec<usize> = scripts[p]
            .iter()
            .filter_map(|s| match s {
                Step::Send(to) => Some(*to),
                _ => None,
            })
            .collect();
        for to in sends {
            let at = rng.range_inclusive(0, scripts[to].len());
            scripts[to].insert(at, Step::Recv);
        }
    }
    scripts
}

/// Kernel golden for a resource's lone and shared service: seeded
/// workloads of 2–6 processes over 1–3 resources of unequal speed mix
/// holds, zero-work computes, joins at the same instant and mid-service,
/// and mailbox wakes at equal times, sometimes on a derated resource.
/// An FNV-1a digest folds every step's completion time, each resource's
/// statistics, and the kernel's events, so any change to the order or
/// the arithmetic of service moves it. The kernel's polls are pinned
/// apart, as a total: a change to how often processes are resumed may
/// move that pin alone.
#[test]
fn lone_and_shared_golden() {
    let mut h = Fnv1a::new();
    let mut polls = 0;
    check(200, 0x4c4f_4e45, |rng| {
        let nres = rng.range_inclusive(1, 3);
        let speeds: Vec<f64> = (0..nres)
            .map(|_| SPEEDS[rng.range_usize(SPEEDS.len())])
            .collect();
        let nprocs = rng.range_inclusive(2, 6);
        let scripts = scripts(rng, nprocs, nres);
        let derate = rng.chance(0.25).then(|| rng.range_f64(0.5, 3.0));

        let mut sim = Simulation::new();
        let res: Vec<_> = speeds
            .iter()
            .enumerate()
            .map(|(i, &s)| sim.add_shared_resource(format!("r{i}"), s))
            .collect();
        if let Some(slowdown) = derate {
            sim.derate_resource(res[0], slowdown);
        }
        let boxes: Vec<_> = (0..nprocs).map(|_| sim.add_mailbox()).collect();
        let times = Rc::new(RefCell::new(vec![Vec::new(); nprocs]));
        for (p, script) in scripts.into_iter().enumerate() {
            let (res, boxes, times) = (res.clone(), boxes.clone(), Rc::clone(&times));
            sim.spawn(format!("p{p}"), move |ctx| async move {
                for step in script {
                    match step {
                        Step::Hold(dt) => ctx.hold(dt).await,
                        Step::Compute(r, work) => ctx.compute(res[r], work).await,
                        Step::Send(to) => ctx.send(boxes[to], p),
                        Step::Recv => {
                            let from: usize = ctx.recv(boxes[p]).await;
                            assert!(from < p, "p{p} received from p{from}");
                        }
                    }
                    times.borrow_mut()[p].push(ctx.now());
                }
            });
        }
        let end = sim.run().expect("scripts never deadlock");
        h.update(&end.to_bits().to_le_bytes());
        for t in times.borrow().iter().flatten() {
            h.update(&t.to_bits().to_le_bytes());
        }
        h.update(&sim.events().to_le_bytes());
        polls += sim.polls();
        for s in sim.stats().resources.values() {
            h.update(&s.busy_seconds.to_bits().to_le_bytes());
            h.update(&s.work_served.to_bits().to_le_bytes());
            h.update(&s.jobs_completed.to_le_bytes());
        }
    });
    let (got, want) = (h.finish(), 0xc38f_c7d1_a6c8_ffd4);
    assert_eq!(
        got, want,
        "kernel digest moved (got {got:#018x}, want {want:#018x})"
    );
    // 3,265 before a hold or a lone compute whose wake is the next event
    // finished inside its own poll; the digest above did not move.
    assert_eq!(polls, 2566, "kernel polls moved");
}
