//! End-to-end tests of the discrete-event kernel: timing semantics,
//! processor sharing, message passing, determinism and deadlock detection.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use etm_sim::Simulation;

#[test]
fn empty_simulation_finishes_at_zero() {
    let mut sim = Simulation::<()>::new();
    assert_eq!(sim.run().unwrap(), 0.0);
}

#[test]
fn hold_advances_time() {
    let mut sim = Simulation::<()>::new();
    let seen = Rc::new(RefCell::new(Vec::new()));
    let seen2 = Rc::clone(&seen);
    sim.spawn("p", move |ctx| async move {
        ctx.hold(1.5).await;
        seen2.borrow_mut().push(ctx.now());
        ctx.hold(0.5).await;
        seen2.borrow_mut().push(ctx.now());
    });
    let end = sim.run().unwrap();
    assert!((end - 2.0).abs() < 1e-12);
    let seen = seen.borrow();
    assert!((seen[0] - 1.5).abs() < 1e-12);
    assert!((seen[1] - 2.0).abs() < 1e-12);
}

#[test]
fn parallel_holds_overlap() {
    let mut sim = Simulation::<()>::new();
    for _ in 0..10 {
        sim.spawn("p", |ctx| async move { ctx.hold(3.0).await });
    }
    assert!((sim.run().unwrap() - 3.0).abs() < 1e-12);
}

#[test]
fn compute_on_uncontended_cpu_takes_work_over_speed() {
    let mut sim = Simulation::<()>::new();
    let cpu = sim.add_shared_resource("cpu", 2.0);
    sim.spawn("p", move |ctx| async move {
        ctx.compute(cpu, 6.0).await;
        assert!((ctx.now() - 3.0).abs() < 1e-12);
    });
    assert!((sim.run().unwrap() - 3.0).abs() < 1e-12);
}

#[test]
fn processor_sharing_two_jobs_double_duration() {
    let mut sim = Simulation::<()>::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    for _ in 0..2 {
        sim.spawn("p", move |ctx| async move { ctx.compute(cpu, 1.0).await });
    }
    assert!((sim.run().unwrap() - 2.0).abs() < 1e-12);
}

#[test]
fn processor_sharing_staggered_arrivals() {
    // Job A (2 units) starts at t=0; job B (3 units) at t=1.
    // A: 1 unit alone, then shares: finishes at t=3.
    // B: has consumed 1 unit by t=3, 2 remain alone: finishes at t=5.
    let mut sim = Simulation::<()>::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    let a_done = Rc::new(Cell::new(0.0));
    let a_done2 = Rc::clone(&a_done);
    sim.spawn("a", move |ctx| async move {
        ctx.compute(cpu, 2.0).await;
        a_done2.set(ctx.now());
    });
    sim.spawn("b", move |ctx| async move {
        ctx.hold(1.0).await;
        ctx.compute(cpu, 3.0).await;
        assert!((ctx.now() - 5.0).abs() < 1e-9, "b at {}", ctx.now());
    });
    let end = sim.run().unwrap();
    assert!((end - 5.0).abs() < 1e-9);
    assert!((a_done.get() - 3.0).abs() < 1e-9);
}

#[test]
fn transfer_includes_latency_and_bandwidth() {
    let mut sim = Simulation::<()>::new();
    // 100 bytes/s link, 0.5 s latency: 50 bytes take 0.5 + 0.5 = 1.0 s.
    let link = sim.add_shared_resource("link", 100.0);
    sim.spawn("s", move |ctx| async move {
        ctx.transfer(link, 50.0, 0.5).await;
        assert!((ctx.now() - 1.0).abs() < 1e-12);
    });
    assert!((sim.run().unwrap() - 1.0).abs() < 1e-12);
}

#[test]
fn send_recv_rendezvous() {
    let mut sim = Simulation::new();
    let mb = sim.add_mailbox();
    sim.spawn("sender", move |ctx| async move {
        ctx.hold(2.0).await;
        ctx.send(mb, 42u64);
    });
    sim.spawn("receiver", move |ctx| async move {
        let v: u64 = ctx.recv(mb).await;
        assert_eq!(v, 42);
        // Receiver was blocked until the send at t=2.
        assert!((ctx.now() - 2.0).abs() < 1e-12);
    });
    sim.run().unwrap();
}

#[test]
fn send_before_recv_is_buffered() {
    let mut sim = Simulation::new();
    let mb = sim.add_mailbox();
    sim.spawn("sender", move |ctx| async move {
        ctx.send(mb, 1u32);
        ctx.send(mb, 2u32);
    });
    sim.spawn("receiver", move |ctx| async move {
        ctx.hold(5.0).await;
        let a: u32 = ctx.recv(mb).await;
        let b: u32 = ctx.recv(mb).await;
        assert_eq!((a, b), (1, 2));
        assert!((ctx.now() - 5.0).abs() < 1e-12);
    });
    sim.run().unwrap();
}

#[test]
fn every_receiver_gets_its_own_payload_through_the_hand_off_slots() {
    // A simulation carries one message type; mixed payloads are its
    // variants. One process sends two variants back to back, another
    // sends and then holds; receivers are parked before some sends and
    // arrive after others. Debug builds also check that every resumed
    // receiver takes the message delivered to it.
    #[derive(Debug, PartialEq)]
    enum Payload {
        Word(u32),
        Name(String),
        Samples(Vec<f64>),
    }
    use Payload::{Name, Samples, Word};
    let mut sim = Simulation::new();
    let (words, names, late) = (sim.add_mailbox(), sim.add_mailbox(), sim.add_mailbox());
    sim.spawn("mixed-sender", move |ctx| async move {
        ctx.send(words, Word(7));
        ctx.send(names, Name(String::from("panel")));
        ctx.hold(1.0).await;
        ctx.send(words, Word(9));
        ctx.send(names, Name(String::from("update")));
    });
    sim.spawn("send-then-hold", move |ctx| async move {
        ctx.send(late, Samples(vec![1.5, 2.5]));
        ctx.hold(3.0).await;
    });
    sim.spawn("word-receiver", move |ctx| async move {
        let a = ctx.recv(words).await;
        let b = ctx.recv(words).await;
        assert_eq!((a, b), (Word(7), Word(9)));
        assert!((ctx.now() - 1.0).abs() < 1e-12);
    });
    sim.spawn("name-receiver", move |ctx| async move {
        ctx.hold(2.0).await;
        let a = ctx.recv(names).await;
        let b = ctx.recv(names).await;
        assert_eq!(
            (a, b),
            (Name(String::from("panel")), Name(String::from("update")))
        );
    });
    sim.spawn("late-receiver", move |ctx| async move {
        assert_eq!(ctx.recv(late).await, Samples(vec![1.5, 2.5]));
        assert_eq!(ctx.now(), 0.0);
    });
    assert!((sim.run().unwrap() - 3.0).abs() < 1e-12);
}

#[test]
fn ping_pong_alternates() {
    let mut sim = Simulation::new();
    let to_b = sim.add_mailbox();
    let to_a = sim.add_mailbox();
    sim.spawn("a", move |ctx| async move {
        for i in 0..100u32 {
            ctx.send(to_b, i);
            let echo: u32 = ctx.recv(to_a).await;
            assert_eq!(echo, i);
        }
    });
    sim.spawn("b", move |ctx| async move {
        for _ in 0..100 {
            let v: u32 = ctx.recv(to_b).await;
            ctx.send(to_a, v);
        }
    });
    sim.run().unwrap();
}

#[test]
fn deadlock_is_reported_with_process_names() {
    // Every blocked process is named, whether it parked at once, after
    // work on a resource, or after a hold; one that finished is not.
    let mut sim = Simulation::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    let never = sim.add_mailbox();
    let fed = sim.add_mailbox();
    sim.spawn("starved", move |ctx| async move {
        let _: u32 = ctx.recv(never).await;
    });
    sim.spawn("finishes", move |ctx| async move {
        ctx.compute(cpu, 1.0).await;
        ctx.send(fed, 1u32);
    });
    sim.spawn("waits-after-work", move |ctx| async move {
        let _: u32 = ctx.recv(fed).await;
        ctx.compute(cpu, 1.0).await;
        let _: u32 = ctx.recv(fed).await;
    });
    sim.spawn("waits-late", move |ctx| async move {
        ctx.hold(2.5).await;
        let _: u32 = ctx.recv(never).await;
    });
    let err = sim.run().unwrap_err();
    assert_eq!(err.blocked, ["starved", "waits-after-work", "waits-late"]);
    assert_eq!(err.at.secs(), 2.5);
    let msg = err.to_string();
    for name in &err.blocked {
        assert!(msg.contains(name.as_str()), "{msg}");
    }
    assert!(!msg.contains("finishes"));
}

#[test]
fn determinism_same_inputs_same_timings() {
    fn run_once() -> f64 {
        let mut sim = Simulation::new();
        let cpu = sim.add_shared_resource("cpu", 1.7);
        let link = sim.add_shared_resource("link", 1e6);
        let mb = sim.add_mailbox();
        for i in 0..8usize {
            sim.spawn(format!("w{i}"), move |ctx| async move {
                ctx.hold(0.01 * i as f64).await;
                ctx.compute(cpu, 0.3 + 0.05 * i as f64).await;
                ctx.transfer(link, 1e5, 1e-4).await;
                ctx.send(mb, i);
            });
        }
        sim.spawn("collector", move |ctx| async move {
            let mut sum = 0usize;
            for _ in 0..8 {
                sum += ctx.recv(mb).await;
            }
            assert_eq!(sum, 28);
        });
        sim.run().unwrap()
    }
    let a = run_once();
    let b = run_once();
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "simulation must be bit-deterministic"
    );
}

#[test]
fn many_processes_share_one_cpu_fairly() {
    let n = 16;
    let mut sim = Simulation::<()>::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    let finished = Rc::new(Cell::new(0));
    for _ in 0..n {
        let f = Rc::clone(&finished);
        sim.spawn("p", move |ctx| async move {
            ctx.compute(cpu, 1.0).await;
            f.set(f.get() + 1);
        });
    }
    let end = sim.run().unwrap();
    assert!((end - n as f64).abs() < 1e-9, "end={end}");
    assert_eq!(finished.get(), n);
}

#[test]
fn zero_work_compute_completes_at_current_time() {
    let mut sim = Simulation::<()>::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    sim.spawn("p", move |ctx| async move {
        ctx.hold(1.0).await;
        ctx.compute(cpu, 0.0).await;
        assert!((ctx.now() - 1.0).abs() < 1e-12);
    });
    sim.run().unwrap();
}

#[test]
#[should_panic(expected = "inside process")]
fn process_panics_propagate_to_run() {
    let mut sim = Simulation::<()>::new();
    sim.spawn("bad", |ctx| async move {
        ctx.hold(1.0).await;
        panic!("inside process");
    });
    let _ = sim.run();
}

#[test]
fn dropped_simulation_drops_parked_futures() {
    /// Sets its flag when dropped, i.e. when the future owning it is.
    struct DropFlag(Rc<Cell<bool>>);
    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }
    let dropped = Rc::new(Cell::new(false));
    let mut sim = Simulation::new();
    let mb = sim.add_mailbox();
    let flag = DropFlag(Rc::clone(&dropped));
    sim.spawn("parked", move |ctx| async move {
        let _flag = flag;
        let _: u32 = ctx.recv(mb).await;
    });
    assert!(sim.run().is_err(), "the receiver stays parked");
    assert!(!dropped.get(), "a parked process keeps its future");
    drop(sim);
    assert!(dropped.get(), "dropping the simulation drops the future");
}

#[test]
fn send_then_recv_at_one_instant_takes_no_time_and_no_switch() {
    // A self-send followed by a receive completes inside one resume: the
    // clock does not move and the other runnable process does not run
    // in between.
    let mut sim = Simulation::new();
    let mb = sim.add_mailbox();
    let other_ran = Rc::new(Cell::new(false));
    let seen = Rc::clone(&other_ran);
    sim.spawn("self-send", move |ctx| async move {
        ctx.hold(1.0).await;
        ctx.send(mb, 7u32);
        let v: u32 = ctx.recv(mb).await;
        assert_eq!(v, 7);
        assert_eq!(ctx.now(), 1.0);
        assert!(!seen.get(), "no other process ran between send and recv");
    });
    let flag = Rc::clone(&other_ran);
    sim.spawn("other", move |ctx| async move {
        ctx.hold(1.0).await;
        flag.set(true);
    });
    assert_eq!(sim.run().unwrap(), 1.0);
    assert!(other_ran.get());
}

/// A process body that counts how often the kernel polls it.
struct CountPolls<F> {
    polls: Rc<Cell<u32>>,
    body: Pin<Box<F>>,
}

impl<F: Future<Output = ()>> Future for CountPolls<F> {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        self.polls.set(self.polls.get() + 1);
        self.body.as_mut().poll(cx)
    }
}

fn counted<F: Future<Output = ()>>(polls: &Rc<Cell<u32>>, body: F) -> CountPolls<F> {
    CountPolls {
        polls: Rc::clone(polls),
        body: Box::pin(body),
    }
}

#[test]
fn a_woken_receiver_runs_before_its_senders_next_primitive_at_the_same_instant() {
    // The sender wakes a parked receiver and then yields a zero-time
    // primitive at the same instant. The receiver's wake is scheduled
    // first, so it holds the lower sequence number and runs first. The
    // sender's one-second hold finishes in place (the queue is empty),
    // but the zero-time primitive must not: the receiver woken in the
    // same poll still waits to be scheduled.
    for zero_work_compute in [false, true] {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let cpu = sim.add_shared_resource("cpu", 1.0);
        let mb = sim.add_mailbox();
        let seen = Rc::clone(&log);
        sim.spawn("receiver", move |ctx| async move {
            let v: u32 = ctx.recv(mb).await;
            seen.borrow_mut().push(("receiver", v, ctx.now()));
        });
        let seen = Rc::clone(&log);
        sim.spawn("sender", move |ctx| async move {
            ctx.hold(1.0).await;
            ctx.send(mb, 5);
            if zero_work_compute {
                ctx.compute(cpu, 0.0).await;
            } else {
                ctx.hold(0.0).await;
            }
            seen.borrow_mut().push(("sender", 0, ctx.now()));
        });
        assert_eq!(sim.run().unwrap(), 1.0);
        assert_eq!(
            *log.borrow(),
            [("receiver", 5, 1.0), ("sender", 0, 1.0)],
            "zero-work compute: {zero_work_compute}"
        );
        // Two starts, the in-place hold, the receiver's wake and the
        // zero-time primitive's.
        assert_eq!((sim.events(), sim.polls()), (5, 4));
    }
}

#[test]
fn send_and_a_recv_of_a_waiting_message_do_not_yield() {
    // The message is posted at t = 0, long before the receive at t = 1.
    // Neither the send nor that receive yields: each process is polled
    // once per primitive that takes time, plus its start, and no other
    // process runs between the receive and the statement after it.
    let log = Rc::new(RefCell::new(Vec::new()));
    let (sender_polls, receiver_polls) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let mut sim = Simulation::new();
    let mb = sim.add_mailbox();
    sim.spawn("sender", |ctx| {
        counted(&sender_polls, async move {
            ctx.send(mb, 1u32);
            ctx.send(mb, 2u32);
        })
    });
    let seen = Rc::clone(&log);
    sim.spawn("receiver", |ctx| {
        counted(&receiver_polls, async move {
            ctx.hold(1.0).await;
            let a = ctx.recv(mb).await;
            seen.borrow_mut().push("receiver took one");
            let b = ctx.recv(mb).await;
            seen.borrow_mut().push("receiver took two");
            assert_eq!((a, b), (1, 2));
        })
    });
    let seen = Rc::clone(&log);
    sim.spawn("other", move |ctx| async move {
        ctx.hold(1.0).await;
        seen.borrow_mut().push("other");
    });
    assert_eq!(sim.run().unwrap(), 1.0);
    assert_eq!(
        *log.borrow(),
        ["receiver took one", "receiver took two", "other"]
    );
    assert_eq!(sender_polls.get(), 1, "sends complete in place");
    assert_eq!(receiver_polls.get(), 2, "its start and its hold's wake");
}

#[test]
fn a_ring_of_parked_receivers_dispatches_one_event_per_hand_off() {
    // Four processes in a ring; each parks on its own mailbox, then
    // forwards what it receives to the next. Rank 0 holds one second
    // before each lap, so every other rank is parked when its message
    // arrives. Hand count for three laps:
    //   t=0      four start wakes                        4 events
    //   per lap  rank 0's hold                           1
    //            four hand-offs, each waking a parked
    //            receiver at the instant of its send      4
    // 4 + 3 * (1 + 4) = 19. Every event but two resumes one live
    // process: in laps 2 and 3, rank 0 is the last rank woken and the
    // queue is empty when it starts its hold, so the hold's wake is the
    // next event and finishes in place, inside the poll that received
    // the message. The kernel polls 19 - 2 = 17 times.
    const RANKS: usize = 4;
    const LAPS: u32 = 3;
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::new();
    let mbs: Vec<_> = (0..RANKS).map(|_| sim.add_mailbox()).collect();
    for rank in 0..RANKS {
        let (own, next) = (mbs[rank], mbs[(rank + 1) % RANKS]);
        let seen = Rc::clone(&log);
        sim.spawn(format!("r{rank}"), move |ctx| async move {
            for lap in 0..LAPS {
                if rank == 0 {
                    ctx.hold(1.0).await;
                    ctx.send(next, lap);
                }
                let v = ctx.recv(own).await;
                assert_eq!(v, lap);
                seen.borrow_mut().push((rank, ctx.now()));
                if rank != 0 {
                    ctx.send(next, v);
                }
            }
        });
    }
    assert_eq!(sim.run().unwrap(), f64::from(LAPS));
    let want: Vec<(usize, f64)> = (1..=LAPS)
        .flat_map(|lap| [1, 2, 3, 0].map(|rank| (rank, f64::from(lap))))
        .collect();
    assert_eq!(*log.borrow(), want);
    assert_eq!(sim.stats().events, 19);
    assert_eq!(sim.polls(), 17);
}

#[test]
fn a_lone_process_runs_in_one_poll_with_one_event_per_primitive() {
    // Nothing else is queued, so every hold and every compute on the idle
    // CPU (speed 2) finishes inside the process's start poll, moving the
    // clock as its wake would. The receive takes a message the process
    // posted to itself, so it takes no event.
    let polls = Rc::new(Cell::new(0));
    let seen = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::new();
    let cpu = sim.add_shared_resource("cpu", 2.0);
    let mb = sim.add_mailbox();
    let log = Rc::clone(&seen);
    sim.spawn("alone", |ctx| {
        counted(&polls, async move {
            let mark = || log.borrow_mut().push(ctx.now());
            ctx.hold(0.5).await;
            mark();
            ctx.compute(cpu, 1.0).await;
            mark();
            ctx.hold(0.0).await;
            mark();
            ctx.compute(cpu, 0.0).await;
            mark();
            ctx.compute(cpu, 3.0).await;
            mark();
            ctx.send(mb, 1u32);
            assert_eq!(ctx.recv(mb).await, 1);
            mark();
            ctx.hold(0.25).await;
            mark();
        })
    });
    assert_eq!(sim.run().unwrap(), 2.75);
    assert_eq!(*seen.borrow(), [0.5, 1.0, 1.0, 1.0, 2.5, 2.5, 2.75]);
    assert_eq!((polls.get(), sim.polls()), (1, 1));
    let stats = sim.stats();
    assert_eq!(stats.events, 1 + 6, "the start and six primitives");
    let cpu = stats.resources["cpu"];
    assert_eq!(
        (cpu.busy_seconds, cpu.work_served, cpu.jobs_completed),
        (2.0, 4.0, 3)
    );
}

#[test]
fn a_co_completer_still_waiting_runs_before_the_first_ones_next_hold() {
    // a and b share the CPU and complete together at t = 2. The kernel
    // resumes a first; its zero hold must not finish in place, since b
    // has not yet been polled at that instant. b, the last one resumed,
    // sees a's wake queued ahead of its own zero hold.
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::<()>::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    for name in ["a", "b"] {
        let seen = Rc::clone(&log);
        sim.spawn(name, move |ctx| async move {
            ctx.compute(cpu, 1.0).await;
            seen.borrow_mut().push((name, 1, ctx.now()));
            ctx.hold(0.0).await;
            seen.borrow_mut().push((name, 2, ctx.now()));
        });
    }
    assert_eq!(sim.run().unwrap(), 2.0);
    assert_eq!(
        *log.borrow(),
        [("a", 1, 2.0), ("b", 1, 2.0), ("a", 2, 2.0), ("b", 2, 2.0)]
    );
    // Two starts, the shared completion, two zero holds; no hold was in
    // place.
    assert_eq!((sim.events(), sim.polls()), (5, 6));
}

#[test]
fn a_compute_on_a_busy_resource_yields() {
    // a computes 4 units alone from t = 0. b's hold finishes in place at
    // t = 1, ahead of a's wake at t = 4, but its compute finds the CPU
    // busy and yields: from t = 1 both run at half speed, b finishes at
    // t = 3 and a, with 2 units left, at t = 5.
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::<()>::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    for (name, arrive, work) in [("a", 0.0, 4.0), ("b", 1.0, 1.0)] {
        let seen = Rc::clone(&log);
        sim.spawn(name, move |ctx| async move {
            if arrive > 0.0 {
                ctx.hold(arrive).await;
            }
            ctx.compute(cpu, work).await;
            seen.borrow_mut().push((name, ctx.now()));
        });
    }
    assert_eq!(sim.run().unwrap(), 5.0);
    assert_eq!(*log.borrow(), [("b", 3.0), ("a", 5.0)]);
    // Two starts, b's in-place hold, the completions at t = 3 and 5.
    assert_eq!((sim.events(), sim.polls()), (5, 4));
    assert_eq!(sim.stats().resources["cpu"].jobs_completed, 2);
}

#[test]
fn a_wake_behind_a_queued_event_yields() {
    // p's wake at t = 3 is queued. q's first hold ends at t = 1, ahead
    // of it, and finishes in place; its second ends at t = 3 too, but
    // with the higher sequence number, so it yields and p runs first.
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::<()>::new();
    let seen = Rc::clone(&log);
    sim.spawn("p", move |ctx| async move {
        ctx.hold(3.0).await;
        seen.borrow_mut().push(("p", ctx.now()));
    });
    let seen = Rc::clone(&log);
    sim.spawn("q", move |ctx| async move {
        ctx.hold(1.0).await;
        seen.borrow_mut().push(("q", ctx.now()));
        ctx.hold(2.0).await;
        seen.borrow_mut().push(("q", ctx.now()));
    });
    assert_eq!(sim.run().unwrap(), 3.0);
    assert_eq!(*log.borrow(), [("q", 1.0), ("p", 3.0), ("q", 3.0)]);
    // p's own hold yields too: q's start was queued ahead of it.
    assert_eq!((sim.events(), sim.polls()), (5, 4));
}

#[test]
fn two_cpus_independent() {
    let mut sim = Simulation::<()>::new();
    let cpu0 = sim.add_shared_resource("cpu0", 1.0);
    let cpu1 = sim.add_shared_resource("cpu1", 1.0);
    sim.spawn("a", move |ctx| async move {
        ctx.compute(cpu0, 2.0).await;
        assert!((ctx.now() - 2.0).abs() < 1e-12);
    });
    sim.spawn("b", move |ctx| async move {
        ctx.compute(cpu1, 2.0).await;
        assert!((ctx.now() - 2.0).abs() < 1e-12);
    });
    assert!((sim.run().unwrap() - 2.0).abs() < 1e-12);
}

#[test]
fn stats_track_utilization_and_events() {
    let mut sim = Simulation::<()>::new();
    let cpu = sim.add_shared_resource("cpu", 1.0);
    sim.spawn("worker", move |ctx| async move {
        ctx.compute(cpu, 1.0).await;
        ctx.hold(1.0).await; // idle second
        ctx.compute(cpu, 2.0).await;
    });
    let end = sim.run().unwrap();
    assert!((end - 4.0).abs() < 1e-9);
    let stats = sim.stats();
    assert_eq!(stats.end_seconds, end);
    assert!(stats.events > 0);
    let cpu_stats = &stats.resources["cpu"];
    assert!((cpu_stats.busy_seconds - 3.0).abs() < 1e-9);
    assert!((cpu_stats.work_served - 3.0).abs() < 1e-9);
    assert_eq!(cpu_stats.jobs_completed, 2);
    let (name, util) = stats.bottleneck().unwrap();
    assert_eq!(name, "cpu");
    assert!((util - 0.75).abs() < 1e-9);
}

#[test]
fn derated_resource_serves_slower_end_to_end() {
    // Identical work on a clean and a 2x-derated CPU: the derated run
    // takes exactly twice the virtual time.
    let wall_of = |slowdown: Option<f64>| {
        let mut sim = Simulation::<()>::new();
        let cpu = sim.add_shared_resource("cpu", 1.0);
        if let Some(s) = slowdown {
            sim.derate_resource(cpu, s);
        }
        sim.spawn("p", move |ctx| async move { ctx.compute(cpu, 3.0).await });
        sim.run().unwrap()
    };
    let clean = wall_of(None);
    let derated = wall_of(Some(2.0));
    assert!((clean - 3.0).abs() < 1e-12);
    assert!((derated - 6.0).abs() < 1e-12);
}

#[test]
fn derate_is_deterministic_under_contention() {
    // Two co-scheduled jobs on a derated CPU: processor sharing still
    // applies, on top of the slowdown, bit-identically across runs.
    let run_once = || {
        let mut sim = Simulation::<()>::new();
        let cpu = sim.add_shared_resource("cpu", 1.0);
        sim.derate_resource(cpu, 1.5);
        for i in 0..2 {
            sim.spawn(format!("p{i}"), move |ctx| async move {
                ctx.compute(cpu, 1.0).await
            });
        }
        sim.run().unwrap()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.to_bits(), b.to_bits());
    assert!((a - 3.0).abs() < 1e-9, "2 jobs x 1.0 work at speed 1/1.5");
}

#[test]
fn late_arrivals_and_a_derate_dispatch_only_live_events() {
    // The CPU is derated from speed 2 to 1 before the run (the kernel
    // only takes a derate between runs). Job a (2 units) starts at t=0,
    // b (3 units) arrives at t=1 and c (1 unit) at t=2. Hand count:
    //   t=0    three start wakes                            3 events
    //   t=1    b's wake; a's completion moves from 2 to 3    1
    //   t=2    c's wake; a's completion moves from 3 to 3.5  1
    //   t=3.5  a completes, c now due at 4.5                 1
    //   t=4.5  c completes, b (1.5 left, alone) due at 6     1
    //   t=6    b completes                                   1
    // a starts alone, so its completion is its own wake at t=2; b's
    // arrival drops that wake for the CPU's one queue entry, and c's
    // rewrites the entry, so neither the t=2 nor the t=3 completion is
    // ever dispatched.
    let mut sim = Simulation::<()>::new();
    let cpu = sim.add_shared_resource("cpu", 2.0);
    sim.derate_resource(cpu, 2.0);
    let done = Rc::new(RefCell::new(Vec::new()));
    for (name, arrive, work) in [("a", 0.0, 2.0), ("b", 1.0, 3.0), ("c", 2.0, 1.0)] {
        let done = Rc::clone(&done);
        sim.spawn(name, move |ctx| async move {
            if arrive > 0.0 {
                ctx.hold(arrive).await;
            }
            ctx.compute(cpu, work).await;
            done.borrow_mut().push((name, ctx.now()));
        });
    }
    let end = sim.run().unwrap();
    assert!((end - 6.0).abs() < 1e-9, "end={end}");
    let done = done.borrow();
    let names: Vec<&str> = done.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, ["a", "c", "b"]);
    for (&(name, t), want) in done.iter().zip([3.5, 4.5, 6.0]) {
        assert!((t - want).abs() < 1e-9, "{name} at {t}, want {want}");
    }
    let stats = sim.stats();
    assert_eq!(stats.events, 8, "only live events are dispatched");
    assert_eq!(stats.resources["cpu"].jobs_completed, 3);
}

#[test]
fn equal_time_events_run_in_insertion_order_including_negative_zero_holds() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::<()>::new();
    for (name, dt) in [("p0", 0.0), ("p1", -0.0), ("p2", 0.0), ("p3", -0.0)] {
        let log = Rc::clone(&log);
        sim.spawn(name, move |ctx| async move {
            // A zero hold at t=0, then another at t=1: both rounds must
            // resume in spawn order whatever the sign of the zero.
            ctx.hold(dt).await;
            log.borrow_mut().push((name, ctx.now()));
            ctx.hold(1.0).await;
            ctx.hold(dt).await;
            log.borrow_mut().push((name, ctx.now()));
        });
    }
    assert_eq!(sim.run().unwrap(), 1.0);
    let log = log.borrow();
    let order: Vec<&str> = log.iter().map(|&(n, _)| n).collect();
    assert_eq!(order, ["p0", "p1", "p2", "p3", "p0", "p1", "p2", "p3"]);
    let times: Vec<f64> = log.iter().map(|&(_, t)| t).collect();
    assert_eq!(times, [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]);
    assert!(times.iter().all(|t| t.is_sign_positive()));
}
