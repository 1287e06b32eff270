//! Deterministic-checker harnesses for the serving layer.
//!
//! Three properties, each under exhaustive (`Policy::Dpor`) exploration:
//!
//! 1. **Admission conservation.** Producers racing a draining worker
//!    through the service's real `BoundedQueue` never lose or duplicate
//!    a request: every push is either accepted (and later drained) or
//!    refused, under every interleaving.
//! 2. **Batch drain.** The worker's own drain, `pop_batch` with a zero
//!    timeout, conserves requests in FIFO order and never parks: a park
//!    with no producer left to notify would be reported as a deadlock.
//! 3. **Shed-vs-flush completion is at-most-once.** A shedder dropping
//!    an expired request races the worker flushing the same request's
//!    batch. Without the ticket's at-most-once guard the two completions
//!    collide — modeled as a `CheckedCell` double-write, DPOR finds the
//!    write/write race on *every* run, serializes a counterexample
//!    schedule, and that schedule replays. With the guard (the
//!    `TicketSlot::complete` protocol: a `done` flag checked and set
//!    under the same lock as the response write), the identical
//!    race surface is clean.

#![cfg(feature = "check")]

use rcuarray_analysis::atomic::{AtomicUsize, Ordering};
use rcuarray_analysis::sync::Mutex;
use rcuarray_analysis::{thread, CheckedCell, Checker, Config, Policy, RaceKind};
use rcuarray_service::{BoundedQueue, PopResult};
use std::sync::Arc;
use std::time::Duration;

fn dpor_config(budget: usize) -> Config {
    Config {
        policy: Policy::Dpor,
        iterations: budget,
        ..Config::default()
    }
}

/// Producer pushes through a capacity-1 queue while a worker drains:
/// accepted + refused == pushed and drained == accepted, under every
/// explored interleaving; no access is racy.
#[test]
fn queue_admission_conserves_requests_under_dpor() {
    let report = Checker::new(dpor_config(512)).run(|| {
        let q = Arc::new(BoundedQueue::<u64>::with_capacity(1));
        let accepted = Arc::new(AtomicUsize::new(0));
        let refused = Arc::new(AtomicUsize::new(0));

        let producer = {
            let q = Arc::clone(&q);
            let accepted = Arc::clone(&accepted);
            let refused = Arc::clone(&refused);
            thread::spawn(move || {
                for i in 0..2u64 {
                    match q.try_push(i) {
                        Ok(()) => accepted.fetch_add(1, Ordering::SeqCst),
                        Err(_) => refused.fetch_add(1, Ordering::SeqCst),
                    };
                }
            })
        };
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut drained = 0usize;
                // One bounded drain pass racing the producer, then a
                // final sweep after it quiesces — the checker needs
                // loops with a schedule-independent bound.
                for _ in 0..2 {
                    if q.try_pop().is_some() {
                        drained += 1;
                    }
                    thread::yield_now();
                }
                drained
            })
        };

        producer.join().expect("producer");
        let mut drained = worker.join().expect("worker");
        while q.try_pop().is_some() {
            drained += 1;
        }

        let accepted = accepted.load(Ordering::SeqCst);
        let refused = refused.load(Ordering::SeqCst);
        assert_eq!(accepted + refused, 2, "every push is accepted xor refused");
        assert_eq!(drained, accepted, "every accepted request is drained");
    });
    assert!(report.is_clean(), "admission must be race-free: {report}");
    assert!(
        report.iterations > 1,
        "DPOR explored more than one schedule"
    );
}

/// A producer pushes three requests into a capacity-2 queue while a
/// worker drains it the way a service worker does, `pop_batch(2, ..)`,
/// here with a zero timeout: accepted + refused == pushed, the worker
/// drains exactly the accepted requests in push order, no batch exceeds
/// two, no access is racy, and no schedule leaves the worker parked.
#[test]
fn pop_batch_drain_conserves_fifo_order_without_parking_under_dpor() {
    let report = Checker::new(dpor_config(512)).run(|| {
        let q = Arc::new(BoundedQueue::<u64>::with_capacity(2));

        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut accepted = Vec::new();
                let mut refused = 0usize;
                for i in 0..3u64 {
                    match q.try_push(i) {
                        Ok(()) => accepted.push(i),
                        Err(_) => refused += 1,
                    }
                }
                (accepted, refused)
            })
        };
        let drain = |q: &BoundedQueue<u64>, out: &mut Vec<u64>| {
            let before = out.len();
            match q.pop_batch(2, Duration::ZERO, out) {
                PopResult::Item(n) => {
                    assert!((1..=2).contains(&n), "a batch holds 1..=max items");
                    assert_eq!(out.len(), before + n);
                }
                PopResult::TimedOut => assert_eq!(out.len(), before),
                PopResult::Closed => panic!("the queue is never closed here"),
            }
        };
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut drained = Vec::new();
                // Bounded drain passes racing the producer; the sweep
                // below collects what arrives after them.
                for _ in 0..2 {
                    drain(&q, &mut drained);
                    thread::yield_now();
                }
                drained
            })
        };

        let (accepted, refused) = producer.join().expect("producer");
        let mut drained = worker.join().expect("worker");
        for _ in 0..2 {
            drain(&q, &mut drained);
        }

        assert_eq!(
            accepted.len() + refused,
            3,
            "every push is accepted xor refused"
        );
        assert_eq!(
            drained, accepted,
            "the accepted requests, each once, in push order"
        );
        assert!(q.is_empty());
    });
    assert!(report.is_clean(), "batch drain must be race-free: {report}");
    assert!(
        report.deadlocks.is_empty(),
        "a zero-timeout pop_batch parked: {report}"
    );
    assert!(
        report.iterations > 1,
        "DPOR explored more than one schedule"
    );
}

/// The response slot both racers target. `resp` is the client-visible
/// payload; a double completion is a write/write race on it.
struct BuggySlot {
    resp: CheckedCell<u64>,
}

const SHED: u64 = 1;
const DONE: u64 = 2;

/// The mutation: shed and flush complete the same ticket with no
/// at-most-once guard. DPOR must find the double-completion on every
/// run, hand back a serialized schedule, and the schedule must replay.
#[test]
fn unguarded_shed_vs_flush_double_completion_caught_and_replays() {
    let scenario = || {
        let slot = Arc::new(BuggySlot {
            resp: CheckedCell::new(0),
        });
        let shedder = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || slot.resp.write(SHED))
        };
        let flusher = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || slot.resp.write(DONE))
        };
        let _ = shedder.join();
        let _ = flusher.join();
    };

    for round in 0..2 {
        let report = Checker::new(dpor_config(64)).run(scenario);
        assert!(
            !report.races.is_empty(),
            "round {round}: double completion not caught: {report}"
        );
        let race = report.races[0].clone();
        assert_eq!(race.kind, RaceKind::WriteWrite, "round {round}: {race}");
        let schedule = race
            .schedule
            .clone()
            .expect("DPOR races carry a serialized counterexample schedule");

        let replay = Checker::replay(schedule.as_str(), &Config::default(), scenario);
        assert!(
            !replay.races.is_empty(),
            "round {round}: schedule {schedule:?} did not reproduce the double completion"
        );
        assert_eq!(replay.races[0].kind, RaceKind::WriteWrite);
    }
}

/// The fix, mirroring `TicketSlot::complete`: the response write and the
/// `done` check-and-set happen under one lock, so the loser of the race
/// observes `done` and drops its response. Same racers, clean report.
#[test]
fn guarded_shed_vs_flush_completes_exactly_once() {
    struct GuardedSlot {
        state: Mutex<(bool, u64)>,
        completions: AtomicUsize,
    }
    impl GuardedSlot {
        fn complete(&self, resp: u64) -> bool {
            let mut st = self.state.lock();
            if st.0 {
                return false;
            }
            *st = (true, resp);
            self.completions.fetch_add(1, Ordering::SeqCst);
            true
        }
    }

    let report = Checker::new(dpor_config(256)).run(|| {
        let slot = Arc::new(GuardedSlot {
            state: Mutex::new((false, 0)),
            completions: AtomicUsize::new(0),
        });
        let shedder = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || slot.complete(SHED))
        };
        let flusher = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || slot.complete(DONE))
        };
        let shed_won = shedder.join().expect("shedder");
        let flush_won = flusher.join().expect("flusher");

        assert!(shed_won ^ flush_won, "exactly one completion must win");
        assert_eq!(slot.completions.load(Ordering::SeqCst), 1);
        let st = slot.state.lock();
        assert!(st.0, "the ticket ends completed");
        assert!(st.1 == SHED || st.1 == DONE);
    });
    assert!(
        report.is_clean(),
        "guarded completion must be race-free: {report}"
    );
}
