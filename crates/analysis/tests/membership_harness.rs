//! Deterministic-checker harnesses for the availability layer
//! (DESIGN.md §15): failover reads racing a resize, replica writes
//! racing re-replication, and the acked-write hand-off racing failover
//! completion.
//!
//! The real protocol spans locales (`coforall_locales` runs on raw
//! scoped threads the checker cannot schedule), so — exactly as the
//! service harness models the ticket protocol — this harness models
//! the placement map's three load-bearing invariants in checker-visible
//! primitives:
//!
//! 1. **Guarded placement.** Failover lookup, replica fan-out, and the
//!    resize append/rollback all hold the one placement lock
//!    (`PlacementMap::with_groups`), so a failover read never observes
//!    a half-built or rolled-back group.
//! 2. **Atomic copy-then-swap.** Repair copies the donor and installs
//!    the fresh replica in a single critical section; a replica write
//!    serialized behind it always lands in the *current* cell. The
//!    mutation splits copy from install — the stale copy overwrites a
//!    concurrently acked write, a write/write race DPOR finds,
//!    serializes, and replays.
//! 3. **At-most-once ack.** The primary-path and failover-path
//!    completions of one acked write share a done flag under one lock.
//!    The mutation drops the guard; the two completions collide on the
//!    ack cell — the lost-ack race, caught and replayed from its
//!    schedule.

#![cfg(feature = "check")]

use rcuarray_analysis::atomic::{AtomicUsize, Ordering};
use rcuarray_analysis::sync::Mutex;
use rcuarray_analysis::{thread, CheckedCell, Checker, Config, Policy, RaceKind};
use std::sync::Arc;

fn dpor_config(budget: usize) -> Config {
    Config {
        policy: Policy::Dpor,
        iterations: budget,
        ..Config::default()
    }
}

/// One replicated block: primary cell plus one replica cell (rf = 2).
type Group = (Arc<CheckedCell<u64>>, Arc<CheckedCell<u64>>);

fn group(v: u64) -> Group {
    (Arc::new(CheckedCell::new(v)), Arc::new(CheckedCell::new(v)))
}

/// Failover read fully concurrent with a resize that appends a group
/// and rolls it back. The reader's primary home is `Down`, so every
/// read takes the failover path: look up the replica and load it under
/// the placement lock. On every explored schedule the read returns the
/// pre- or post-write value — never garbage, never an entry of the
/// rolled-back group — and group 0 stays pinned (Lemma 6 on the
/// replica).
#[test]
fn failover_read_concurrent_with_resize_clean_under_dpor() {
    let report = Checker::new(dpor_config(256)).run(|| {
        let groups: Arc<Mutex<Vec<Group>>> = Arc::new(Mutex::new(vec![group(5)]));

        let reader = {
            let groups = Arc::clone(&groups);
            thread::spawn(move || {
                for _ in 0..2 {
                    // Failover: primary home is Down, serve from the
                    // replica. Lookup and load share the lock, as in
                    // `failover_target` + the fan-out stores.
                    let g = groups.lock();
                    assert!(!g.is_empty(), "group 0 is pinned, never truncated");
                    let v = g[0].1.read();
                    assert!(v == 5 || v == 9, "failover read saw garbage: {v}");
                }
            })
        };

        let resizer = {
            let groups = Arc::clone(&groups);
            thread::spawn(move || {
                // Resize: append the new group under the lock...
                groups.lock().push(group(0));
                // ...abort, and roll the placement map back with the
                // snapshots (`ResizeRollback` truncates to old_nblocks).
                groups.lock().truncate(1);
                // A replicated write through the surviving group: the
                // primary store and the replica fan-out share the lock.
                let g = groups.lock();
                g[0].0.write(9);
                g[0].1.write(9);
            })
        };

        reader.join().expect("reader");
        resizer.join().expect("resizer");
        let g = groups.lock();
        assert_eq!(g.len(), 1, "rollback must drop exactly the aborted group");
        assert_eq!(g[0].0.read(), 9);
        assert_eq!(g[0].1.read(), 9, "fan-out reached the replica");
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty(), "{report}");
    assert!(
        report.iterations > 1,
        "DPOR explored more than one schedule"
    );
}

/// A replica slot whose cell repair can swap out, as
/// `repair_group` swaps `group.entries[slot]`.
struct ReplicaSlot {
    cell: Arc<CheckedCell<u64>>,
}

/// Replica write concurrent with re-replication, guarded: repair's
/// donor copy and fresh-cell install are one critical section, so a
/// writer serialized behind it always stores into the *current*
/// replica. On every schedule the last acked write (8) survives — the
/// zero-lost-acked-writes contract of the chaos acceptance test.
#[test]
fn replica_write_concurrent_with_rereplication_clean_under_dpor() {
    let report = Checker::new(dpor_config(256)).run(|| {
        let slot = Arc::new(Mutex::new(ReplicaSlot {
            cell: Arc::new(CheckedCell::new(5)),
        }));

        let writer = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                for v in [7u64, 8] {
                    // Fan-out store under the placement lock; the ack
                    // is implied by the store landing.
                    slot.lock().cell.write(v);
                }
            })
        };
        let repair = {
            let slot = Arc::clone(&slot);
            thread::spawn(move || {
                // Re-replication: copy the donor and install the fresh
                // replica atomically w.r.t. fan-out stores.
                let mut s = slot.lock();
                let copied = s.cell.read();
                s.cell = Arc::new(CheckedCell::new(copied));
            })
        };

        writer.join().expect("writer");
        repair.join().expect("repair");
        assert_eq!(
            slot.lock().cell.read(),
            8,
            "an acked replica write vanished across repair"
        );
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty(), "{report}");
}

/// The lost-update mutation: repair copies the donor under the lock but
/// installs *outside* it, so a concurrently acked fan-out write races
/// the stale install on the same cell — a write/write collision DPOR
/// catches deterministically, serializes, and replays. (Semantically:
/// the stale copy overwrites the acked 8 — the exact bug the atomic
/// copy-then-swap exists to prevent.)
#[test]
fn unguarded_repair_overwrite_caught_and_replays() {
    let scenario = || {
        let cell = Arc::new(CheckedCell::new(5u64));
        let lock = Arc::new(Mutex::new(()));

        let writer = {
            let cell = Arc::clone(&cell);
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                let _g = lock.lock();
                cell.write(8);
            })
        };
        let repair = {
            let cell = Arc::clone(&cell);
            let lock = Arc::clone(&lock);
            thread::spawn(move || {
                // BUG under test: the donor copy is guarded, the
                // install is not — split critical sections.
                let copied = {
                    let _g = lock.lock();
                    cell.read()
                };
                cell.write(copied);
            })
        };
        let _ = writer.join();
        let _ = repair.join();
    };

    let report = Checker::new(dpor_config(128)).run(scenario);
    assert!(!report.races.is_empty(), "lost update not caught: {report}");
    let race = report.races[0].clone();
    assert_eq!(race.kind, RaceKind::WriteWrite, "{race}");
    let schedule = race
        .schedule
        .clone()
        .expect("DPOR races carry a serialized counterexample schedule");
    let replay = Checker::replay(schedule.as_str(), &Config::default(), scenario);
    assert!(
        !replay.races.is_empty(),
        "schedule {schedule:?} did not reproduce the lost update"
    );
    assert_eq!(replay.races[0].kind, RaceKind::WriteWrite);
}

/// An acked write completed at most once, modeled after the service
/// ticket slot: done flag and ack value under one lock, like
/// `replicated_store_chunk` deciding the ack home once under the
/// placement lock.
struct GuardedAck {
    state: Mutex<(bool, u64)>,
    completions: AtomicUsize,
}

impl GuardedAck {
    fn new() -> Self {
        GuardedAck {
            state: Mutex::new((false, 0)),
            completions: AtomicUsize::new(0),
        }
    }

    fn complete(&self, route: u64) -> bool {
        let mut st = self.state.lock();
        if st.0 {
            return false;
        }
        *st = (true, route);
        self.completions.fetch_add(1, Ordering::SeqCst);
        true
    }
}

const ROUTE_PRIMARY: u64 = 1;
const ROUTE_FAILOVER: u64 = 2;

/// The acked-write hand-off, guarded: mid-write the detector marks the
/// primary `Down`, so the primary path and the failover path both try
/// to complete the same ack. Under every explored schedule exactly one
/// wins — the writer observes exactly one acked route, never zero,
/// never two.
#[test]
fn acked_write_failover_handoff_clean_under_dpor() {
    let report = Checker::new(dpor_config(256)).run(|| {
        let ack = Arc::new(GuardedAck::new());
        let up = Arc::new(AtomicUsize::new(1)); // primary's up bit

        let primary = {
            let ack = Arc::clone(&ack);
            let up = Arc::clone(&up);
            thread::spawn(move || {
                // The primary path completes only while its home is
                // still in view — the `is_up` consult in
                // `replicated_store_chunk`.
                if up.load(Ordering::SeqCst) == 1 {
                    ack.complete(ROUTE_PRIMARY);
                }
            })
        };
        let detector_and_failover = {
            let ack = Arc::clone(&ack);
            let up = Arc::clone(&up);
            thread::spawn(move || {
                // Detector: two missed probes mark the primary Down...
                up.store(0, Ordering::SeqCst);
                // ...and the failover path re-acks through the replica.
                ack.complete(ROUTE_FAILOVER);
            })
        };

        primary.join().expect("primary");
        detector_and_failover.join().expect("failover");
        assert_eq!(
            ack.completions.load(Ordering::SeqCst),
            1,
            "an acked write must be acked exactly once"
        );
        let st = ack.state.lock();
        assert!(st.0, "the write was never acked");
        assert!(st.1 == ROUTE_PRIMARY || st.1 == ROUTE_FAILOVER);
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty(), "{report}");
}

/// The seeded lost-ack mutation: the ack is a bare cell with no done
/// guard, so the primary path's completion races the failover path's
/// and one silently overwrites the other — a lost ack the writer can
/// never observe. DPOR catches the write/write collision on the ack
/// cell and the serialized schedule replays it, seed-independently.
#[test]
fn unguarded_lost_ack_caught_and_replays() {
    let scenario = || {
        let ack = Arc::new(CheckedCell::new(0u64));

        let complete = |route: u64| {
            let ack = Arc::clone(&ack);
            thread::spawn(move || {
                // BUG under test: no done flag, no lock — both routes
                // write the ack cell directly.
                ack.write(route);
            })
        };
        let p = complete(ROUTE_PRIMARY);
        let f = complete(ROUTE_FAILOVER);
        let _ = p.join();
        let _ = f.join();
    };

    for round in 0..2 {
        let report = Checker::new(dpor_config(64)).run(scenario);
        assert!(
            !report.races.is_empty(),
            "round {round}: lost ack not caught: {report}"
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
            "round {round}: schedule {schedule:?} did not reproduce the lost ack"
        );
        assert_eq!(replay.races[0].kind, RaceKind::WriteWrite);
    }
}

/// The guarded protocols again under seeded random sampling — the same
/// seeds the nightly chaos loop sweeps — as a cheap wide net beside
/// DPOR's systematic one.
#[test]
fn guarded_availability_protocols_clean_under_seeded_sampling() {
    for seed in [0x5eed_a501u64, 0x5eed_a502, 0x5eed_a503] {
        let report = Checker::new(Config {
            base_seed: seed,
            iterations: 16,
            ..Config::default()
        })
        .run(|| {
            let slot = Arc::new(Mutex::new(ReplicaSlot {
                cell: Arc::new(CheckedCell::new(5)),
            }));
            let ack = Arc::new(GuardedAck::new());

            let writer = {
                let slot = Arc::clone(&slot);
                let ack = Arc::clone(&ack);
                thread::spawn(move || {
                    slot.lock().cell.write(8);
                    ack.complete(ROUTE_PRIMARY);
                })
            };
            let repair = {
                let slot = Arc::clone(&slot);
                let ack = Arc::clone(&ack);
                thread::spawn(move || {
                    let mut s = slot.lock();
                    let copied = s.cell.read();
                    s.cell = Arc::new(CheckedCell::new(copied));
                    drop(s);
                    ack.complete(ROUTE_FAILOVER);
                })
            };
            writer.join().expect("writer");
            repair.join().expect("repair");
            assert_eq!(slot.lock().cell.read(), 8);
            assert_eq!(ack.completions.load(Ordering::SeqCst), 1);
        });
        assert!(report.is_clean(), "seed {seed:#x}: {report}");
    }
}
