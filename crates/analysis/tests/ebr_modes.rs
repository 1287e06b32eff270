//! Ordering-mode mutation tests against the *real* EBR zone
//! (`rcuarray_ebr::EpochZone`), exercised through the instrumented facade.
//!
//! The scenario is the paper's read-side protocol verbatim: a reader pins,
//! loads the published slot index, reads the slot, and unpins; the writer
//! publishes a new slot, runs advance + wait-for-readers (Algorithm 1's
//! writer barrier), then reuses the retired slot. Soundness claim under
//! test: the barrier must order every pinned reader's slot access before
//! the writer's reuse write.
//!
//! - `OrderingMode::Relaxed` (the seeded mutation) must produce a
//!   detected race with a reproducing seed;
//! - `SeqCst` (the paper's configuration, the only one an array runs)
//!   must come out clean across a bounded-exploration sweep.

#![cfg(feature = "check")]

use rcuarray_analysis::atomic::{AtomicUsize, Ordering};
use rcuarray_analysis::{thread, CheckedCell, Checker, Config, Policy};
use rcuarray_ebr::{EpochZone, OrderingMode};
use std::sync::Arc;

struct Shared {
    zone: EpochZone,
    /// Two payload slots; the active one is published via `cur`.
    slots: [CheckedCell<u64>; 2],
    cur: AtomicUsize,
}

/// Intern the zone's process-wide metric handles outside the checker.
/// The first interning takes the registry lock, an instrumented
/// scheduling point: without this, whichever checked run builds the
/// first zone in the process explores a schedule its own replay cannot
/// reproduce, and the outcome depends on test order.
fn warm_metric_handles() {
    drop(EpochZone::new());
}

/// The read-vs-reclaim scenario for one ordering mode.
fn scenario(mode: OrderingMode) -> impl Fn() + Send + Sync + 'static {
    warm_metric_handles();
    move || {
        let sh = Arc::new(Shared {
            zone: EpochZone::with_mode(mode),
            slots: [CheckedCell::new(1), CheckedCell::new(2)],
            cur: AtomicUsize::new(0),
        });

        let r = sh.clone();
        let reader = thread::spawn(move || {
            let ticket = r.zone.pin();
            let idx = r.cur.load(Ordering::Acquire);
            let v = r.slots[idx].read();
            assert!(v == 1 || v == 2, "torn or reused value: {v}");
            r.zone.unpin(ticket);
        });

        // Writer (the root thread): publish slot 1, then retire slot 0.
        sh.slots[1].write(2);
        sh.cur.store(1, Ordering::Release);
        let old = sh.zone.advance();
        sh.zone.wait_for_readers(old);
        // Reuse of the retired slot. Safe iff the barrier ordered every
        // reader of slot 0 before this write.
        sh.slots[0].write(0xDEAD);

        let _ = reader.join();
    }
}

fn sweep(mode: OrderingMode) -> rcuarray_analysis::Report {
    Checker::new(Config {
        base_seed: 0x5eed_eb20,
        iterations: 48,
        ..Config::default()
    })
    .run(scenario(mode))
}

#[test]
fn relaxed_mode_races_with_reproducing_seed() {
    let report = sweep(OrderingMode::Relaxed);
    assert!(
        !report.is_clean(),
        "the unsound Relaxed mode must be caught within the sweep"
    );
    let race = report.first_race().unwrap().clone();
    // The race is on the retired slot: reader's plain read vs the
    // writer's reuse write, both in this file.
    assert!(race.first.site.contains("ebr_modes.rs"), "{race}");
    assert!(race.second.site.contains("ebr_modes.rs"), "{race}");

    // The recorded seed replays the exact interleaving.
    let replay = Checker::replay(
        race.seed,
        &Config::default(),
        scenario(OrderingMode::Relaxed),
    );
    assert!(
        !replay.is_clean(),
        "seed {:#x} did not reproduce",
        race.seed
    );
}

/// The read-vs-reclaim scenario with the *reader* protocol on the root
/// thread and the writer spawned. Same mutation surface as
/// [`scenario`], but oriented so the racy interleaving (reader pinned
/// and reading the old slot before the writer publishes) sits shallow
/// in the DPOR exploration tree: the zone's pin-retry and barrier spin
/// loops make deep subtrees combinatorially large, and depth-first
/// exploration must drain a subtree before backtracking above it.
/// Bounded harnesses meant for exhaustive modes are oriented so the
/// property under test does not hide behind a spin subtree.
fn reader_rooted(mode: OrderingMode) -> impl Fn() + Send + Sync + 'static {
    warm_metric_handles();
    move || {
        let sh = Arc::new(Shared {
            zone: EpochZone::with_mode(mode),
            slots: [CheckedCell::new(1), CheckedCell::new(2)],
            cur: AtomicUsize::new(0),
        });

        let w = sh.clone();
        let writer = thread::spawn(move || {
            w.slots[1].write(2);
            w.cur.store(1, Ordering::Release);
            let old = w.zone.advance();
            w.zone.wait_for_readers(old);
            w.slots[0].write(0xDEAD);
        });

        let ticket = sh.zone.pin();
        let idx = sh.cur.load(Ordering::Acquire);
        let v = sh.slots[idx].read();
        assert!(v == 1 || v == 2, "torn or reused value: {v}");
        sh.zone.unpin(ticket);

        let _ = writer.join();
    }
}

/// The Relaxed-mode mutation under [`Policy::Dpor`]: the race must be
/// found on *every* run — systematic exploration, no seed sweep, no
/// luck — and the minimized counterexample schedule must replay. The
/// barrier spins (each extra probe is its own Mazurkiewicz trace), so
/// this asserts detection within the budget, not exhaustion.
#[test]
fn relaxed_mode_found_on_every_dpor_run() {
    for round in 0..2 {
        let report = Checker::new(Config {
            policy: Policy::Dpor,
            iterations: 64,
            ..Config::default()
        })
        .run(reader_rooted(OrderingMode::Relaxed));
        assert!(
            !report.is_clean(),
            "round {round}: Relaxed mode not caught by exhaustive exploration: {report}"
        );
        let race = report.first_race().unwrap().clone();
        let schedule = race
            .schedule
            .clone()
            .expect("DPOR counterexamples carry a schedule");
        let replay = Checker::replay(
            schedule.as_str(),
            &Config::default(),
            reader_rooted(OrderingMode::Relaxed),
        );
        assert!(
            !replay.is_clean(),
            "round {round}: schedule {schedule:?} did not reproduce"
        );
    }
}

/// The paper's SeqCst configuration under the same exploration budget:
/// no interleaving within the budget races.
#[test]
fn seqcst_mode_clean_under_dpor() {
    let report = Checker::new(Config {
        policy: Policy::Dpor,
        iterations: 64,
        ..Config::default()
    })
    .run(reader_rooted(OrderingMode::SeqCst));
    assert!(report.is_clean(), "{report}");
}

#[test]
fn seqcst_mode_is_clean() {
    let report = sweep(OrderingMode::SeqCst);
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty());
}

/// Two concurrent readers against one writer under the paper's SeqCst
/// protocol: the barrier must serialize reclamation against both.
#[test]
fn two_readers_sound_modes_clean() {
    let report = Checker::new(Config {
        base_seed: 0x5eed_eb21,
        iterations: 24,
        ..Config::default()
    })
    .run(move || {
        let sh = Arc::new(Shared {
            zone: EpochZone::new(),
            slots: [CheckedCell::new(1), CheckedCell::new(2)],
            cur: AtomicUsize::new(0),
        });
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let r = sh.clone();
                thread::spawn(move || {
                    let ticket = r.zone.pin();
                    let idx = r.cur.load(Ordering::Acquire);
                    let _ = r.slots[idx].read();
                    r.zone.unpin(ticket);
                })
            })
            .collect();
        sh.slots[1].write(2);
        sh.cur.store(1, Ordering::Release);
        let old = sh.zone.advance();
        sh.zone.wait_for_readers(old);
        sh.slots[0].write(0xDEAD);
        for h in handles {
            let _ = h.join();
        }
    });
    assert!(report.is_clean(), "{report}");
}
