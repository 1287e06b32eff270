//! Shadow-heap oracle harnesses: retire/reclaim lifecycle bugs become
//! deterministic checker reports.
//!
//! The mutation at the center: an *injected early free* — a scheme that
//! runs a retired object's destructor without waiting for its reader.
//! Address-based sanitizers catch this only when the allocator happens
//! to reuse the page; the shadow table (keyed by fresh id, validated
//! inside the access's scheduling step) catches it on the first racy
//! interleaving, and `Policy::Dpor` guarantees that interleaving is
//! reached on every run.

#![cfg(feature = "check")]

use rcuarray_analysis::atomic::{AtomicPtr, Ordering};
use rcuarray_analysis::shadow::TrackedCell;
use rcuarray_analysis::{thread, Checker, Config, Policy, Report, ShadowKind};
use rcuarray_ebr::{EpochGuard, EpochZone};
use rcuarray_qsbr::QsbrDomain;
use rcuarray_reclaim::{Reclaim, ReclaimStats, Retired};
use std::sync::Arc;

fn dpor_config(budget: usize) -> Config {
    Config {
        policy: Policy::Dpor,
        iterations: budget,
        ..Config::default()
    }
}

/// The injected early-free: retire + run the destructor immediately,
/// with a reader still active. Exhaustive exploration must reach the
/// read-after-reclaim interleaving on every run, report it with a
/// minimized schedule, and that schedule must replay.
#[test]
fn injected_early_free_caught_on_every_dpor_run() {
    let scenario = || {
        let cell = Arc::new(TrackedCell::new("early-free-payload", 7u64));
        let c2 = cell.clone();
        let reader = thread::spawn(move || {
            let _ = c2.read();
        });
        // Mutation: the destructor runs with no reader drain whatsoever.
        Retired::new(|| {}).tracked(cell.id()).run();
        let _ = reader.join();
    };

    for round in 0..2 {
        let report = Checker::new(dpor_config(64)).run(scenario);
        assert!(
            !report.shadow.is_empty(),
            "round {round}: early free not caught: {report}"
        );
        let v = report.shadow[0].clone();
        assert_eq!(v.kind, ShadowKind::UseAfterReclaim, "round {round}: {v}");
        assert_eq!(v.label, "early-free-payload");
        let schedule = v
            .schedule
            .clone()
            .expect("DPOR violations carry a schedule");

        let replay = Checker::replay(schedule.as_str(), &Config::default(), scenario);
        assert!(
            !replay.shadow.is_empty(),
            "round {round}: schedule {schedule:?} did not reproduce"
        );
        assert_eq!(replay.shadow[0].kind, ShadowKind::UseAfterReclaim);
    }
}

/// The fixed protocol — destructor runs only after the reader is joined
/// — must be clean under the same exhaustive exploration.
#[test]
fn drain_before_reclaim_is_clean_and_complete() {
    let report = Checker::new(dpor_config(128)).run(|| {
        let cell = Arc::new(TrackedCell::new("drained-payload", 7u64));
        let c2 = cell.clone();
        let reader = thread::spawn(move || {
            let _ = c2.read();
        });
        let retired = Retired::new(|| {}).tracked(cell.id());
        let _ = reader.join();
        // Reader drained: reclaiming is now legal.
        retired.run();
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.leaks.is_empty(), "{report}");
    let dpor = report.dpor.as_ref().unwrap();
    assert!(dpor.complete, "{dpor}");
}

/// Double-retire: two `tracked()` calls on the same id.
#[test]
fn double_retire_reported() {
    let report = Checker::new(dpor_config(16)).run(|| {
        let cell = TrackedCell::new("retired-twice", 1u64);
        let a = Retired::new(|| {}).tracked(cell.id());
        let b = Retired::new(|| {}).tracked(cell.id());
        let _ = cell.read();
        a.run();
        b.leak();
    });
    assert!(
        report
            .shadow
            .iter()
            .any(|v| v.kind == ShadowKind::DoubleRetire && v.label == "retired-twice"),
        "{report}"
    );
}

/// Retired but never reclaimed: reported as a leak at session end, with
/// the byte hint from registration.
#[test]
fn never_reclaimed_retired_object_reported_as_leak() {
    let report = Checker::new(dpor_config(8)).run(|| {
        let cell = TrackedCell::new("forgotten", 3u64);
        // Retire, then drop the Retired guard's destructor on the floor
        // by never running it (std::mem::forget on the *retired*, not a
        // guard — the lint only bans forgetting read guards).
        let retired = Retired::new(|| {}).tracked(cell.id());
        std::mem::forget(retired);
    });
    assert!(
        report.leaks.iter().any(|l| l.label == "forgotten"),
        "{report}"
    );
    // Leaks are accounting, not violations: the report stays "clean".
    assert!(report.races.is_empty() && report.shadow.is_empty());
}

/// `Retired::leak` is a *deliberate* leak: it must NOT show up in leak
/// accounting (that is what makes LeakReclaim's reports quiet).
#[test]
fn deliberate_leak_is_not_reported() {
    let report = Checker::new(dpor_config(8)).run(|| {
        let cell = TrackedCell::new("deliberate", 3u64);
        Retired::new(|| {}).tracked(cell.id()).leak();
        let _ = cell.read();
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.leaks.is_empty(), "{report}");
}

/// A real scheme's read/retire handshake under the oracle: a reader
/// takes `R`'s guard, loads the published pointer and touches the
/// tracked payload while the writer concurrently unlinks the pointer and
/// retires it through the same domain — nothing joins the reader before
/// the retire, so DPOR explores the guard/load steps against the
/// unlink/retire steps. The reader then calls `leave`: a checked
/// thread's TLS destructors run only after the session, so an exited QSBR
/// reader would stay registered and gate reclamation unless it parks.
/// The final `quiesce` must then leave nothing pending — a scheme that
/// never reclaims fails here, before teardown could reclaim for it.
///
/// The payload's storage outlives the scenario and the retire closure
/// frees nothing: the tracked cell stands in for the dereference, so a
/// broken protocol shows up as a shadow report, never as a real
/// use-after-free in the test process.
fn handshake<R: Reclaim + Default>(leave: fn(&R)) {
    let domain = Arc::new(R::default());
    let cell = Arc::new(TrackedCell::new("handshake-payload", 11u64));
    let payload = Box::into_raw(Box::new(11u64));
    let src = Arc::new(AtomicPtr::new(payload));

    let (d2, c2, s2) = (domain.clone(), cell.clone(), src.clone());
    let reader = thread::spawn(move || {
        {
            let _guard = d2.read_lock();
            // Loaded only after the guard is live.
            if !s2.load(Ordering::Acquire).is_null() {
                assert_eq!(c2.read(), 11);
            }
        }
        leave(&d2);
    });

    src.swap(std::ptr::null_mut(), Ordering::SeqCst);
    domain.retire(Retired::with_bytes(8, || {}).tracked(cell.id()));
    reader.join().unwrap();
    domain.quiesce();
    assert_eq!(
        domain.reclaim_stats().pending,
        0,
        "retired payload not reclaimed"
    );
    // SAFETY: the reader has joined and the source no longer holds it.
    drop(unsafe { Box::from_raw(payload) });
}

/// Explore [`handshake`] on `R` under DPOR.
///
/// EBR's retire drains by spin-waiting on the reader's parity counter,
/// and every extra spin iteration is a new dependence race with the
/// reader's unpin: unbounded, DPOR would extend that chain forever
/// before backtracking to shallower branches. The step cap cuts each
/// chain (those runs abort as budget-exhausted), so the exploration
/// completes and reaches every shallow branch — including the one the
/// early-free mutation below needs.
///
/// The first domain built in the process interns its metric handles
/// under the registry lock, an instrumented scheduling point; building
/// one outside the checker first keeps every explored run replayable.
fn explore_handshake<R: Reclaim + Default>(leave: fn(&R)) -> Report {
    drop(R::default());
    let config = Config {
        max_steps: 200,
        ..dpor_config(4000)
    };
    Checker::new(config).run(move || handshake(leave))
}

/// A clean handshake: no shadow report on any explored schedule, the
/// exploration completes, and runs cut off mid-drain (at most one leak
/// each, the payload still retired) are the only leaks.
fn assert_handshake_clean<R: Reclaim + Default>(leave: fn(&R)) {
    let report = explore_handshake(leave);
    assert!(report.is_clean(), "{report}");
    assert!(
        report.leaks.len() <= report.budget_exhausted.len(),
        "{report}"
    );
    let dpor = report.dpor.as_ref().unwrap();
    assert!(dpor.complete, "{dpor}");
}

#[test]
fn ebr_handshake_clean_under_dpor() {
    assert_handshake_clean::<EpochZone>(|_| {});
}

#[test]
fn qsbr_handshake_clean_under_dpor() {
    assert_handshake_clean(QsbrDomain::park);
}

/// Seeded mutation: EBR whose `retire` runs the destructor at once,
/// without draining the readers pinned in the old epoch. A reader that
/// loaded the pointer before the unlink then uses a reclaimed object.
#[derive(Default)]
struct EarlyFreeEbr(EpochZone);

impl Reclaim for EarlyFreeEbr {
    type Guard<'a> = EpochGuard<'a>;

    fn read_lock(&self) -> EpochGuard<'_> {
        self.0.read_lock()
    }

    fn retire(&self, retired: Retired) {
        retired.run();
    }

    fn quiesce(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "ebr-early-free"
    }

    fn reclaim_stats(&self) -> ReclaimStats {
        self.0.reclaim_stats()
    }
}

#[test]
fn ebr_early_free_caught_on_every_dpor_run() {
    for round in 0..2 {
        let report = explore_handshake::<EarlyFreeEbr>(|_| {});
        assert!(
            !report.shadow.is_empty(),
            "round {round}: early free not caught: {report}"
        );
        let v = report.shadow[0].clone();
        assert_eq!(v.kind, ShadowKind::UseAfterReclaim, "round {round}: {v}");
        assert_eq!(v.label, "handshake-payload");
        let schedule = v
            .schedule
            .clone()
            .expect("DPOR violations carry a schedule");

        let replay = Checker::replay(schedule.as_str(), &Config::default(), || {
            handshake::<EarlyFreeEbr>(|_| {})
        });
        assert!(
            !replay.shadow.is_empty(),
            "round {round}: schedule {schedule:?} did not reproduce"
        );
        assert_eq!(replay.shadow[0].kind, ShadowKind::UseAfterReclaim);
    }
}
