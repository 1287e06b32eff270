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
use rcuarray_analysis::{thread, Checker, Config, Policy, ShadowKind};
use rcuarray_baselines::{HazardDomain, HazardGuard};
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

/// The hazard-pointer handshake under the oracle: a reader protects the
/// published pointer through `R::protect` and touches the tracked payload
/// while the writer concurrently unlinks the pointer and retires it
/// through the same domain — nothing joins the reader first, so DPOR
/// explores the protect/validate steps against the unlink/scan steps.
///
/// The payload's storage outlives the scenario and the retire closure
/// frees nothing: the tracked cell stands in for the dereference, so a
/// broken protocol shows up as a shadow report, never as a real
/// use-after-free in the test process.
fn hazard_handshake<R: Reclaim + Default>() {
    let domain = Arc::new(R::default());
    let cell = Arc::new(TrackedCell::new("hazard-payload", 11u64));
    let payload = Box::into_raw(Box::new(11u64));
    let src = Arc::new(AtomicPtr::new(payload));

    let (d2, c2, s2) = (domain.clone(), cell.clone(), src.clone());
    let reader = thread::spawn(move || {
        let (_guard, p) = d2.protect(&s2);
        if !p.is_null() {
            assert_eq!(c2.read(), 11);
        }
    });

    let old = src.swap(std::ptr::null_mut(), Ordering::SeqCst);
    domain.retire(Retired::with_hint(8, old as usize, || {}).tracked(cell.id()));
    reader.join().unwrap();
    // SAFETY: the reader has joined and the source no longer holds it.
    drop(unsafe { Box::from_raw(payload) });
}

/// The writer's slot scan spin-waits while the reader's hazard is set,
/// and every extra spin iteration is a new dependence race with the
/// reader's clearing store: unbounded, DPOR would extend that chain
/// forever before backtracking to shallower branches. The step cap cuts
/// each chain (those runs abort as budget-exhausted), so the exploration
/// completes and reaches every shallow branch — including the one the
/// mutation below needs.
fn hazard_dpor_config() -> Config {
    Config {
        max_steps: 700,
        ..dpor_config(4000)
    }
}

/// The real `HazardDomain` is clean on every explored schedule. Runs cut
/// off mid-spin end with the payload still retired, which the oracle
/// reports as a leak: there is at most one per aborted run.
#[test]
fn hazard_protect_revalidate_clean_under_dpor() {
    let report = Checker::new(hazard_dpor_config()).run(hazard_handshake::<HazardDomain>);
    assert!(report.is_clean(), "{report}");
    assert!(
        report.leaks.len() <= report.budget_exhausted.len(),
        "{report}"
    );
    let dpor = report.dpor.as_ref().unwrap();
    assert!(dpor.complete, "{dpor}");
}

/// Seeded mutation: hazard pointers whose `protect` publishes the loaded
/// pointer but skips the SeqCst re-validation load. A writer can then
/// unlink and scan between the reader's load and its publication, and
/// free the object the reader goes on to use.
#[derive(Default)]
struct SkipRevalidate(HazardDomain);

impl Reclaim for SkipRevalidate {
    type Guard<'a> = HazardGuard<'a>;

    fn read_lock(&self) -> HazardGuard<'_> {
        self.0.read_lock()
    }

    fn protect<'a, T>(&'a self, src: &AtomicPtr<T>) -> (HazardGuard<'a>, *mut T) {
        let guard = self.0.read_lock();
        let p = src.load(Ordering::Acquire);
        guard.publish(p);
        (guard, p)
    }

    fn retire(&self, retired: Retired) {
        self.0.retire(retired)
    }

    fn quiesce(&self) -> usize {
        0
    }

    fn guards_reads(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "hazard-skip-revalidate"
    }

    fn reclaim_stats(&self) -> ReclaimStats {
        self.0.reclaim_stats()
    }
}

#[test]
fn hazard_skipped_revalidation_caught_on_every_dpor_run() {
    for round in 0..2 {
        let report = Checker::new(hazard_dpor_config()).run(hazard_handshake::<SkipRevalidate>);
        assert!(
            !report.shadow.is_empty(),
            "round {round}: skipped re-validation not caught: {report}"
        );
        let v = report.shadow[0].clone();
        assert_eq!(v.kind, ShadowKind::UseAfterReclaim, "round {round}: {v}");
        assert_eq!(v.label, "hazard-payload");
        let schedule = v
            .schedule
            .clone()
            .expect("DPOR violations carry a schedule");

        let replay = Checker::replay(
            schedule.as_str(),
            &Config::default(),
            hazard_handshake::<SkipRevalidate>,
        );
        assert!(
            !replay.shadow.is_empty(),
            "round {round}: schedule {schedule:?} did not reproduce"
        );
        assert_eq!(replay.shadow[0].kind, ShadowKind::UseAfterReclaim);
    }
}
