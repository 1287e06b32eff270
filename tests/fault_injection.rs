//! Chaos suite for the seeded fault-injection layer: transient comm
//! faults, downed locales, aborted-and-retried resizes, injected panics
//! mid-publish, and schedule determinism.
//!
//! The seed defaults to a fixed value so CI is reproducible; the nightly
//! chaos job loops this suite with `RCU_FAULT_SEED=<n>` to walk distinct
//! deterministic schedules.

use rcuarray_repro::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Seed for the probabilistic schedules; override with `RCU_FAULT_SEED`.
fn seed() -> u64 {
    std::env::var("RCU_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn faulty_cluster(locales: usize, plan: FaultPlan) -> Arc<Cluster> {
    Cluster::builder()
        .topology(Topology::new(locales, 2))
        .fault_plan(plan)
        .build()
}

fn cfg() -> Config {
    Config {
        block_size: 8,
        retry: RetryPolicy::new(8, Duration::from_secs(5)),
        ..Config::default()
    }
}

#[test]
fn transient_faults_are_retried_and_workload_completes() {
    let plan = FaultPlan::new(seed()).fail_gets(0.2).fail_puts(0.2);
    let c = faulty_cluster(3, plan);
    let a: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
    a.resize(48);
    for i in 0..48 {
        a.write(i, i as u64 + 1);
    }
    for i in 0..48 {
        assert_eq!(a.read(i), i as u64 + 1, "value torn by transient faults");
    }
    let s = a.stats();
    assert!(s.fault.failed() > 0, "p=0.2 over 96 ops must fault: {s:?}");
    assert!(s.retries() > 0, "failures must be retried: {s:?}");
    // The retry budget (8 attempts at p=0.2) makes exhaustion essentially
    // impossible: nothing should have degraded.
    assert_eq!(s.fallback_reads, 0, "{s:?}");
    assert_eq!(s.degraded_writes, 0, "{s:?}");
    assert!(c.fault().fault_count() > 0);
    a.checkpoint();
}

#[test]
fn downed_locale_degrades_reads_to_local_snapshot() {
    // No probabilistic faults; the plan exists to flip locales down.
    let c = faulty_cluster(2, FaultPlan::new(seed()));
    let a: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
    a.resize(16); // block 0 on L0, block 1 on L1
    for i in 0..16 {
        a.write(i, 100 + i as u64);
    }
    c.fault().set_down(LocaleId::new(1), true);
    // Remote charges against L1 fail fast (LocaleDown is not retryable);
    // the reads fall back to the locale-local snapshot and stay correct.
    for i in 0..16 {
        assert_eq!(a.read(i), 100 + i as u64, "wrong value while L1 down");
    }
    let s = a.stats();
    assert!(
        s.fallback_reads > 0,
        "reads of L1 blocks must degrade: {s:?}"
    );
    assert_eq!(s.fault.retries, 0, "LocaleDown must not be retried: {s:?}");
    // Writes land too (shared-memory simulation), but are counted.
    a.write(8, 7);
    assert_eq!(a.read(8), 7);
    assert!(a.stats().degraded_writes > 0);
    // Revive and verify the fast path is clean again.
    c.fault().set_down(LocaleId::new(1), false);
    let before = a.stats();
    for i in 0..16 {
        let _ = a.read(i);
    }
    assert_eq!(a.stats().fallback_reads, before.fallback_reads);
    a.checkpoint();
}

#[test]
fn aborted_resizes_roll_back_and_retry_until_success() {
    // Three consecutive attempts die at the lock trigger, the fourth
    // succeeds — all inside one `resize` call's retry loop.
    let plan = FaultPlan::new(seed()).trigger("resize.lock", 0, 3, FaultAction::Error);
    let c = faulty_cluster(3, plan);
    let a: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
    a.resize(24);
    for i in 0..24 {
        a.write(i, i as u64 * 2);
    }
    let r = a.get_ref(5); // Lemma 6 reference held across the aborts
    assert_eq!(a.resize(8), 32);
    r.set(999);
    let s = a.stats();
    assert_eq!(s.aborted_resizes, 3, "{s:?}");
    assert_eq!(s.resizes, 2, "only successful attempts count: {s:?}");
    assert!(s.retries() >= 3, "aborted attempts must be retried: {s:?}");
    assert_eq!(a.capacity(), 32);
    assert_eq!(a.read(5), 999, "Lemma 6 update lost across aborted resizes");
    for i in 0..24 {
        if i != 5 {
            assert_eq!(a.read(i), i as u64 * 2, "value torn by aborted resize");
        }
    }
    assert_eq!(a.read(31), 0, "new region must be zeroed");
    a.checkpoint();
}

#[test]
fn publish_fault_rolls_back_partially_installed_snapshots() {
    // The fault fires mid-publish: some locales have already swapped in
    // the grown snapshot when one fails. The rollback guard must restore
    // them to the old block count before the lock is released.
    for times in 1..=3u64 {
        let plan = FaultPlan::new(seed()).trigger("resize.publish", 0, times, FaultAction::Error);
        let c = faulty_cluster(3, plan);
        let a: EbrArray<u64> = EbrArray::with_config(&c, cfg());
        a.resize(24);
        for i in 0..24 {
            a.write(i, 7 + i as u64);
        }
        assert_eq!(a.resize(16), 40);
        let s = a.stats();
        assert!(
            s.aborted_resizes >= 1 && s.aborted_resizes <= times,
            "times={times}: {s:?}"
        );
        assert_eq!(a.capacity(), 40);
        // Every locale must agree on the final snapshot.
        for l in 0..3u32 {
            rcuarray_runtime::task::with_locale(LocaleId::new(l), || {
                for i in 0..24 {
                    assert_eq!(a.read(i), 7 + i as u64, "locale {l} torn at {i}");
                }
                let _ = a.read(39);
            });
        }
    }
}

#[test]
fn injected_panic_mid_publish_leaves_array_usable() {
    // Skip the 3 publish hits of the setup resize (one per locale) so the
    // panic fires inside the resize under test.
    let plan = FaultPlan::new(seed()).trigger("resize.publish", 3, 1, FaultAction::Panic);
    let c = faulty_cluster(3, plan);
    let a: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
    a.resize(24);
    for i in 0..24 {
        a.write(i, 50 + i as u64);
    }
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        a.resize(8);
    }));
    assert!(panicked.is_err(), "the panic trigger must fire");
    // The attempt rolled back: old capacity, old values, all locales
    // consistent, and — critically — the write lock was released.
    assert_eq!(a.capacity(), 24);
    assert_eq!(a.stats().aborted_resizes, 1);
    for i in 0..24 {
        assert_eq!(a.read(i), 50 + i as u64, "value torn by panicked resize");
    }
    // Lock free ⇒ the next resize (trigger now exhausted) succeeds.
    assert_eq!(a.resize(8), 32);
    assert_eq!(a.stats().resizes, 2);
    a.checkpoint();
}

#[test]
fn timed_out_lock_acquisition_aborts_cleanly() {
    // Mark locale 1 slow so a competing resize — whose allocation and
    // publish both touch it — holds the write lock for a long, bounded
    // window; a zero-retry, 10ms-budget attempt against that window must
    // time out instead of hanging.
    let plan = FaultPlan::new(seed()).slow_delay(Duration::from_millis(400));
    let c = faulty_cluster(2, plan);
    let cfg = Config {
        retry: RetryPolicy::new(0, Duration::from_millis(10)),
        ..cfg()
    };
    let a: Arc<QsbrArray<u64>> = Arc::new(QsbrArray::with_config(&c, cfg));
    a.resize(8);
    c.fault().set_slow(LocaleId::new(1), true);
    let holder = {
        let a = Arc::clone(&a);
        std::thread::spawn(move || {
            a.resize(16); // crawls through slow locale 1 under the lock
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let err = a.try_resize(8).expect_err("lock is held; must time out");
    assert!(
        matches!(err, CommError::Timeout { .. }),
        "expected a timeout, got {err}"
    );
    holder.join().unwrap();
    c.fault().set_slow(LocaleId::new(1), false);
    assert_eq!(a.capacity(), 24, "only the holder's resize landed");
    assert_eq!(a.stats().aborted_resizes, 1);
    // With the lock free, the same zero-retry policy succeeds.
    assert_eq!(a.try_resize(8).unwrap(), 32);
    a.checkpoint();
}

#[test]
fn same_seed_reproduces_the_same_fault_schedule() {
    let run = |s: u64| {
        let plan = FaultPlan::new(s).fail_gets(0.25).fail_puts(0.25);
        let c = faulty_cluster(2, plan);
        let a: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
        a.resize(32);
        for i in 0..32 {
            a.write(i, i as u64);
        }
        let mut sum = 0u64;
        for i in 0..32 {
            sum += a.read(i);
        }
        assert_eq!(sum, (0..32).sum::<u64>());
        a.checkpoint();
        (
            c.fault().fingerprint(),
            c.fault().fault_count(),
            c.fault().events(),
            a.stats().fault,
        )
    };
    let (fp1, n1, ev1, st1) = run(seed());
    let (fp2, n2, ev2, st2) = run(seed());
    assert!(n1 > 0, "schedule must contain faults for the test to bite");
    assert_eq!(fp1, fp2, "same seed must reproduce the same schedule");
    assert_eq!(n1, n2);
    assert_eq!(ev1, ev2, "single-task run must replay event-for-event");
    assert_eq!(st1, st2, "fault accounting must replay exactly");
    // And a different seed walks a different schedule.
    let (fp3, _, _, _) = run(seed() ^ 0x9E37_79B9_7F4A_7C15);
    assert_ne!(fp1, fp3, "distinct seeds should diverge");
}

#[test]
fn concurrent_chaos_loses_no_updates() {
    // Transient faults on every op kind while writers, readers and
    // resizers race: the RCU invariants must hold regardless.
    let plan = FaultPlan::new(seed()).fail_all(0.05);
    let c = faulty_cluster(3, plan);
    let a: Arc<EbrArray<u64>> = Arc::new(EbrArray::with_config(&c, cfg()));
    a.resize(64);
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let a = Arc::clone(&a);
            s.spawn(move || {
                // Each thread owns a disjoint slot range.
                for round in 1..=50u64 {
                    for i in 0..16 {
                        let idx = (t * 16 + i) as usize;
                        a.write(idx, t * 1_000_000 + round * 100 + i);
                    }
                    for i in 0..16 {
                        let idx = (t * 16 + i) as usize;
                        assert_eq!(a.read(idx), t * 1_000_000 + round * 100 + i);
                    }
                }
            });
        }
        let a2 = Arc::clone(&a);
        s.spawn(move || {
            for _ in 0..10 {
                a2.resize(8);
            }
        });
    });
    assert_eq!(a.capacity(), 64 + 10 * 8);
    let s = a.stats();
    assert!(s.fault.failed() > 0, "chaos must actually inject: {s:?}");
    assert_eq!(s.fallback_reads, 0, "budget should absorb p=0.05: {s:?}");
}

#[test]
fn dist_vector_push_survives_faulty_growth() {
    let plan =
        FaultPlan::new(seed())
            .fail_puts(0.1)
            .trigger("resize.lock", 0, 2, FaultAction::Error);
    let c = faulty_cluster(2, plan);
    let v: DistVector<u64> = DistVector::with_config(&c, cfg());
    for i in 0..40u64 {
        assert_eq!(v.try_push(i * 3).unwrap(), i as usize);
    }
    for i in 0..40u64 {
        assert_eq!(v.get(i as usize), i * 3);
    }
    assert!(v.backing().stats().aborted_resizes >= 1);
    v.checkpoint();
}

#[test]
fn dist_table_grow_aborts_cleanly_when_allocation_faults() {
    let c = faulty_cluster(2, FaultPlan::new(seed()));
    let mut t: DistTable = DistTable::with_config(&c, 16, cfg());
    for k in 1..=10u64 {
        t.insert(k, k * 5).unwrap();
    }
    // Down a locale: growth (which must allocate there) fails fast and
    // leaves the original table untouched.
    c.fault().set_down(LocaleId::new(1), true);
    let before = t.capacity();
    assert!(t.try_grow().is_err(), "growth onto a down locale must fail");
    assert_eq!(t.capacity(), before, "failed grow must not install");
    for k in 1..=10u64 {
        assert_eq!(t.get(k), Some(k * 5), "failed grow corrupted the table");
    }
    // Revived, the same grow succeeds.
    c.fault().set_down(LocaleId::new(1), false);
    t.try_grow().unwrap();
    assert_eq!(t.capacity(), before * 2);
    for k in 1..=10u64 {
        assert_eq!(t.get(k), Some(k * 5));
    }
    t.checkpoint();
}

#[test]
fn disabled_plan_keeps_healthy_semantics_and_zero_fault_counters() {
    let c = Cluster::builder().topology(Topology::new(2, 2)).build();
    assert!(!c.fault().is_enabled());
    let a: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
    a.resize(32);
    for i in 0..32 {
        a.write(i, i as u64);
        assert_eq!(a.read(i), i as u64);
    }
    let s = a.stats();
    assert_eq!(
        s.fault,
        FaultStats::default(),
        "healthy path must not count"
    );
    assert_eq!(s.aborted_resizes, 0);
    assert_eq!(s.fallback_reads, 0);
    assert_eq!(s.degraded_writes, 0);
    a.checkpoint();
}

#[test]
fn reader_killed_mid_critical_section_releases_its_guard() {
    // The `read.kill` trigger dies *inside* the read-side critical
    // section, after the guard is acquired — the harshest place to
    // unwind. The guard's Drop must still release the pin so the next
    // read on the same thread works and writers are never wedged.
    let plan = FaultPlan::new(seed()).trigger_once("read.kill", FaultAction::Panic);
    let c = faulty_cluster(2, plan);
    let a: EbrArray<u64> = EbrArray::with_config(&c, cfg());
    a.resize(16);

    // First snapshot access fires the trigger and unwinds.
    let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.read(0)));
    assert!(killed.is_err(), "armed read.kill must unwind the reader");

    // One-shot trigger: the same thread reads again immediately...
    a.write(0, 9);
    assert_eq!(a.read(0), 9, "guard leaked by the killed reader");
    // ...and a resize completes (a leaked EBR pin would hang the drain).
    let before = a.capacity();
    a.resize(16);
    assert_eq!(a.capacity(), before + 16);
    assert!(
        a.stats().reclaim.guard_panics >= 1,
        "killed reader's guard was not counted"
    );
    assert_eq!(c.fault().fault_count(), 1);
    a.checkpoint();
}

#[test]
fn reader_kill_by_error_unwinds_and_recovers_under_qsbr() {
    // FaultAction::Error surfaces as an expect() panic in the read path;
    // QSBR readers carry no release obligation, but the registered
    // participant must not gate reclamation after the unwind.
    let plan = FaultPlan::new(seed()).trigger("read.kill", 1, 1, FaultAction::Error);
    let c = faulty_cluster(2, plan);
    let a: QsbrArray<u64> = QsbrArray::with_config(&c, cfg());
    a.resize(16);
    a.write(1, 7); // first snapshot access passes (skip = 1)...
    let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.read(1)));
    assert!(killed.is_err(), "second snapshot access must die");
    assert_eq!(a.read(1), 7, "trigger exhausted; reads recover");
    a.resize(16);
    for _ in 0..1000 {
        a.checkpoint();
        if a.qsbr_domain().unwrap().stats().pending == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        a.qsbr_domain().unwrap().stats().pending,
        0,
        "killed reader wedged reclamation"
    );
}
