//! The obs sharded-counter and histogram cores under the checker.
//!
//! The telemetry subsystem promises that concurrent `add`/`record` calls
//! from arbitrary threads are race-free and lose no increments: shards
//! are independent relaxed atomics and `value()`/`snapshot()` only ever
//! sum them. The checker drives real concurrent updates through the
//! instrumented atomics and verifies both the absence of data races and
//! the exact final totals on every explored schedule. A scoped counter
//! adds a per-instance cell in front of a registry total; both halves
//! must be exact on every schedule DPOR explores.

#![cfg(feature = "check")]

use rcuarray_analysis::{thread, Checker, Config, Policy};
use rcuarray_obs::{Counter, Histogram, LazyCounter};
use std::sync::Arc;

#[test]
fn concurrent_counter_adds_are_exact_and_race_free() {
    let report = Checker::new(Config {
        base_seed: 0x0b5_c0de,
        iterations: 24,
        ..Config::default()
    })
    .run(|| {
        let counter = Arc::new(Counter::new());
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let c = Arc::clone(&counter);
                thread::spawn(move || {
                    for i in 0..8u64 {
                        c.add(t * 100 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // sum(0..8) + sum(100..108) = 28 + 828.
        assert_eq!(counter.value(), 856, "increments lost");
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty(), "{report}");
}

#[test]
fn concurrent_histogram_records_preserve_count_and_sum() {
    let report = Checker::new(Config {
        base_seed: 0x0b5_c0df,
        iterations: 16,
        ..Config::default()
    })
    .run(|| {
        let hist = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let h = Arc::clone(&hist);
                thread::spawn(move || {
                    for i in 0..6u64 {
                        // Distinct magnitudes per thread: exercises
                        // different buckets concurrently.
                        h.record((1 << (4 * t)) + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 12, "recordings lost");
        // sum(1..=6) + sum(16..=21) = 21 + 111.
        assert_eq!(snap.sum, 132);
        let bucketed: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(bucketed, 12, "bucket occupancy must match count");
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty(), "{report}");
}

#[test]
fn reader_sums_race_free_against_writers() {
    let report = Checker::new(Config {
        base_seed: 0x0b5_c0e0,
        iterations: 16,
        ..Config::default()
    })
    .run(|| {
        let counter = Arc::new(Counter::new());
        let c = Arc::clone(&counter);
        let writer = thread::spawn(move || {
            for _ in 0..6 {
                c.add(1);
            }
        });
        // A concurrent reader may see any prefix of the adds, but never
        // tears and never races.
        let v = counter.value();
        assert!(v <= 6, "sum overshot: {v}");
        writer.join().unwrap();
        assert_eq!(counter.value(), 6);
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty(), "{report}");
}

#[test]
fn scoped_counter_adds_are_exact_in_both_halves_under_dpor() {
    static TOTAL: LazyCounter = LazyCounter::new("obs_harness_scoped_total", "harness");
    // Intern before exploring: the first touch takes the registry lock,
    // which would make the first execution differ from its replays.
    let _ = TOTAL.value();
    let report = Checker::new(Config {
        policy: Policy::Dpor,
        iterations: 256,
        ..Config::default()
    })
    .run(|| {
        let before = TOTAL.value();
        let counter = Arc::new(TOTAL.scoped());
        let handles: Vec<_> = (1..=2u64)
            .map(|t| {
                let c = Arc::clone(&counter);
                thread::spawn(move || {
                    c.add(t);
                    c.add(10 * t);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.get(), 33, "instance increments lost");
        assert_eq!(TOTAL.value() - before, 33, "process increments lost");
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty(), "{report}");
    let dpor = report.dpor.as_ref().expect("dpor stats present");
    assert!(dpor.complete, "exploration must exhaust: {dpor}");
}
