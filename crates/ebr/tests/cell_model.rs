//! Property and stress tests of the RCU cell over an `EpochZone`
//! (`RcuPtr<_, EpochZone>`) against a sequential model, plus protocol
//! accounting under adversarial schedules.

use proptest::prelude::*;
use rcuarray_analysis::atomic::{AtomicBool, AtomicUsize, Ordering};
use rcuarray_ebr::{EpochZone, OrderingMode, RcuPtr};
use std::sync::Arc;

type Cell<T> = RcuPtr<T, EpochZone>;

fn cell<T: Send + Sync + 'static>(value: T) -> Cell<T> {
    RcuPtr::new(value, Arc::new(EpochZone::new()))
}

#[derive(Debug, Clone)]
enum CellOp {
    Read,
    Add(u64),
    Replace(u64),
}

fn op_strategy() -> impl Strategy<Value = CellOp> {
    prop_oneof![
        Just(CellOp::Read),
        prop::num::u64::ANY.prop_map(|v| CellOp::Add(v % 1000)),
        prop::num::u64::ANY.prop_map(|v| CellOp::Replace(v % 1000)),
    ]
}

proptest! {
    #[test]
    fn cell_matches_sequential_model(ops in prop::collection::vec(op_strategy(), 1..100)) {
        let cell = cell(0u64);
        let mut model = 0u64;
        for op in ops {
            match op {
                CellOp::Read => prop_assert_eq!(cell.read(|v| *v), model),
                CellOp::Add(x) => {
                    model = model.wrapping_add(x);
                    cell.update(|v| v.wrapping_add(x));
                }
                CellOp::Replace(x) => {
                    model = x;
                    cell.replace(x);
                }
            }
        }
        prop_assert_eq!(cell.read(|v| *v), model);
    }

    #[test]
    fn zone_parity_accounting_balances(pins in 1usize..50, advances in 0usize..20) {
        let zone = EpochZone::new();
        for _ in 0..advances {
            zone.synchronize();
        }
        let mut tickets = Vec::new();
        for _ in 0..pins {
            tickets.push(zone.pin());
        }
        let total: u64 = zone.readers_on(0) + zone.readers_on(1);
        prop_assert_eq!(total, pins as u64);
        for t in tickets {
            zone.unpin(t);
        }
        prop_assert_eq!(zone.readers_on(0) + zone.readers_on(1), 0);
        prop_assert_eq!(zone.stats().pins, pins as u64);
    }
}

#[test]
fn every_value_is_dropped_exactly_once() {
    struct Canary(Arc<AtomicUsize>);
    impl Drop for Canary {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let c = cell(Canary(Arc::clone(&drops)));
        c.replace(Canary(Arc::clone(&drops)));
        assert_eq!(drops.load(Ordering::SeqCst), 1, "EBR frees at retire");
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        2,
        "drop frees the last snapshot"
    );
}

#[test]
fn readers_always_see_a_consistent_snapshot() {
    // Snapshot = (a, b) with invariant a + b == 100. Writers preserve it;
    // torn reads would violate it.
    let c = cell((100u64, 0u64));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    assert!(c.read(|&(a, b)| a + b == 100), "torn snapshot");
                }
            });
        }
        s.spawn(|| {
            for _ in 0..2000 {
                c.update(|&(a, _)| {
                    let a2 = (a + 1) % 101;
                    (a2, 100 - a2)
                });
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
}

#[test]
fn snapshots_never_go_backwards() {
    let c = cell(0u64);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let v = c.read(|v| *v);
                    assert!(v >= last, "snapshot went backwards");
                    last = v;
                }
            });
        }
        s.spawn(|| {
            for _ in 0..3000 {
                c.update(|v| v + 1);
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
    assert_eq!(c.read(|v| *v), 3000);
}

#[test]
fn writers_starve_neither_readers_nor_each_other() {
    // Two cells sharing nothing; two writer threads and two reader
    // threads ping between them. Bounded runtime demonstrates absence of
    // livelock between the retry loop and the drain loop.
    let a = Arc::new(cell(0u64));
    let b = Arc::new(cell(0u64));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for c in [&a, &b] {
            let c = Arc::clone(c);
            s.spawn(move || {
                for _ in 0..2000 {
                    c.update(|v| v + 1);
                }
            });
        }
        for _ in 0..2 {
            let a = Arc::clone(&a);
            let b = Arc::clone(&b);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let x = a.read(|v| *v);
                    let y = b.read(|v| *v);
                    assert!(x <= 2000 && y <= 2000);
                }
            });
        }
        // The writers finish; then stop the readers.
        s.spawn(move || loop {
            if a.read(|v| *v) == 2000 && b.read(|v| *v) == 2000 {
                stop.store(true, Ordering::Relaxed);
                break;
            }
            rcuarray_analysis::thread::yield_now();
        });
    });
}

#[test]
fn retry_rate_is_visible_in_stats_under_writer_pressure() {
    let c = cell(0u64);
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..3000 {
                c.update(|v| v + 1);
            }
        });
        s.spawn(|| {
            for _ in 0..30_000 {
                let _ = c.read(|v| *v);
            }
        });
    });
    let stats = c.reclaimer().stats();
    assert_eq!(stats.advances, 3000);
    assert_eq!(stats.pins, 30_000);
    // Retries are schedule-dependent; just require the counter is sane.
    assert!(stats.retries < 10_000_000);
}

#[test]
fn acqrel_cell_agrees_with_seqcst_cell_sequentially() {
    let a = RcuPtr::new(0u64, Arc::new(EpochZone::with_mode(OrderingMode::SeqCst)));
    let b = RcuPtr::new(
        0u64,
        Arc::new(EpochZone::with_mode(OrderingMode::AcqRelFence)),
    );
    for k in 0..100 {
        a.update(|v| v + k);
        b.update(|v| v + k);
        assert_eq!(a.read(|v| *v), b.read(|v| *v));
    }
}

#[test]
fn ptrs_sharing_one_zone_stay_independent() {
    // Several cells may share one zone: each keeps its own value, and the
    // zone counts every cell's traffic.
    let zone = Arc::new(EpochZone::new());
    let a = RcuPtr::new(1u32, Arc::clone(&zone));
    let b = RcuPtr::new(10u32, Arc::clone(&zone));
    a.update(|v| v * 2);
    b.update(|v| v * 2);
    assert_eq!((a.read(|v| *v), b.read(|v| *v)), (2, 20));
    let s = zone.stats();
    assert_eq!((s.pins, s.advances), (2, 2));
}
