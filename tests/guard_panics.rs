//! Panic-safety of read-side guards (DESIGN.md §9): a reader that panics
//! while pinned must release its guard on unwind — never poisoning the
//! scheme or wedging epoch advancement. For every scheme the same thread
//! must be able to read again immediately, and a subsequent resize must
//! complete (under EBR a leaked pin would stall the writer's drain
//! forever, so completion *is* the proof).

use rcuarray_repro::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn cfg() -> Config {
    Config::with_block_size(8)
}

fn panicking_pinned_reader_recovers<S: Scheme>() {
    let c = Cluster::new(Topology::new(2, 2));
    let a: RcuArray<u64, S> = RcuArray::with_config(&c, cfg());
    a.resize(16);
    a.write(3, 11);

    // The out-of-bounds panic fires *inside* the read-side critical
    // section, while the guard is live.
    let r = catch_unwind(AssertUnwindSafe(|| a.read(1_000_000)));
    assert!(r.is_err(), "out-of-bounds read must panic");

    // The guard was released on unwind: the same thread reads again.
    assert_eq!(a.read(3), 11, "{}: read after guard panic", a.scheme_name());

    // And epoch advancement is not wedged: a resize retires the old
    // snapshot and completes. (A leaked EBR pin would hang right here.)
    let before = a.capacity();
    a.resize(16);
    assert_eq!(
        a.capacity(),
        before + 16,
        "{}: resize after guard panic",
        a.scheme_name()
    );
    a.checkpoint();
}

#[test]
fn ebr_guard_panic_releases_pin() {
    panicking_pinned_reader_recovers::<rcuarray::EbrScheme>();
}

#[test]
fn qsbr_guard_panic_releases_registration() {
    panicking_pinned_reader_recovers::<rcuarray::QsbrScheme>();
}

#[test]
fn leak_guard_panic_is_harmless() {
    panicking_pinned_reader_recovers::<rcuarray::LeakScheme>();
}

/// Guarded schemes surface the unwind in their stats: the guard's `Drop`
/// notices `std::thread::panicking()` and bumps the panicked-guard
/// counter. The scheme keeps working: read again, resize, and nothing
/// retired stays pending behind a stale pin.
fn counts_panicked_guards<S: Scheme>() {
    let c = Cluster::new(Topology::new(1, 1));
    let a: RcuArray<u64, S> = RcuArray::with_config(&c, cfg());
    a.resize(8);
    assert_eq!(a.stats().reclaim.guard_panics, 0);
    let r = catch_unwind(AssertUnwindSafe(|| a.read(999)));
    assert!(r.is_err());
    assert!(
        a.stats().reclaim.guard_panics >= 1,
        "{}: panicked guard was not counted",
        a.scheme_name()
    );
    assert_eq!(a.read(0), 0);
    a.resize(8);
    a.checkpoint();
    assert_eq!(a.stats().reclaim.pending, 0, "{}", a.scheme_name());
}

#[test]
fn ebr_counts_panicked_guards() {
    counts_panicked_guards::<rcuarray::EbrScheme>();
}

/// The out-of-bounds panic fires while the reader's guard is live. A
/// resize on *another* thread must still finish — a guard leaked by the
/// unwind would keep that thread's drain waiting forever.
fn oob_panic_does_not_wedge_resizes<S: Scheme>() {
    let c = Cluster::new(Topology::new(1, 1));
    let a: Arc<RcuArray<u64, S>> = Arc::new(RcuArray::with_config(&c, cfg()));
    a.resize(8);
    let r = catch_unwind(AssertUnwindSafe(|| a.read(999)));
    assert!(r.is_err());
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let a2 = Arc::clone(&a);
    let resizer = std::thread::spawn(move || {
        a2.resize(8);
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{}: resize wedged by a leaked guard", a.scheme_name()));
    resizer.join().unwrap();
    assert_eq!(a.capacity(), 16);
    a.checkpoint();
}

#[test]
fn ebr_oob_panic_does_not_wedge_resizes() {
    oob_panic_does_not_wedge_resizes::<rcuarray::EbrScheme>();
}

#[test]
fn qsbr_oob_panic_does_not_wedge_resizes() {
    oob_panic_does_not_wedge_resizes::<rcuarray::QsbrScheme>();
}

/// A panicking reader must not poison reclamation for *other* threads:
/// after one thread's guard unwinds, a different thread's writer makes
/// progress and readers everywhere see consistent data.
#[test]
fn guard_panic_does_not_poison_other_threads() {
    let c = Cluster::new(Topology::new(2, 2));
    let a: Arc<EbrArray<u64>> = Arc::new(EbrArray::with_config(&c, cfg()));
    a.resize(16);
    a.fill(1);

    let panicker = {
        let a = Arc::clone(&a);
        std::thread::spawn(move || {
            let r = catch_unwind(AssertUnwindSafe(|| a.read(1_000_000)));
            assert!(r.is_err());
        })
    };
    panicker.join().unwrap();

    let writer = {
        let a = Arc::clone(&a);
        std::thread::spawn(move || {
            for _ in 0..10 {
                a.resize(8);
            }
        })
    };
    writer.join().unwrap();
    assert_eq!(a.read(0), 1);
    assert_eq!(a.capacity(), 96);
    a.checkpoint();
}
