//! Robust-reclamation chaos tests (DESIGN.md §9): stalled readers are
//! detected and quarantined, defer backlogs respect their byte caps, and
//! the array degrades gracefully — refusing growth with a retryable
//! [`CommError::Backpressure`] — instead of wedging or ballooning.
//!
//! The acceptance scenario from the issue: one reader stalled
//! indefinitely while writers retire continuously must leave the backlog
//! bounded by the configured cap (plus one retire of slack) with every
//! other reader and writer still progressing, and gauges must return to
//! baseline once the staller rejoins or exits.

use rcuarray_repro::prelude::*;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const CAP_BYTES: u64 = 64 * 1024;

fn cluster(locales: usize) -> Arc<Cluster> {
    Cluster::new(Topology::new(locales, 2))
}

fn bounded_cfg(cap: u64, stall: StallPolicy) -> Config {
    Config {
        block_size: 8,
        pressure: PressureConfig::bounded(cap),
        stall,
        ..Config::default()
    }
}

/// Poll `checkpoint` until the backlog fully drains (coforall worker
/// threads orphan their defer chains from TLS destructors, which land a
/// beat after the resize itself returns).
fn drain<T: Element, S: Scheme>(a: &RcuArray<T, S>) -> bool {
    for _ in 0..1000 {
        a.checkpoint();
        if a.stats().reclaim.pending == 0 {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

/// One QSBR reader registers and then stalls forever (never
/// checkpointing) while the writer resizes continuously: stall detection
/// must quarantine it, the byte-capped backlog must stay bounded, and
/// everything must return to baseline after the staller rejoins.
#[test]
fn stalled_qsbr_reader_is_quarantined_and_backlog_stays_bounded() {
    let c = cluster(2);
    let a: Arc<QsbrArray<u64>> = Arc::new(QsbrArray::with_config(
        &c,
        bounded_cfg(CAP_BYTES, StallPolicy::after(1, 2)),
    ));
    a.resize(8);
    a.write(0, 7);

    let (ready_tx, ready_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let staller = {
        let a = Arc::clone(&a);
        std::thread::spawn(move || {
            // Registers this thread as a domain participant...
            assert_eq!(a.read(0), 7);
            ready_tx.send(()).unwrap();
            // ...then stalls: no checkpoint, no park, epoch never observed
            // again until the domain force-parks us.
            done_rx.recv().unwrap();
            // Rejoin: the next checkpoint clears the quarantine flag.
            a.checkpoint();
        })
    };
    ready_rx.recv().unwrap();

    let mut peak_bytes = 0u64;
    for _ in 0..50 {
        a.resize(8);
        a.checkpoint();
        peak_bytes = peak_bytes.max(a.stats().reclaim.pending_bytes);
        // Other readers and writers must progress despite the staller.
        assert_eq!(a.read(0), 7);
        a.write(1, 9);
    }
    assert!(
        peak_bytes <= CAP_BYTES,
        "backlog exceeded its byte cap: peak {peak_bytes} > {CAP_BYTES}"
    );

    let d = a.qsbr_domain().unwrap();
    assert!(
        d.stats().quarantines >= 1,
        "staller was never quarantined: {:?}",
        d.stats()
    );
    assert!(
        a.stats().reclaim.stalled >= 1,
        "ReclaimStats must surface it"
    );
    // With the staller force-parked the backlog drains *while it is still
    // stalled* — that is the point of quarantine.
    assert!(
        drain(&a),
        "backlog failed to drain around the quarantined reader"
    );

    done_tx.send(()).unwrap();
    staller.join().unwrap();
    // Gauges back to baseline: nothing pending, nobody quarantined.
    assert!(drain(&a));
    assert_eq!(
        d.stats().quarantined,
        0,
        "rejoin/exit must clear quarantine"
    );
}

/// EBR has no checkpoint to miss, so a stalled reader is a guard held
/// forever. Writers must evacuate retirements instead of spinning, then
/// refuse growth with `CommError::Backpressure` once the evacuation list
/// hits the byte cap — and recover completely when the guard drops.
#[test]
fn stalled_ebr_pin_evacuates_then_refuses_at_cap_then_recovers() {
    let cap = 2048u64;
    let c = cluster(2);
    let a: Arc<EbrArray<u64>> = Arc::new(EbrArray::with_config(
        &c,
        bounded_cfg(cap, StallPolicy::after(1, 64)),
    ));
    a.resize(8);
    a.write(0, 5);

    let (ready_tx, ready_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let staller = {
        let a = Arc::clone(&a);
        std::thread::spawn(move || {
            // Hold the read-side critical section open indefinitely.
            a.with_view(|v| {
                assert_eq!(v.get(0), 5);
                ready_tx.send(()).unwrap();
                done_rx.recv().unwrap();
            });
        })
    };
    ready_rx.recv().unwrap();

    let mut refusal = None;
    for _ in 0..400 {
        match a.try_resize(8) {
            Ok(_) => {
                // Reads keep working while the backlog builds.
                assert_eq!(a.read(0), 5);
            }
            Err(e) => {
                refusal = Some(e);
                break;
            }
        }
    }
    let err = refusal.expect("bounded evacuation never refused a resize");
    assert!(
        matches!(err, CommError::Backpressure { .. }),
        "wrong refusal: {err}"
    );
    assert!(err.is_retryable(), "backpressure must be retryable");
    assert!(
        a.stats().reclaim.stalled >= 1,
        "writer drains never recorded the stalled reader"
    );
    // The cap bounds the backlog to one retire of slack past the limit.
    let pending = a.stats().reclaim.pending_bytes;
    assert!(
        pending <= cap + 1024,
        "evacuation backlog far exceeds its cap: {pending} > {cap} + slack"
    );
    // Readers still progress while growth is refused.
    assert_eq!(a.read(0), 5);

    // Drop the stalled guard: the refusal must clear.
    done_tx.send(()).unwrap();
    staller.join().unwrap();
    assert!(
        drain(&a),
        "evacuated retirements failed to free after unpin"
    );
    let before = a.capacity();
    a.resize(8);
    assert_eq!(
        a.capacity(),
        before + 8,
        "growth must resume after recovery"
    );
    assert!(drain(&a));
}

/// Under `LeakScheme` nothing is ever freed, so a byte-capped pressure
/// config acts as a *retirement budget*: growth is refused once the
/// accumulated (never-reclaimed) snapshots reach the cap. Writers help
/// along the way — forced drains fire past the watermark even though
/// they cannot free anything here.
#[test]
fn leak_scheme_bounded_pressure_acts_as_a_retirement_budget() {
    let cap = 2048u64;
    let (forced_before, _, _) = rcuarray_repro::rcuarray_reclaim::pressure_event_totals();
    let c = cluster(2);
    let a: LeakArray<u64> = LeakArray::with_config(&c, bounded_cfg(cap, StallPolicy::disabled()));
    a.resize(8);
    a.write(0, 2);

    let mut refusal = None;
    for _ in 0..400 {
        match a.try_resize(8) {
            Ok(_) => {}
            Err(e) => {
                refusal = Some(e);
                break;
            }
        }
    }
    let err = refusal.expect("leak scheme never exhausted its retirement budget");
    assert!(
        matches!(err, CommError::Backpressure { .. }),
        "wrong refusal: {err}"
    );
    // The budget is spent and can never drain.
    assert!(a.stats().reclaim.pending_bytes >= cap);
    assert_eq!(a.checkpoint(), 0, "leak scheme frees nothing");
    // The array itself stays fully usable at its reached capacity.
    assert_eq!(a.read(0), 2);
    a.write(1, 4);
    assert_eq!(a.read(1), 4);
    // Watermark crossings made writers help (process-wide counter, so
    // other tests can only push it further up).
    let (forced_after, _, _) = rcuarray_repro::rcuarray_reclaim::pressure_event_totals();
    assert!(
        forced_after > forced_before,
        "no forced drain recorded past the watermark"
    );
}

/// A `DistVector` over a byte-capped leak array surfaces the exhausted
/// budget as `Err(Backpressure)` from `try_push` instead of panicking —
/// the collections write path consumes the same contract as `resize`.
#[test]
fn dist_vector_try_push_surfaces_backpressure() {
    let c = cluster(2);
    let cfg = Config {
        retry: RetryPolicy::new(2, Duration::from_millis(200)),
        ..bounded_cfg(1024, StallPolicy::disabled())
    };
    let v: DistVector<u64, rcuarray::LeakScheme> = DistVector::with_config(&c, cfg);
    let mut refused = None;
    for i in 0..4000 {
        match v.try_push(i) {
            Ok(_) => {}
            Err(e) => {
                refused = Some(e);
                break;
            }
        }
    }
    let err = refused.expect("try_push never hit the retirement budget");
    assert!(
        matches!(err, CommError::Backpressure { .. }),
        "wrong error: {err}"
    );
    // Everything appended before the refusal is intact.
    assert!(!v.is_empty());
    assert_eq!(v.get(0), 0);
}
