//! Bounded-reclamation tests (DESIGN.md §9): a stalled reader holds
//! back reclamation exactly as the paper's protocols say, and a
//! byte-capped backlog turns that into a retryable refusal instead of
//! unbounded growth. At the cap the array refuses growth with
//! [`CommError::Backpressure`] before it retires anything; once the
//! stalled reader parks or exits, growth resumes and the backlog drains
//! to zero.

use rcuarray_repro::prelude::*;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn cluster(locales: usize) -> Arc<Cluster> {
    Cluster::new(Topology::new(locales, 2))
}

fn bounded_cfg(cap: u64) -> Config {
    Config {
        block_size: 8,
        pressure: PressureConfig::bounded(cap),
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

/// One QSBR reader registers and then stops checkpointing while the
/// writer keeps growing the array: the reader holds back the minimum, so
/// the byte-capped backlog fills and `try_resize` refuses with a
/// retryable `CommError::Backpressure`. Once the reader parks, growth
/// resumes and the backlog drains to zero.
#[test]
fn stalled_qsbr_reader_refuses_growth_at_the_cap_until_it_parks() {
    let cap = 2048u64;
    let c = cluster(2);
    let a: Arc<QsbrArray<u64>> = Arc::new(QsbrArray::with_config(&c, bounded_cfg(cap)));
    a.resize(8);
    a.write(0, 7);

    let (ready_tx, ready_rx) = mpsc::channel();
    let (park_tx, park_rx) = mpsc::channel::<()>();
    let (parked_tx, parked_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let staller = {
        let a = Arc::clone(&a);
        std::thread::spawn(move || {
            // Registers this thread as a domain participant...
            assert_eq!(a.read(0), 7);
            ready_tx.send(()).unwrap();
            // ...then stalls: no checkpoint, no park.
            park_rx.recv().unwrap();
            a.qsbr_domain().unwrap().park();
            parked_tx.send(()).unwrap();
            done_rx.recv().unwrap();
        })
    };
    ready_rx.recv().unwrap();

    let mut refusal = None;
    for _ in 0..400 {
        match a.try_resize(8) {
            Ok(_) => {
                a.checkpoint();
                // Reads and writes keep working while the backlog builds.
                assert_eq!(a.read(0), 7);
                a.write(1, 9);
            }
            Err(e) => {
                refusal = Some(e);
                break;
            }
        }
    }
    let err = refusal.expect("capped backlog never refused a resize");
    assert!(
        matches!(err, CommError::Backpressure { .. }),
        "wrong refusal: {err}"
    );
    assert!(err.is_retryable(), "backpressure must be retryable");
    assert!(
        a.stats().reclaim.pending_bytes >= cap,
        "refused below the cap: {:?}",
        a.stats().reclaim
    );
    // Readers still progress while growth is refused.
    assert_eq!(a.read(0), 7);

    // The staller parks: it leaves the minimum scan, so growth resumes.
    park_tx.send(()).unwrap();
    parked_rx.recv().unwrap();
    let before = a.capacity();
    a.resize(8);
    assert_eq!(
        a.capacity(),
        before + 8,
        "growth must resume once the staller parks"
    );
    assert!(
        drain(&a),
        "backlog failed to drain after the staller parked"
    );
    assert_eq!(a.stats().reclaim.pending_bytes, 0);

    done_tx.send(()).unwrap();
    staller.join().unwrap();
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
    let a: LeakArray<u64> = LeakArray::with_config(&c, bounded_cfg(cap));
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
