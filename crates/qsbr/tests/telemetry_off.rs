//! Turning telemetry off must not change a domain's own accounting.
//! Backpressure reads `pending_bytes`, which is built on the domain's
//! scoped counters, and `rcuarray_obs::disable()` gates only their
//! process-wide half. This file is its own test process because it
//! flips the global telemetry flag.

use rcuarray_qsbr::{PressureConfig, QsbrDomain, Reclaim, Retired};
use std::sync::mpsc;

#[test]
fn backpressure_and_domain_stats_hold_with_telemetry_disabled() {
    rcuarray_obs::disable();
    let domain = QsbrDomain::new();
    let defers_total = || rcuarray_obs::snapshot().counter("rcuarray_qsbr_defers_total");
    let total_before = defers_total();
    // Cap 64 bytes, writer-help from 32: with 16-byte retires the first
    // four are accepted and the fifth is refused.
    domain.set_pressure(PressureConfig::bounded(64));
    let (registered_tx, registered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    std::thread::scope(|s| {
        // A second participant that does not checkpoint until released
        // holds the minimum epoch back, so the writer-help checkpoints
        // inside `try_retire` can free nothing.
        let straggler = domain.clone();
        s.spawn(move || {
            straggler.read_lock();
            registered_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            straggler.checkpoint();
        });
        registered_rx.recv().unwrap();
        for _ in 0..4 {
            let accepted = domain.try_retire(Retired::with_bytes(16, || {}));
            accepted.expect("a retire below the cap must be accepted");
        }
        let err = domain
            .try_retire(Retired::with_bytes(16, || {}))
            .expect_err("a backlog at the cap must refuse");
        assert_eq!(err.pending_bytes, 64);
        release_tx.send(()).unwrap();
    });
    // The straggler has observed the newest epoch: everything frees.
    assert_eq!(domain.checkpoint(), 4);
    assert!(domain.try_retire(Retired::with_bytes(16, || {})).is_ok());
    let s = domain.stats();
    assert_eq!(
        (s.defers, s.reclaimed, s.pending, s.pending_bytes),
        (5, 4, 1, 16)
    );
    // Three writer-help checkpoints, the straggler's and the drain.
    assert_eq!(s.checkpoints, 5);
    assert_eq!(defers_total(), total_before, "the process half is gated");
}
