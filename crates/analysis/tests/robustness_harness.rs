//! The bounded-reclamation transitions (DESIGN.md §9) under the
//! deterministic checker: the backpressure ladder (watermark → forced
//! drain → hard cap → refusal → blocking hand-over) with a reader gating
//! the minimum.
//!
//! The scenario is scheduling-sensitive — backpressure races retires
//! against drains — so every interleaving the checker explores must keep
//! the protocol's promises: nothing frees past the gating reader, and no
//! schedule deadlocks.

#![cfg(feature = "check")]

use rcuarray_analysis::atomic::{AtomicUsize, Ordering};
use rcuarray_analysis::{thread, Checker, Config};
use rcuarray_qsbr::{PressureConfig, QsbrDomain, Reclaim, Retired};
use std::sync::Arc;

/// The backpressure ladder with a live reader gating the minimum: the
/// byte cap refuses `try_retire` while the reader is unquiesced, and the
/// blocking `retire_or_quiesce` hand-over completes exactly when the
/// reader quiesces — on every schedule, without deadlock.
#[test]
fn bounded_backlog_refuses_at_cap_and_drains_after_quiescence() {
    let report = Checker::new(Config {
        base_seed: 0x5eed_9b02,
        iterations: 24,
        ..Config::default()
    })
    .run(|| {
        let domain = Arc::new(QsbrDomain::new());
        domain.set_pressure(PressureConfig::bounded(1024));
        domain.register_current_thread();
        let stage = Arc::new(AtomicUsize::new(0));

        let d = domain.clone();
        let s = stage.clone();
        let reader = thread::spawn(move || {
            d.ensure_registered();
            s.store(1, Ordering::Release);
            // Hold the minimum back (registered, not quiescing) until
            // the owner has been refused at the cap.
            while s.load(Ordering::Acquire) == 1 {
                thread::yield_now();
            }
            // Park (a checkpoint plus leaving the minimum scan): the
            // quiescence promise that unblocks the owner. The checker's
            // threads run no TLS destructors at join, so the record must
            // step out of the scan explicitly.
            d.park();
        });
        while stage.load(Ordering::Acquire) == 0 {
            thread::yield_now();
        }

        // 256-byte retires against a 1024-byte cap: the watermark (512)
        // forces helping drains (dry — the reader gates the minimum),
        // then the cap refuses outright.
        let freed = Arc::new(AtomicUsize::new(0));
        let mut held_back = None;
        for _ in 0..16 {
            let f = freed.clone();
            let retired = Retired::with_bytes(256, move || {
                f.fetch_add(1, Ordering::AcqRel);
            });
            match domain.try_retire(retired) {
                Ok(()) => {}
                Err(bp) => {
                    assert_eq!(bp.max_backlog_bytes, 1024);
                    assert!(bp.pending_bytes >= 1024, "{bp}");
                    held_back = Some(bp.into_retired());
                    break;
                }
            }
        }
        let retired = held_back.expect("cap never refused under a gating reader");
        assert_eq!(freed.load(Ordering::Acquire), 0, "freed past the gate");

        // Release the reader, then hand the refused retirement over
        // through the blocking path: it must complete once the reader's
        // checkpoint lands (and the join guarantees it has).
        stage.store(2, Ordering::Release);
        reader.join().unwrap();
        domain.retire_or_quiesce(retired);
        let mut calls = 0;
        while domain.stats().pending > 0 {
            domain.checkpoint();
            calls += 1;
            assert!(calls < 64, "backlog never drained after quiescence");
        }
        assert!(freed.load(Ordering::Acquire) >= 1, "hand-over never ran");
        assert_eq!(domain.stats().pending_bytes, 0, "gauges back to baseline");
    });
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty(), "{report}");
}
