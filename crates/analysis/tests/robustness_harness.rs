//! The robust-reclamation transitions (DESIGN.md §9) under the
//! deterministic checker: quarantine of a stalled reader, and the
//! backpressure ladder (watermark → forced drain → hard cap → refusal →
//! blocking hand-over) with a reader gating the minimum.
//!
//! Both scenarios are scheduling-sensitive — quarantine races the
//! staller's last observe against the detector's scan, and backpressure
//! races retires against drains — so every interleaving the checker
//! explores must keep the protocol's promises: no premature free is ever
//! observable (a `CheckedCell` read-after-poison fails the run) and no
//! schedule deadlocks.

#![cfg(feature = "check")]

use rcuarray_analysis::atomic::{AtomicUsize, Ordering};
use rcuarray_analysis::{thread, CheckedCell, Checker, Config, Policy};
use rcuarray_qsbr::{PressureConfig, QsbrDomain, Reclaim, Retired, StallPolicy};
use std::sync::Arc;

/// The quarantine-ladder scenario shared by the sampled sweep and the
/// exhaustive-mode run.
fn quarantine_scenario() {
    let domain = Arc::new(QsbrDomain::new());
    domain.set_stall_policy(StallPolicy::after(1, 1));
    domain.register_current_thread();
    let payload = Arc::new(CheckedCell::new(7u64));
    let stage = Arc::new(AtomicUsize::new(0));

    let d = domain.clone();
    let p = payload.clone();
    let s = stage.clone();
    let staller = thread::spawn(move || {
        d.ensure_registered();
        // Read strictly before announcing the stall: a quarantined
        // reader's safety contract is that it holds no references
        // acquired before its last quiescent announcement.
        assert_eq!(p.read(), 7, "read after reclaim");
        s.store(1, Ordering::Release);
        // Stall: registered, never checkpointing, never parking.
        while s.load(Ordering::Acquire) == 1 {
            thread::yield_now();
        }
        // Leave the protocol explicitly (the checker's threads do
        // not run TLS destructors at join): the checkpoint rejoins
        // from quarantine, the park leaves the minimum scan.
        d.checkpoint();
        d.park();
    });
    while stage.load(Ordering::Acquire) == 0 {
        thread::yield_now();
    }

    // Retire the payload. The staller now lags the state epoch.
    let p2 = payload.clone();
    domain.defer(move || p2.write(0xDEAD));

    // Reclaiming checkpoints advance the robustness clock; once the
    // staller exhausts its patience it is force-parked and the free
    // runs without it. Bounded: this must NOT take a full schedule.
    let mut freed = 0;
    let mut calls = 0;
    while freed == 0 {
        freed = domain.checkpoint();
        calls += 1;
        assert!(calls < 64, "quarantine never unblocked reclamation");
    }
    assert_eq!(freed, 1);
    assert_eq!(payload.read(), 0xDEAD);
    assert_eq!(domain.num_quarantined(), 1, "staller must be quarantined");
    assert!(domain.stats().quarantines >= 1);

    // Release the staller; its rejoin checkpoint settles the
    // quarantine gauge back to baseline.
    stage.store(2, Ordering::Release);
    staller.join().unwrap();
    assert_eq!(domain.num_quarantined(), 0, "rejoin must clear quarantine");
}

/// A registered reader that stops checkpointing must be quarantined so
/// the owner's deferred reclamation proceeds without it — and the
/// staller's earlier payload read must still happen-before the poison on
/// every schedule (it held no references past its last observe).
#[test]
fn stalled_reader_is_quarantined_and_reclaim_proceeds() {
    let report = Checker::new(Config {
        base_seed: 0x5eed_9b01,
        iterations: 24,
        ..Config::default()
    })
    .run(quarantine_scenario);
    assert!(report.is_clean(), "{report}");
    assert!(report.deadlocks.is_empty(), "{report}");
}

/// The quarantine ladder under [`Policy::Dpor`]: the stall handshake
/// spins, so the budget bounds systematic exploration rather than
/// exhausting it; no explored schedule may leak a premature free.
#[test]
fn quarantine_ladder_clean_under_dpor() {
    let report = Checker::new(Config {
        policy: Policy::Dpor,
        iterations: 48,
        ..Config::default()
    })
    .run(quarantine_scenario);
    assert!(report.is_clean(), "{report}");
}

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
