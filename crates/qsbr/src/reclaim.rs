//! The unified [`Reclaim`] trait implemented natively on [`QsbrDomain`].
//!
//! * Guard = `()`: QSBR reads are free by construction; `read_lock` only
//!   guarantees the calling thread participates in the minimum-epoch scan
//!   (an unregistered reader would be invisible and therefore
//!   unprotected).
//! * Retire = `QSBR_Defer`: push onto the calling thread's defer list,
//!   freed at a later quiescence point.
//! * Quiesce = `QSBR_Checkpoint`: announce quiescence and drain what is
//!   provably unreachable.

use crate::domain::QsbrDomain;
use rcuarray_reclaim::{PressureConfig, Reclaim, ReclaimStats, Retired};

impl Reclaim for QsbrDomain {
    type Guard<'a> = ();

    #[inline]
    fn read_lock(&self) -> Self::Guard<'_> {
        self.ensure_registered();
    }

    fn retire(&self, retired: Retired) {
        let (bytes, run) = retired.into_parts();
        self.defer_with_bytes(bytes, run);
    }

    #[inline]
    fn quiesce(&self) -> usize {
        self.checkpoint()
    }

    #[inline]
    fn guards_reads(&self) -> bool {
        false
    }

    #[inline]
    fn name(&self) -> &'static str {
        "qsbr"
    }

    /// QSBR counters live on the shared domain, not per handle, so the
    /// stats are flagged `domain_wide`: merging per-locale clones takes
    /// the max instead of summing the same numbers N times.
    fn reclaim_stats(&self) -> ReclaimStats {
        let s = self.stats();
        ReclaimStats {
            guards: 0,
            guard_retries: 0,
            advances: s.checkpoints,
            retired: s.defers,
            reclaimed: s.reclaimed,
            pending: s.pending,
            pending_bytes: s.pending_bytes,
            // How far the slowest participant trails the state epoch right
            // now. Computed registry-side: probing stats must not register
            // the calling thread as a participant.
            epoch_lag: self.state_epoch().saturating_sub(self.min_observed()),
            // Cumulative quarantine events: every one is a participant the
            // domain declared stalled and force-parked.
            stalled: s.quarantines,
            // QSBR guards are free tokens; nothing to release on unwind.
            guard_panics: 0,
            domain_wide: true,
        }
    }

    #[inline]
    fn pressure(&self) -> PressureConfig {
        self.pressure_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray_analysis::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn retire_counting(r: &impl Reclaim, c: &Arc<AtomicUsize>) {
        let c = Arc::clone(c);
        r.retire(Retired::with_bytes(64, move || {
            c.fetch_add(1, Ordering::SeqCst);
        }));
    }

    #[test]
    fn qsbr_retire_defers_until_quiesce() {
        let d = QsbrDomain::new();
        let c = Arc::new(AtomicUsize::new(0));
        retire_counting(&d, &c);
        assert_eq!(c.load(Ordering::SeqCst), 0, "retire must not free eagerly");
        assert_eq!(d.quiesce(), 1);
        assert_eq!(c.load(Ordering::SeqCst), 1);
        assert!(!d.guards_reads());
        assert_eq!(Reclaim::name(&d), "qsbr");
    }

    #[test]
    fn qsbr_stats_are_domain_wide_with_byte_hints() {
        let d = QsbrDomain::new();
        let c = Arc::new(AtomicUsize::new(0));
        retire_counting(&d, &c);
        let s = d.reclaim_stats();
        assert!(s.domain_wide);
        assert_eq!(s.retired, 1);
        assert_eq!(s.pending, 1);
        assert_eq!(s.pending_bytes, 64);
        d.quiesce();
        let s = d.reclaim_stats();
        assert_eq!(s.reclaimed, 1);
        assert_eq!(s.pending, 0);
        assert_eq!(s.pending_bytes, 0);
    }

    #[test]
    fn qsbr_epoch_lag_tracks_the_slowest_participant() {
        let d = QsbrDomain::new();
        d.register_current_thread();
        d.defer(|| {});
        d.defer(|| {});
        // Sole participant observed every bump, so lag is zero.
        assert_eq!(d.reclaim_stats().epoch_lag, 0);
        let d2 = d.clone();
        rcuarray_analysis::thread::spawn(move || {
            d2.register_current_thread();
            // Exits immediately; main keeps deferring below.
        })
        .join()
        .unwrap();
        d.defer(|| {});
        // Lag reflects registry state without registering the prober.
        let _ = d.reclaim_stats().epoch_lag;
    }

    #[test]
    fn qsbr_pressure_flows_through_the_trait() {
        let d = QsbrDomain::new();
        d.set_pressure(rcuarray_reclaim::PressureConfig::bounded(256));
        assert_eq!(Reclaim::pressure(&d).max_backlog_bytes, 256);
    }

    #[test]
    fn qsbr_try_retire_backpressures_under_a_stalled_reader() {
        let d = QsbrDomain::new();
        d.set_pressure(rcuarray_reclaim::PressureConfig {
            max_backlog_bytes: 200,
            high_watermark: 100,
        });
        let gate = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(std::sync::Barrier::new(2));
        let d2 = d.clone();
        let (g2, r2) = (Arc::clone(&gate), Arc::clone(&release));
        let staller = rcuarray_analysis::thread::spawn(move || {
            d2.register_current_thread();
            g2.wait();
            r2.wait();
            d2.checkpoint();
        });
        gate.wait();
        // Fill to the cap: the stalled reader gates every drain attempt.
        assert!(d.try_retire(Retired::with_bytes(200, || {})).is_ok());
        let err = d
            .try_retire(Retired::with_bytes(8, || {}))
            .expect_err("cap reached and nothing can drain");
        err.into_retired().run();
        // The reader quiesces: backpressure lifts.
        release.wait();
        staller.join().unwrap();
        assert!(d.try_retire(Retired::with_bytes(8, || {})).is_ok());
        d.checkpoint();
        assert_eq!(d.reclaim_stats().pending, 0);
    }

    #[test]
    fn read_lock_registers_the_calling_thread() {
        let d = QsbrDomain::new();
        let d2 = d.clone();
        rcuarray_analysis::thread::spawn(move || {
            d2.read_lock(); // guard is a free () token; registration is the effect
            assert!(d2.num_participants() >= 1);
        })
        .join()
        .unwrap();
    }
}
