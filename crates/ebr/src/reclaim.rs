//! The unified [`Reclaim`] trait implemented natively on [`EpochZone`]:
//! the TLS-free EBR protocol *is* a reclamation scheme, no adapter
//! needed.
//!
//! * Guard = [`EpochGuard`]: the read–increment–verify pin, released
//!   (RAII) even on panic.
//! * Retire = synchronous drain: advance the epoch, wait for the old
//!   parity counter to empty, free immediately — EBR never accumulates a
//!   backlog, which is why its pending/lag stats are structurally zero
//!   under the default (disabled) [`StallPolicy`]. With a stall bound
//!   installed the drain is bounded and a stalled reader flips the
//!   writer into *evacuation*: the retirement parks on the zone's
//!   evacuation list (so the writer progresses) and frees once both
//!   parity counters have been observed empty.
//! * Quiesce = drain the evacuation list (0 with nothing evacuated).
//!
//! [`StallPolicy`]: rcuarray_reclaim::StallPolicy

use crate::epoch::EpochZone;
use crate::guard::EpochGuard;
use rcuarray_reclaim::{PressureConfig, Reclaim, ReclaimStats, Retired};

impl Reclaim for EpochZone {
    type Guard<'a> = EpochGuard<'a>;

    #[inline]
    fn read_lock(&self) -> EpochGuard<'_> {
        EpochGuard::pin(self)
    }

    fn retire(&self, retired: Retired) {
        self.retire_robust(retired);
    }

    #[inline]
    fn quiesce(&self) -> usize {
        self.try_drain_evac()
    }

    #[inline]
    fn name(&self) -> &'static str {
        "ebr"
    }

    fn reclaim_stats(&self) -> ReclaimStats {
        let z = self.stats();
        let retired = self.retires();
        ReclaimStats {
            guards: z.pins,
            guard_retries: z.retries,
            advances: z.advances,
            // Synchronous except for evacuations: everything retired has
            // been freed unless it is parked on the evacuation list.
            retired,
            reclaimed: retired.saturating_sub(z.evac_pending),
            pending: z.evac_pending,
            pending_bytes: z.evac_pending_bytes,
            stalled: z.stalled,
            guard_panics: z.guard_panics,
            ..ReclaimStats::default()
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
    use rcuarray_analysis::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn retire_is_synchronous() {
        let zone = EpochZone::new();
        let freed = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&freed);
        zone.retire(Retired::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(freed.load(Ordering::SeqCst), 1, "EBR frees at retire");
        assert_eq!(zone.quiesce(), 0);
        let s = zone.reclaim_stats();
        assert_eq!(s.advances, 1);
        assert_eq!(s.pending, 0, "EBR never has a backlog");
    }

    #[test]
    fn guard_blocks_retirement_until_dropped() {
        let zone = Arc::new(EpochZone::new());
        let freed = Arc::new(AtomicBool::new(false));
        let guard = zone.read_lock();
        std::thread::scope(|s| {
            let z = Arc::clone(&zone);
            let f = Arc::clone(&freed);
            let writer = s.spawn(move || {
                z.retire(Retired::new(move || f.store(true, Ordering::SeqCst)));
            });
            std::thread::sleep(std::time::Duration::from_millis(40));
            assert!(
                !freed.load(Ordering::SeqCst),
                "retire must wait for the pinned reader"
            );
            drop(guard);
            writer.join().unwrap();
        });
        assert!(freed.load(Ordering::SeqCst));
    }

    #[test]
    fn stalled_reader_triggers_evacuation_and_the_writer_progresses() {
        let zone = EpochZone::new();
        zone.set_stall_policy(rcuarray_reclaim::StallPolicy::after(1, 64));
        let guard = zone.read_lock(); // pinned "forever" on parity 0
        let freed = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&freed);
        // The classic protocol would deadlock here (same thread holds the
        // pin); the bounded drain evacuates instead.
        zone.retire(Retired::with_bytes(128, move || {
            f.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(
            freed.load(Ordering::SeqCst),
            0,
            "cannot free under a live pin"
        );
        let s = zone.reclaim_stats();
        assert_eq!(s.pending, 1);
        assert_eq!(s.pending_bytes, 128);
        assert_eq!(s.stalled, 1);
        assert_eq!(zone.quiesce(), 0, "still gated by the pin");
        drop(guard);
        assert_eq!(zone.quiesce(), 1, "both parities drained: evacuation frees");
        assert_eq!(freed.load(Ordering::SeqCst), 1);
        let s = zone.reclaim_stats();
        assert_eq!(s.pending, 0);
        assert_eq!(s.pending_bytes, 0);
        assert_eq!(s.reclaimed, s.retired);
    }

    #[test]
    fn ebr_backpressure_bounds_evacuation_memory() {
        let zone = EpochZone::new();
        zone.set_stall_policy(rcuarray_reclaim::StallPolicy::after(1, 16));
        zone.set_pressure(rcuarray_reclaim::PressureConfig {
            max_backlog_bytes: 256,
            high_watermark: 128,
        });
        let guard = zone.read_lock();
        // First retire may overshoot the cap by its own size (slack).
        assert!(zone.try_retire(Retired::with_bytes(256, || {})).is_ok());
        // At the cap with an undrainable backlog: graceful rejection, the
        // object comes back to the caller.
        let err = zone
            .try_retire(Retired::with_bytes(64, || {}))
            .expect_err("evacuation backlog at the cap must reject");
        assert_eq!(err.pending_bytes, 256);
        err.into_retired().run();
        // The stalled reader recovers: backpressure lifts.
        drop(guard);
        assert!(zone.try_retire(Retired::with_bytes(64, || {})).is_ok());
        zone.quiesce();
        assert_eq!(zone.reclaim_stats().pending, 0);
    }

    #[test]
    fn stats_surface_pins_and_retries() {
        let zone = EpochZone::new();
        for _ in 0..5 {
            let _g = zone.read_lock();
        }
        let s = zone.reclaim_stats();
        assert_eq!(s.guards, 5);
        assert_eq!(zone.name(), "ebr");
        assert!(!s.domain_wide, "zones are per-locale; stats sum");
    }
}
