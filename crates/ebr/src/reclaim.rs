//! The unified [`Reclaim`] trait implemented natively on [`EpochZone`]:
//! the TLS-free EBR protocol *is* a reclamation scheme, no adapter
//! needed.
//!
//! * Guard = [`EpochGuard`]: the read–increment–verify pin, released
//!   (RAII) even on panic.
//! * Retire = synchronous drain: advance the epoch, wait for the old
//!   parity counter to empty, free immediately. A stalled reader on the
//!   old parity blocks the writer (Algorithm 1 lines 6–7). EBR never
//!   accumulates a backlog, so its pending/lag stats are structurally
//!   zero and a [`PressureConfig`](rcuarray_reclaim::PressureConfig) cap
//!   could never trip: the zone keeps the trait's unbounded default.
//! * Quiesce = nothing to drain (always 0).

use crate::epoch::EpochZone;
use crate::guard::EpochGuard;
use rcuarray_reclaim::{Reclaim, ReclaimStats, Retired};

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
        0
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
            // Synchronous: everything retired has been freed.
            retired,
            reclaimed: retired,
            guard_panics: z.guard_panics,
            ..ReclaimStats::default()
        }
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
