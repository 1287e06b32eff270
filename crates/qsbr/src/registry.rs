//! The registry of participating threads: the paper's `TLSList`, "a linked
//! list" through which "all threads act as participants and keep track of
//! their own thread-specific metadata".
//!
//! Checkpoints scan it to find "the minimum observed epoch of all threads"
//! (Algorithm 2 lines 6–8). Registration and thread exit are rare, so the
//! list lives under a read-write lock: the hot scan takes the shared side.

use crate::defer_list::DeferChain;
use crate::record::ThreadRecord;
use rcuarray_analysis::sync::{Mutex, RwLock};
use rcuarray_reclaim::StallPolicy;
use std::sync::Arc;

/// An orphaned defer chain left behind by an exited thread, tagged with
/// the largest safe epoch it contains (its head's epoch): the whole chain
/// is reclaimable once the minimum observed epoch reaches that.
struct Orphan {
    max_epoch: u64,
    chain: DeferChain,
}

/// The domain-wide thread registry.
#[derive(Default)]
pub struct Registry {
    records: RwLock<Vec<Arc<ThreadRecord>>>,
    orphans: Mutex<Vec<Orphan>>,
    /// Lock-free mirror of `orphans.len()`, so the checkpoint hot path
    /// can skip orphan processing without touching the mutex.
    orphan_count: rcuarray_analysis::atomic::AtomicUsize,
    /// Currently quarantined (force-parked) participants.
    quarantined_count: rcuarray_analysis::atomic::AtomicUsize,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a new participant that has observed `initial_epoch`.
    /// Prunes records of exited threads while it holds the write lock.
    pub fn register(&self, initial_epoch: u64) -> Arc<ThreadRecord> {
        let record = Arc::new(ThreadRecord::new(initial_epoch));
        let mut records = self.records.write();
        records.retain(|r| !r.is_retired());
        records.push(Arc::clone(&record));
        record
    }

    /// Remove a participant at thread exit. Any reclamations still pending
    /// on its defer list are handed to the orphan list so they are neither
    /// leaked nor freed early.
    ///
    /// The record is retired *before* its defer list is drained; the drain
    /// holds the record's exclusion flag, so a concurrent quarantine scan
    /// either finished first (the list is already empty) or skips the
    /// record.
    pub fn unregister(&self, record: &Arc<ThreadRecord>) {
        record.retire();
        let leftovers = {
            let mut defer = record.lock_defer();
            if record.take_quarantined() {
                // Exited while quarantined: its chain was already orphaned
                // by the detector; just settle the gauge.
                self.quarantined_count
                    .fetch_sub(1, rcuarray_analysis::atomic::Ordering::AcqRel);
            }
            defer.take_all()
        };
        self.adopt(leftovers);
        self.records.write().retain(|r| !Arc::ptr_eq(r, record));
    }

    /// Adopt a defer chain whose owner can no longer process it (thread
    /// exit or parking).
    pub fn adopt(&self, chain: DeferChain) {
        if chain.is_empty() {
            return;
        }
        // The chain head carries the largest epoch (descending order,
        // Lemma 4); conservatively gate the whole chain on it.
        let max_epoch = chain_max_epoch(&chain);
        let mut orphans = self.orphans.lock();
        orphans.push(Orphan { max_epoch, chain });
        self.orphan_count
            .store(orphans.len(), rcuarray_analysis::atomic::Ordering::Release);
    }

    /// Whether any orphaned chains are pending (lock-free check).
    #[inline]
    pub fn has_orphans(&self) -> bool {
        self.orphan_count
            .load(rcuarray_analysis::atomic::Ordering::Acquire)
            != 0
    }

    /// The minimum observed epoch over all *participating* threads
    /// (Algorithm 2 lines 6–8), or `fallback` when no thread participates
    /// (then everything retired so far is reclaimable).
    pub fn min_observed(&self, fallback: u64) -> u64 {
        let records = self.records.read();
        records
            .iter()
            .filter(|r| r.participates())
            .map(|r| r.observed())
            .min()
            .unwrap_or(fallback)
    }

    /// Reclaim every orphaned chain whose epochs are all `<= min_epoch`.
    /// Returns `(entries freed, approximate bytes freed)`.
    pub fn reclaim_orphans(&self, min_epoch: u64) -> (usize, usize) {
        // try_lock: orphan reclamation is best-effort housekeeping; a
        // contended checkpoint should not serialize on it.
        let Some(mut orphans) = self.orphans.try_lock() else {
            return (0, 0);
        };
        let mut freed = 0;
        let mut freed_bytes = 0;
        orphans.retain_mut(|o| {
            if o.max_epoch > min_epoch {
                return true;
            }
            let chain = std::mem::replace(&mut o.chain, DeferChain::empty());
            freed_bytes += chain.bytes();
            freed += chain.reclaim_all();
            false
        });
        self.orphan_count
            .store(orphans.len(), rcuarray_analysis::atomic::Ordering::Release);
        (freed, freed_bytes)
    }

    /// Quarantine every participant that `policy` declares stalled:
    /// `state_epoch - observed >= lag_epochs` *and* no progress stamp for
    /// `patience` ticks (`now_tick - stamp >= patience`). A quarantined
    /// record stops gating the minimum scan and its defer chain moves to
    /// the orphan list (safe to seize: the detector holds the record's
    /// exclusion flag; an owner mid-operation fails the try-lock and is,
    /// by making progress, not stalled). Returns how many were
    /// quarantined.
    ///
    /// Semantics are exactly force-park: the domain asserts the stalled
    /// thread holds no protected references, the same contract
    /// [`park`](crate::QsbrDomain::park) places on a thread voluntarily.
    /// Thresholds must be chosen so only dead/idle readers trip them —
    /// see DESIGN.md §9.
    pub fn quarantine_stalled(
        &self,
        state_epoch: u64,
        now_tick: u64,
        policy: StallPolicy,
    ) -> usize {
        if !policy.detects_lag() {
            return 0;
        }
        let mut quarantined = 0;
        let records = self.records.read();
        for r in records.iter() {
            if !r.participates() {
                continue;
            }
            if state_epoch.saturating_sub(r.observed()) < policy.lag_epochs {
                continue;
            }
            if now_tick.saturating_sub(r.progress_stamp()) < policy.patience {
                continue;
            }
            let Some(mut defer) = r.try_lock_defer() else {
                continue; // owner mid-operation: progressing, not stalled
            };
            // Re-check under the flag: the owner may have checkpointed
            // between the scan above and our acquisition.
            if state_epoch.saturating_sub(r.observed()) < policy.lag_epochs {
                continue;
            }
            r.set_quarantined(true);
            let chain = defer.take_all();
            drop(defer);
            self.adopt(chain);
            quarantined += 1;
        }
        if quarantined > 0 {
            use rcuarray_analysis::atomic::Ordering;
            self.quarantined_count
                .fetch_add(quarantined, Ordering::AcqRel);
        }
        quarantined
    }

    /// Settle the quarantine gauge when an owner re-joins (cleared its own
    /// quarantine flag at a defer/checkpoint).
    pub fn note_rejoin(&self) {
        self.quarantined_count
            .fetch_sub(1, rcuarray_analysis::atomic::Ordering::AcqRel);
    }

    /// Participants currently quarantined.
    pub fn num_quarantined(&self) -> usize {
        self.quarantined_count
            .load(rcuarray_analysis::atomic::Ordering::Acquire)
    }

    /// Number of live (non-retired) participants.
    pub fn num_participants(&self) -> usize {
        self.records
            .read()
            .iter()
            .filter(|r| !r.is_retired())
            .count()
    }

    /// Number of orphaned chains awaiting reclamation.
    pub fn num_orphans(&self) -> usize {
        self.orphans.lock().len()
    }

    /// Run `f` for each participating record (diagnostics).
    pub fn for_each_participant(&self, mut f: impl FnMut(&ThreadRecord)) {
        for r in self.records.read().iter() {
            if r.participates() {
                f(r);
            }
        }
    }
}

fn chain_max_epoch(chain: &DeferChain) -> u64 {
    chain.head_epoch().unwrap_or(0)
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("participants", &self.num_participants())
            .field("orphans", &self.num_orphans())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defer_list::DeferList;
    use rcuarray_analysis::atomic::{AtomicUsize, Ordering};

    #[test]
    fn register_and_min() {
        let reg = Registry::new();
        let a = reg.register(5);
        let b = reg.register(9);
        assert_eq!(reg.min_observed(100), 5);
        a.observe(20);
        assert_eq!(reg.min_observed(100), 9);
        b.observe(30);
        assert_eq!(reg.min_observed(100), 20);
        assert_eq!(reg.num_participants(), 2);
    }

    #[test]
    fn min_with_no_participants_is_fallback() {
        let reg = Registry::new();
        assert_eq!(reg.min_observed(42), 42);
    }

    #[test]
    fn parked_threads_excluded_from_min() {
        let reg = Registry::new();
        let a = reg.register(1);
        let _b = reg.register(10);
        a.set_parked(true);
        assert_eq!(reg.min_observed(99), 10);
    }

    #[test]
    fn unregister_moves_defers_to_orphans() {
        let reg = Registry::new();
        let freed = Arc::new(AtomicUsize::new(0));
        let a = reg.register(0);
        let f2 = Arc::clone(&freed);
        a.lock_defer().push(3, move || {
            f2.fetch_add(1, Ordering::SeqCst);
        });
        reg.unregister(&a);
        assert_eq!(reg.num_participants(), 0);
        assert_eq!(reg.num_orphans(), 1);
        assert_eq!(freed.load(Ordering::SeqCst), 0, "not freed early");
        // No participants: fallback min allows reclamation.
        assert_eq!(reg.reclaim_orphans(3), (1, 0));
        assert_eq!(freed.load(Ordering::SeqCst), 1);
        assert_eq!(reg.num_orphans(), 0);
    }

    #[test]
    fn orphans_respect_min_epoch() {
        let reg = Registry::new();
        let mut list = DeferList::new();
        list.push_with_bytes(7, 100, || {});
        reg.adopt(list.take_all());
        assert_eq!(reg.reclaim_orphans(6), (0, 0), "min below chain epoch");
        assert_eq!(reg.num_orphans(), 1);
        assert_eq!(reg.reclaim_orphans(7), (1, 100), "bytes follow the chain");
    }

    #[test]
    fn adopt_empty_chain_is_noop() {
        let reg = Registry::new();
        let mut list = DeferList::new();
        reg.adopt(list.take_all());
        assert_eq!(reg.num_orphans(), 0);
    }

    #[test]
    fn register_prunes_retired_records() {
        let reg = Registry::new();
        let a = reg.register(0);
        a.retire(); // simulate exit without full unregister
        let _b = reg.register(0);
        assert_eq!(reg.num_participants(), 1);
    }

    #[test]
    fn quarantine_stalled_orphans_the_chain_and_unblocks_the_min() {
        let reg = Registry::new();
        let freed = Arc::new(AtomicUsize::new(0));
        let stalled = reg.register(0); // lags forever
        let writer = reg.register(0);
        let f2 = Arc::clone(&freed);
        stalled.lock_defer().push(1, move || {
            f2.fetch_add(1, Ordering::SeqCst);
        });
        writer.observe(10);
        assert_eq!(reg.min_observed(10), 0, "stalled record gates the min");
        // Below both thresholds: nothing happens.
        assert_eq!(reg.quarantine_stalled(10, 0, StallPolicy::after(100, 0)), 0);
        assert_eq!(reg.quarantine_stalled(10, 0, StallPolicy::after(4, 5)), 0);
        // Lag 10 >= 4 and 5 ticks of no progress: quarantined.
        assert_eq!(reg.quarantine_stalled(10, 5, StallPolicy::after(4, 5)), 1);
        assert!(stalled.is_quarantined());
        assert_eq!(reg.num_quarantined(), 1);
        assert_eq!(reg.min_observed(10), 10, "min no longer gated");
        // Its chain was orphaned, gated on its own epochs, and now frees.
        assert_eq!(reg.num_orphans(), 1);
        assert_eq!(reg.reclaim_orphans(10), (1, 0));
        assert_eq!(freed.load(Ordering::SeqCst), 1);
        // A second scan is idempotent: quarantined records do not
        // participate.
        assert_eq!(reg.quarantine_stalled(10, 9, StallPolicy::after(4, 5)), 0);
    }

    #[test]
    fn quarantine_skips_records_with_the_defer_flag_held() {
        let reg = Registry::new();
        let stalled = reg.register(0);
        let _busy = stalled.lock_defer(); // owner "mid-operation"
        assert_eq!(
            reg.quarantine_stalled(100, 100, StallPolicy::after(1, 0)),
            0,
            "an owner holding its flag is progressing, not stalled"
        );
        assert!(!stalled.is_quarantined());
    }

    #[test]
    fn disabled_policy_never_quarantines() {
        let reg = Registry::new();
        let _r = reg.register(0);
        assert_eq!(
            reg.quarantine_stalled(u64::MAX - 1, u64::MAX - 1, StallPolicy::disabled()),
            0
        );
    }

    #[test]
    fn unregister_while_quarantined_settles_the_gauge() {
        let reg = Registry::new();
        let r = reg.register(0);
        assert_eq!(reg.quarantine_stalled(10, 10, StallPolicy::after(1, 1)), 1);
        assert_eq!(reg.num_quarantined(), 1);
        reg.unregister(&r);
        assert_eq!(reg.num_quarantined(), 0);
    }

    #[test]
    fn for_each_participant_visits_live_only() {
        let reg = Registry::new();
        let a = reg.register(0);
        let _b = reg.register(0);
        a.set_parked(true);
        let mut n = 0;
        reg.for_each_participant(|_| n += 1);
        assert_eq!(n, 1);
    }
}
