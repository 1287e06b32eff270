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
    pub fn unregister(&self, record: &Arc<ThreadRecord>) {
        record.retire();
        let leftovers = record.lock_defer().take_all();
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
