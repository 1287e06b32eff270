//! Per-thread participant records: the "thread-specific metadata" of
//! Algorithm 2, reachable by other threads through the registry (the
//! paper's `TLSList`) for the minimum-epoch scan.

use crate::defer_list::DeferList;
use rcuarray_analysis::atomic::{AtomicBool, AtomicU64, Ordering};
use std::cell::UnsafeCell;

/// One thread's QSBR participation state.
///
/// The `observed`/`parked`/`retired` fields are read by *other* threads
/// during checkpoints. The defer list is owner-accessed on every hot path
/// (that is the paper's lock-freedom argument); the one cold exception is
/// the backlog gauges ([`pending`](Self::pending),
/// [`pending_bytes`](Self::pending_bytes)), which any thread may read.
/// Exclusion is a single `defer_busy` flag — an uncontended swap+store
/// for the owner.
pub struct ThreadRecord {
    /// The newest `StateEpoch` this thread has promised quiescence up to.
    observed: AtomicU64,
    /// Parked threads are skipped by the minimum scan: an idle thread
    /// holds no protected references by contract.
    parked: AtomicBool,
    /// Set when the owning thread exited; the registry prunes retired
    /// records lazily.
    retired: AtomicBool,
    /// Exclusion flag over `defer` (see type docs).
    defer_busy: AtomicBool,
    /// LIFO defer list, accessed only while holding `defer_busy`.
    defer: UnsafeCell<DeferList>,
}

// SAFETY: all fields but `defer` are atomics; `defer` is only reachable
// through `DeferGuard`, which holds the `defer_busy` exclusion flag for
// its lifetime.
unsafe impl Sync for ThreadRecord {}
unsafe impl Send for ThreadRecord {}

impl ThreadRecord {
    /// A fresh record that has observed `initial_epoch`.
    ///
    /// Registration is itself a quiescence point: the new thread cannot
    /// hold references to anything retired before it joined.
    pub fn new(initial_epoch: u64) -> Self {
        ThreadRecord {
            observed: AtomicU64::new(initial_epoch),
            parked: AtomicBool::new(false),
            retired: AtomicBool::new(false),
            defer_busy: AtomicBool::new(false),
            defer: UnsafeCell::new(DeferList::new()),
        }
    }

    /// The epoch this thread last observed.
    #[inline]
    pub fn observed(&self) -> u64 {
        self.observed.load(Ordering::Acquire)
    }

    /// Publish a new observed epoch — the thread's promise that "it has
    /// become entirely quiescent of the state described by" anything
    /// earlier.
    #[inline]
    pub fn observe(&self, epoch: u64) {
        debug_assert!(
            epoch >= self.observed.load(Ordering::Relaxed),
            "observed epochs must be monotone"
        );
        // Release: everything this thread did with older snapshots
        // happens-before another thread trusting this announcement.
        self.observed.store(epoch, Ordering::Release);
    }

    /// Whether the thread is parked (idle, excluded from the minimum).
    #[inline]
    pub fn is_parked(&self) -> bool {
        self.parked.load(Ordering::Acquire)
    }

    /// Mark parked / unparked.
    #[inline]
    pub fn set_parked(&self, parked: bool) {
        self.parked.store(parked, Ordering::Release);
    }

    /// Whether the owning thread has exited.
    #[inline]
    pub fn is_retired(&self) -> bool {
        self.retired.load(Ordering::Acquire)
    }

    /// Mark the record as belonging to an exited thread.
    #[inline]
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// Whether the minimum-epoch scan should consider this record.
    #[inline]
    pub fn participates(&self) -> bool {
        !self.is_parked() && !self.is_retired()
    }

    /// Exclusive access to the defer list, spin-acquiring the exclusion
    /// flag. Contention exists only against the (cold) backlog gauges, so
    /// the owner's acquisition is one uncontended atomic swap in practice.
    #[inline]
    pub fn lock_defer(&self) -> DeferGuard<'_> {
        while self.defer_busy.swap(true, Ordering::Acquire) {
            rcuarray_analysis::thread::yield_now();
        }
        DeferGuard { record: self }
    }

    /// Number of pending defers (acquires the exclusion flag briefly).
    pub fn pending(&self) -> usize {
        self.lock_defer().len()
    }

    /// Approximate bytes pending on the defer list.
    pub fn pending_bytes(&self) -> usize {
        self.lock_defer().bytes()
    }
}

/// Exclusive access to a record's defer list, released on drop.
pub struct DeferGuard<'a> {
    record: &'a ThreadRecord,
}

impl std::ops::Deref for DeferGuard<'_> {
    type Target = DeferList;
    #[inline]
    fn deref(&self) -> &DeferList {
        // SAFETY: we hold `defer_busy`, the sole exclusion token.
        unsafe { &*self.record.defer.get() }
    }
}

impl std::ops::DerefMut for DeferGuard<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut DeferList {
        // SAFETY: we hold `defer_busy`, the sole exclusion token.
        unsafe { &mut *self.record.defer.get() }
    }
}

impl Drop for DeferGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.record.defer_busy.store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for ThreadRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadRecord")
            .field("observed", &self.observed())
            .field("parked", &self.is_parked())
            .field("retired", &self.is_retired())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_record_participates() {
        let r = ThreadRecord::new(7);
        assert_eq!(r.observed(), 7);
        assert!(r.participates());
    }

    #[test]
    fn observe_is_monotone() {
        let r = ThreadRecord::new(0);
        r.observe(3);
        r.observe(3);
        r.observe(9);
        assert_eq!(r.observed(), 9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "monotone")]
    fn observe_backwards_asserts() {
        let r = ThreadRecord::new(5);
        r.observe(4);
    }

    #[test]
    fn parked_records_do_not_participate() {
        let r = ThreadRecord::new(0);
        r.set_parked(true);
        assert!(!r.participates());
        r.set_parked(false);
        assert!(r.participates());
    }

    #[test]
    fn retired_records_do_not_participate() {
        let r = ThreadRecord::new(0);
        r.retire();
        assert!(!r.participates());
    }

    #[test]
    fn defer_list_is_reachable_through_the_guard() {
        let r = ThreadRecord::new(0);
        r.lock_defer().push(1, || {});
        assert_eq!(r.pending(), 1);
        drop(r.lock_defer().take_all());
        assert_eq!(r.pending(), 0);
    }
}
