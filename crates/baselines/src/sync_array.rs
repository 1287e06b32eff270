//! `SyncArray`: the paper's mutual-exclusion baseline.
//!
//! "While UnsafeArray allows for concurrent read and update operations, it
//! is unable to allow concurrent resize operations and so a safer variant
//! is defined that uses mutual exclusion via sync variables" (§V).
//!
//! The sync variable serves only as a mutex, so every operation — reads
//! included — acquires one cluster-wide [`GlobalLock`] homed on locale 0.
//! This is what makes it "the slowest of all where not only does
//! it not scale due to mutual exclusion, but also degrades in performance
//! due to the increasing number of remote tasks that must contest for the
//! same lock" (§V-A): the comm layer charges every remote task a round
//! trip per acquisition and a PUT per release.

use crate::unsafe_array::UnsafeArray;
use rcuarray::Element;
use rcuarray_runtime::{Cluster, GlobalLock, LocaleId};
use std::sync::Arc;

/// The lock-guarded distributed array.
pub struct SyncArray<T: Element> {
    inner: UnsafeArray<T>,
    lock: GlobalLock,
}

impl<T: Element> SyncArray<T> {
    /// An empty locked array over `cluster`.
    pub fn new(cluster: &Arc<Cluster>) -> Self {
        SyncArray {
            inner: UnsafeArray::new(cluster),
            lock: GlobalLock::new(cluster, LocaleId::ZERO),
        }
    }

    /// An array pre-sized to `capacity`.
    pub fn with_capacity(cluster: &Arc<Cluster>, capacity: usize) -> Self {
        let a = Self::new(cluster);
        a.resize(capacity);
        a
    }

    /// Run `f` under the cluster-wide lock. The guard's drop releases the
    /// lock (and charges a remote task's release) on unwind too.
    fn locked<R>(&self, f: impl FnOnce(&UnsafeArray<T>) -> R) -> R {
        let _g = self.lock.acquire();
        f(&self.inner)
    }

    /// Read element `idx` under the lock.
    pub fn read(&self, idx: usize) -> T {
        self.locked(|a| a.read(idx))
    }

    /// Update element `idx` under the lock.
    pub fn write(&self, idx: usize, v: T) {
        self.locked(|a| a.write(idx, v))
    }

    /// Grow by `additional` elements under the lock (deep copy, like the
    /// underlying UnsafeArray).
    pub fn resize(&self, additional: usize) -> usize {
        self.locked(|a| a.resize(additional))
    }

    /// Capacity in elements (lock-free: a stale answer is as good as a
    /// locked one for a monotonically growing array).
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Alias of [`capacity`](Self::capacity).
    pub fn len(&self) -> usize {
        self.capacity()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.capacity() == 0
    }

    /// Total lock acquisitions (each op takes exactly one).
    pub fn acquisitions(&self) -> u64 {
        self.lock.acquisitions()
    }

    /// Snapshot the values under one lock acquisition.
    pub fn to_vec(&self) -> Vec<T> {
        self.locked(|a| a.to_vec())
    }
}

impl<T: Element> std::fmt::Debug for SyncArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncArray")
            .field("capacity", &self.capacity())
            .field("acquisitions", &self.acquisitions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray_runtime::{task, Topology};

    fn cluster(n: usize) -> Arc<Cluster> {
        Cluster::new(Topology::new(n, 1))
    }

    #[test]
    fn basic_round_trip() {
        let c = cluster(2);
        let a: SyncArray<u64> = SyncArray::new(&c);
        a.resize(10);
        a.write(3, 7);
        assert_eq!(a.read(3), 7);
        assert_eq!(a.capacity(), 10);
        assert_eq!(a.acquisitions(), 3); // resize + write + read
    }

    #[test]
    fn concurrent_ops_and_resizes_are_safe() {
        let c = cluster(2);
        let a = Arc::new(SyncArray::<u64>::new(&c));
        a.resize(8);
        std::thread::scope(|s| {
            let a1 = Arc::clone(&a);
            s.spawn(move || {
                for _ in 0..20 {
                    a1.resize(8);
                }
            });
            for _ in 0..3 {
                let a2 = Arc::clone(&a);
                s.spawn(move || {
                    for i in 0..500 {
                        a2.write(i % 8, i as u64);
                        let _ = a2.read(i % 8);
                    }
                });
            }
        });
        assert_eq!(a.capacity(), 8 + 20 * 8);
    }

    #[test]
    fn remote_tasks_pay_for_the_lock() {
        let c = cluster(2);
        let a: SyncArray<u64> = SyncArray::new(&c);
        a.resize(4);
        c.comm().reset();
        task::with_locale(LocaleId::new(1), || {
            let _ = a.read(0);
        });
        let s = c.comm_stats();
        // Lock acquire round trip (get+put) + release put, plus the
        // element GET itself (index 0 is homed on L0).
        assert!(s.gets >= 2, "lock + element gets, saw {s:?}");
        assert!(s.puts >= 2, "lock puts, saw {s:?}");
    }

    #[test]
    fn local_tasks_do_not_pay_lock_comm() {
        let c = cluster(2);
        let a: SyncArray<u64> = SyncArray::new(&c);
        a.resize(4);
        c.comm().reset();
        task::with_locale(LocaleId::ZERO, || {
            let _ = a.read(0);
        });
        assert_eq!(c.comm_stats().remote_ops(), 0);
    }

    #[test]
    fn remote_panic_under_the_lock_still_pays_the_release() {
        let c = cluster(2);
        let a: SyncArray<u64> = SyncArray::new(&c);
        a.resize(4);
        c.comm().reset();
        task::with_locale(LocaleId::new(1), || {
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.read(99)));
            assert!(died.is_err(), "out-of-bounds read must panic");
        });
        // The acquire round trip's write-back plus the release, paid by
        // the guard's drop during unwind.
        assert_eq!(c.comm_stats().puts, 2, "{:?}", c.comm_stats());
        assert!(!a.lock.is_locked(), "unwind must release the lock");
        task::with_locale(LocaleId::new(1), || {
            a.write(1, 7);
            assert_eq!(a.read(1), 7);
        });
    }

    #[test]
    fn to_vec_under_single_acquisition() {
        let c = cluster(1);
        let a: SyncArray<u16> = SyncArray::new(&c);
        a.resize(3);
        a.write(1, 5);
        let before = a.acquisitions();
        assert_eq!(a.to_vec(), vec![0, 5, 0]);
        assert_eq!(a.acquisitions(), before + 1);
    }
}
