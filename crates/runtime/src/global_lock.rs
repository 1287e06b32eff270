//! Cluster-wide mutual exclusion: the paper's `WriteLock`.
//!
//! Listing 1 describes `WriteLock` as "a cluster-wide lock, in this case a
//! lock that is wrapped in some class allocated on a single node, used to
//! provide mutual exclusion with respect to all locales during resize
//! operations". [`GlobalLock`] mirrors that: the lock state is *homed* on
//! one locale (locale 0 unless configured otherwise), and every
//! acquisition/release by a task on another locale is charged as a remote
//! operation through the communication layer — which is exactly why the
//! paper's `SyncArray` degrades as locales are added: "remote tasks must
//! contest for the same lock".

use crate::comm::CommMessage;
use crate::locale::LocaleId;
use crate::task;
use crate::Cluster;
use rcuarray_analysis::atomic::{AtomicU64, Ordering};
use rcuarray_analysis::sync::{Mutex, MutexGuard};
use std::sync::Arc;

/// A lock allocated on a single locale and contended cluster-wide.
pub struct GlobalLock {
    home: LocaleId,
    inner: Mutex<()>,
    cluster: Arc<Cluster>,
    acquisitions: AtomicU64,
    remote_acquisitions: AtomicU64,
}

impl GlobalLock {
    /// A lock homed on `home` that charges remote acquisitions through the
    /// given cluster's communication layer.
    pub fn new(cluster: &Arc<Cluster>, home: LocaleId) -> Self {
        assert!(
            home.index() < cluster.num_locales(),
            "lock home {home} outside cluster"
        );
        GlobalLock {
            home,
            inner: Mutex::new(()),
            cluster: Arc::clone(cluster),
            acquisitions: AtomicU64::new(0),
            remote_acquisitions: AtomicU64::new(0),
        }
    }

    /// The locale the lock state lives on.
    #[inline]
    pub fn home(&self) -> LocaleId {
        self.home
    }

    /// Acquire the lock, blocking. A task on a locale other than
    /// [`home`](Self::home) pays a round-trip to reach the lock word.
    pub fn acquire(&self) -> GlobalLockGuard<'_> {
        self.charge_acquire();
        self.guard(self.inner.lock())
    }

    /// Try to acquire, giving up after `timeout` (`Duration::ZERO` tries
    /// once without blocking). The bounded wait is what keeps a resize
    /// from hanging forever behind a wedged or panicked peer;
    /// communication is charged only on success.
    pub fn try_acquire_for(&self, timeout: std::time::Duration) -> Option<GlobalLockGuard<'_>> {
        let guard = self.inner.try_lock_for(timeout)?;
        self.charge_acquire();
        Some(self.guard(guard))
    }

    /// Count one acquisition; a remote one also pays one LockAcquire
    /// message, which lowers to the GET (read/try) + PUT (RMW write-back)
    /// round trip a remote compare-and-swap costs on the wire.
    fn charge_acquire(&self) {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        if task::current_locale() != self.home {
            self.remote_acquisitions.fetch_add(1, Ordering::Relaxed);
            let _ = self.cluster.send_to(self.home, CommMessage::LockAcquire);
        }
    }

    fn guard<'a>(&'a self, guard: MutexGuard<'a, ()>) -> GlobalLockGuard<'a> {
        GlobalLockGuard {
            lock: self,
            _guard: guard,
        }
    }

    /// Whether some task currently holds the lock.
    pub fn is_locked(&self) -> bool {
        self.inner.is_locked()
    }

    /// Total acquisitions so far.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Acquisitions initiated from a locale other than the home locale.
    pub fn remote_acquisitions(&self) -> u64 {
        self.remote_acquisitions.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for GlobalLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalLock")
            .field("home", &self.home)
            .field("locked", &self.is_locked())
            .field("acquisitions", &self.acquisitions())
            .finish()
    }
}

/// RAII guard: the lock is held until this is dropped. Release by a remote
/// task is also charged as a PUT (writing the unlocked state back).
pub struct GlobalLockGuard<'a> {
    lock: &'a GlobalLock,
    _guard: MutexGuard<'a, ()>,
}

impl Drop for GlobalLockGuard<'_> {
    fn drop(&mut self) {
        let lock = self.lock;
        let _ = lock.cluster.send_to(lock.home, CommMessage::LockRelease);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;
    use rcuarray_analysis::atomic::AtomicUsize;
    use std::time::Duration;

    /// A lock on a one-locale cluster: every acquisition is local.
    fn local_lock() -> GlobalLock {
        GlobalLock::new(&Cluster::with_locales(1), LocaleId::ZERO)
    }

    #[test]
    fn provides_mutual_exclusion() {
        let lock = Arc::new(local_lock());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(rcuarray_analysis::thread::spawn(move || {
                for _ in 0..1000 {
                    let _g = lock.acquire();
                    // Non-atomic read-modify-write protected by the lock.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8000);
        assert_eq!(lock.acquisitions(), 8000);
    }

    #[test]
    fn remote_acquisition_is_charged() {
        let cluster = Cluster::new(Topology::new(4, 1));
        let lock = GlobalLock::new(&cluster, LocaleId::ZERO);
        task::with_locale(LocaleId::new(2), || {
            let g = lock.acquire();
            drop(g);
        });
        assert_eq!(lock.remote_acquisitions(), 1);
        let stats = cluster.comm_stats();
        assert_eq!(stats.gets, 1);
        assert_eq!(stats.puts, 2); // acquire write-back + release
    }

    #[test]
    fn local_acquisition_is_free() {
        let cluster = Cluster::new(Topology::new(2, 1));
        let lock = GlobalLock::new(&cluster, LocaleId::new(1));
        task::with_locale(LocaleId::new(1), || {
            let _g = lock.acquire();
        });
        assert_eq!(lock.remote_acquisitions(), 0);
        assert_eq!(cluster.comm_stats().remote_ops(), 0);
    }

    #[test]
    fn try_acquire_fails_when_held() {
        let lock = local_lock();
        let g = lock.acquire();
        assert!(lock.try_acquire_for(Duration::ZERO).is_none());
        drop(g);
        assert!(lock.try_acquire_for(Duration::ZERO).is_some());
    }

    #[test]
    fn is_locked_reflects_state() {
        let lock = local_lock();
        assert!(!lock.is_locked());
        let g = lock.acquire();
        assert!(lock.is_locked());
        drop(g);
        assert!(!lock.is_locked());
    }

    #[test]
    #[should_panic(expected = "outside cluster")]
    fn home_must_be_in_cluster() {
        let cluster = Cluster::with_locales(2);
        let _ = GlobalLock::new(&cluster, LocaleId::new(5));
    }

    #[test]
    fn try_acquire_for_times_out_then_succeeds() {
        let lock = Arc::new(local_lock());
        let g = lock.acquire();
        assert!(
            lock.try_acquire_for(Duration::from_millis(30)).is_none(),
            "held lock must time out"
        );
        drop(g);
        assert!(lock.try_acquire_for(Duration::from_millis(30)).is_some());
    }

    #[test]
    fn acquisition_succeeds_after_holder_panics() {
        // The RAII guard releases on unwind and the underlying mutex does
        // not poison, so a panicking resize cannot wedge the cluster lock.
        let lock = Arc::new(local_lock());
        let lock2 = Arc::clone(&lock);
        let t = rcuarray_analysis::thread::spawn(move || {
            let _g = lock2.acquire();
            panic!("holder dies while holding the cluster lock");
        });
        assert!(t.join().is_err());
        let g = lock
            .try_acquire_for(Duration::from_secs(5))
            .expect("lock must be acquirable after a holder panic");
        drop(g);
        assert!(!lock.is_locked());
    }
}
