//! [`RcuPtr`]: the workspace's one RCU cell — a single published value,
//! generic over the reclamation scheme.

use crate::{Reclaim, Retired};
use rcuarray_analysis::atomic::{AtomicPtr, Ordering};
use rcuarray_analysis::sync::Mutex;
use std::sync::Arc;

/// Moves a raw pointer across the retire boundary. The value behind it is
/// `Send`, and ownership is unique once unlinked.
struct SendPtr<T>(*mut T);
// SAFETY: the value behind the pointer is `Send`, and ownership is unique
// once the pointer is unlinked from the cell.
unsafe impl<T: Send> Send for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Consume the wrapper. A by-value method (rather than field access)
    /// so closures capture the whole `SendPtr` — edition-2021 disjoint
    /// field capture would otherwise capture the raw pointer directly and
    /// lose the `Send` impl.
    fn into_raw(self) -> *mut T {
        self.0
    }
}

/// An RCU-protected value: readers see consistent snapshots at the
/// scheme's read cost; writers clone-update-publish-retire.
///
/// This is the paper's `RCU_Read`/`RCU_Write` (Algorithm 1) reduced to a
/// single reusable cell, with `isQSBR` realized as the `R` type
/// parameter. Writers serialize on the cell's own lock (the paper's
/// footnote 3 "WriteLock"), so the cell is safe by construction.
///
/// ```
/// use rcuarray_reclaim::{LeakReclaim, RcuPtr};
/// use std::sync::Arc;
///
/// let cell = RcuPtr::new(vec![1, 2, 3], Arc::new(LeakReclaim::new()));
/// cell.update(|old| {
///     let mut new = old.clone();
///     new.push(4);
///     new
/// });
/// assert_eq!(cell.read(|v| v.len()), 4);
/// ```
pub struct RcuPtr<T, R: Reclaim> {
    ptr: AtomicPtr<T>,
    reclaim: Arc<R>,
    write_lock: Mutex<()>,
}

// SAFETY: readers dereference the published snapshot concurrently
// (`T: Sync`) and retired snapshots are dropped on whichever thread
// drains the reclaimer (`T: Send`); the raw pointer is only freed after
// the grace period proves no reader still holds it.
unsafe impl<T: Send + Sync, R: Reclaim> Send for RcuPtr<T, R> {}
// SAFETY: see the `Send` impl above.
unsafe impl<T: Send + Sync, R: Reclaim> Sync for RcuPtr<T, R> {}

impl<T: Send + Sync + 'static, R: Reclaim> RcuPtr<T, R> {
    /// Protect `value` under the given reclaimer. Several `RcuPtr`s may
    /// share one reclaimer (sharing its epoch zone / QSBR domain).
    pub fn new(value: T, reclaim: Arc<R>) -> Self {
        RcuPtr {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
            reclaim,
            write_lock: Mutex::new(()),
        }
    }

    /// The shared reclamation back-end.
    pub fn reclaimer(&self) -> &Arc<R> {
        &self.reclaim
    }

    /// `RCU_Read`: run `f` against the current snapshot inside the
    /// scheme's read-side critical section. The reference passed to `f`
    /// cannot outlive the call.
    #[inline]
    pub fn read<U>(&self, f: impl FnOnce(&T) -> U) -> U {
        let _guard = self.reclaim.read_lock();
        // Loaded only after the guard is live: the guard obliges writers
        // to keep whatever this load returns alive until it drops.
        let snap = self.ptr.load(Ordering::Acquire);
        // SAFETY: `snap` is the published snapshot, protected by `_guard`
        // until the end of this call (under QSBR by the thread-level
        // contract of not quiescing inside `f`).
        f(unsafe { &*snap })
    }

    /// `RCU_Write`: derive a new value from the old, make it current, and
    /// hand the old value to the scheme. Writers serialize on an internal
    /// lock.
    ///
    /// The retire respects the scheme's backlog budget exactly like an
    /// array resize: past the watermark the writer helps reclaim, and at
    /// the cap it falls back to the blocking
    /// [`retire_or_quiesce`](Reclaim::retire_or_quiesce).
    pub fn update(&self, f: impl FnOnce(&T) -> T) {
        let _wl = self.write_lock.lock();
        let old = self.ptr.load(Ordering::Acquire);
        // SAFETY: single writer (lock held); `old` is still published.
        let new = Box::into_raw(Box::new(f(unsafe { &*old })));
        self.ptr.store(new, Ordering::Release);
        let old = SendPtr(old);
        let retired = Retired::with_bytes(std::mem::size_of::<T>(), move || {
            // SAFETY: unlinked above; the scheme runs this only once no
            // reader can still hold it.
            drop(unsafe { Box::from_raw(old.into_raw()) });
        });
        if let Err(bp) = self.reclaim.try_retire(retired) {
            self.reclaim.retire_or_quiesce(bp.into_retired());
        }
    }

    /// Replace the value outright.
    pub fn replace(&self, value: T) {
        let mut v = Some(value);
        self.update(|_| v.take().expect("update closure runs exactly once"));
    }
}

impl<T, R: Reclaim> Drop for RcuPtr<T, R> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; no readers can exist.
        drop(unsafe { Box::from_raw(*self.ptr.get_mut()) });
    }
}

impl<T: std::fmt::Debug + Send + Sync + 'static, R: Reclaim> std::fmt::Debug for RcuPtr<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.read(|v| {
            f.debug_struct("RcuPtr")
                .field("value", v)
                .field("scheme", &self.reclaim.name())
                .finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LeakReclaim, PressureConfig};

    #[test]
    fn read_update_replace_round_trip() {
        let p = RcuPtr::new(vec![1], Arc::new(LeakReclaim::new()));
        assert_eq!(p.read(|v| v.clone()), vec![1]);
        p.update(|old| {
            let mut v = old.clone();
            v.push(2);
            v
        });
        p.replace(vec![7]);
        assert_eq!(p.read(|v| v.clone()), vec![7]);
        assert_eq!(p.reclaimer().reclaim_stats().retired, 2);
    }

    #[test]
    fn writes_are_serialized_and_none_lost() {
        let p = RcuPtr::new(0u64, Arc::new(LeakReclaim::new()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..250 {
                        p.update(|old| old + 1);
                    }
                });
            }
        });
        assert_eq!(p.read(|v| *v), 1000);
    }

    #[test]
    fn retires_carry_the_size_hint() {
        let p = RcuPtr::new([0u64; 4], Arc::new(LeakReclaim::new()));
        p.replace([1; 4]);
        assert_eq!(p.reclaimer().reclaim_stats().pending_bytes, 32);
    }

    #[test]
    fn updates_go_through_the_pressure_ladder() {
        // A leaking scheme can never drain, so every update past the cap
        // takes the blocking fallback's escape hatch: the retire is never
        // dropped and the writer never wedges.
        let p = RcuPtr::new(
            0u64,
            Arc::new(LeakReclaim::with_pressure(PressureConfig::bounded(16))),
        );
        let (_, _, overruns_before) = crate::pressure_event_totals();
        for i in 1..=4 {
            p.replace(i);
        }
        assert_eq!(p.read(|v| *v), 4);
        assert_eq!(p.reclaimer().reclaim_stats().retired, 4);
        let (_, _, overruns_after) = crate::pressure_event_totals();
        assert!(overruns_after > overruns_before, "cap never consulted");
    }

    #[test]
    fn debug_names_the_value_and_scheme() {
        let p = RcuPtr::new(String::from("v"), Arc::new(LeakReclaim::new()));
        assert_eq!(format!("{p:?}"), r#"RcuPtr { value: "v", scheme: "leak" }"#);
    }
}
