//! The per-locale privatized metadata: paper Listing 1's
//! `RCUArrayMetaData`, one instance per locale.
//!
//! Each locale holds its own `GlobalSnapshot` pointer and its own
//! reclamation engine (under EBR, the `GlobalEpoch` + `EpochReaders`
//! zone), so read-side traffic is node-local: "both read and update
//! operations act mostly on node-local metadata, significantly improving
//! their locality" (§III-D). Schemes whose reclamation is a shared
//! service (QSBR) embed a cheap clone of the shared domain instead.

use crate::element::Element;
use crate::snapshot::{publish_box, Snapshot};
use rcuarray_analysis::atomic::{AtomicPtr, Ordering};
use rcuarray_reclaim::Reclaim;
use rcuarray_runtime::LocaleId;
use std::ptr::NonNull;

/// One locale's privatized copy of the array metadata.
pub struct LocaleState<T: Element, R: Reclaim> {
    locale: LocaleId,
    /// The paper's `GlobalSnapshot`: the current immutable metadata
    /// version, published as a raw pointer and reclaimed via `reclaim`.
    snapshot: AtomicPtr<Snapshot<T>>,
    /// This locale's reclamation engine (the paper's `GlobalEpoch` +
    /// `EpochReaders` under EBR; a shared-domain handle under QSBR).
    reclaim: R,
}

// SAFETY: `snapshot` is an atomic pointer to a heap snapshot whose
// reclamation is governed by `reclaim`; `Snapshot` itself is
// `Send + Sync` (block refs to atomic cells), and `Reclaim` requires
// `Send + Sync`.
unsafe impl<T: Element, R: Reclaim> Send for LocaleState<T, R> {}
unsafe impl<T: Element, R: Reclaim> Sync for LocaleState<T, R> {}

impl<T: Element, R: Reclaim> LocaleState<T, R> {
    /// A fresh state for `locale` holding an empty snapshot, reclaiming
    /// through `reclaim`.
    pub fn new(locale: LocaleId, reclaim: R) -> Self {
        LocaleState {
            locale,
            snapshot: AtomicPtr::new(publish_box(Snapshot::empty()).as_ptr()),
            reclaim,
        }
    }

    /// The locale this instance is privatized to.
    #[inline]
    pub fn locale(&self) -> LocaleId {
        self.locale
    }

    /// This locale's reclamation engine.
    #[inline]
    pub fn reclaim(&self) -> &R {
        &self.reclaim
    }

    /// Borrow the current snapshot.
    ///
    /// # Safety
    /// The caller must guarantee the snapshot cannot be reclaimed for the
    /// lifetime of the returned reference: hold the array's write lock,
    /// or a read guard taken before this call and held while the
    /// reference is used.
    #[inline]
    pub unsafe fn snapshot_ref(&self) -> &Snapshot<T> {
        // Acquire pairs with the Release publication in `publish`.
        unsafe { &*self.snapshot.load(Ordering::Acquire) }
    }

    /// Publish `new` as the current snapshot, returning the now-unlinked
    /// old snapshot for the caller to reclaim through its scheme.
    ///
    /// Only the resize path calls this, serialized by the cluster-wide
    /// write lock.
    pub fn publish(&self, new: Snapshot<T>) -> NonNull<Snapshot<T>> {
        let new_ptr = publish_box(new);
        let old = self.snapshot.swap(new_ptr.as_ptr(), Ordering::AcqRel);
        // SAFETY: the previous pointer was produced by `publish_box` and
        // is never null.
        unsafe { NonNull::new_unchecked(old) }
    }
}

impl<T: Element, R: Reclaim> Drop for LocaleState<T, R> {
    fn drop(&mut self) {
        // Exclusive access: no readers can exist; free the final snapshot.
        let ptr = *self.snapshot.get_mut();
        // SAFETY: published by `publish_box`, unlinked by destruction.
        unsafe { crate::snapshot::reclaim_box(NonNull::new_unchecked(ptr)) };
    }
}

impl<T: Element, R: Reclaim> std::fmt::Debug for LocaleState<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocaleState")
            .field("locale", &self.locale)
            .field("scheme", &self.reclaim.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockRegistry};
    use crate::snapshot::reclaim_box;
    use rcuarray_ebr::EpochZone;

    fn state(locale: LocaleId) -> LocaleState<u64, EpochZone> {
        LocaleState::new(locale, EpochZone::new())
    }

    #[test]
    fn starts_with_empty_snapshot() {
        let st = state(LocaleId::new(2));
        assert_eq!(st.locale(), LocaleId::new(2));
        // SAFETY: no concurrent writer in this test.
        unsafe {
            assert_eq!(st.snapshot_ref().num_blocks(), 0);
        }
    }

    #[test]
    fn publish_swaps_and_returns_old() {
        let st = state(LocaleId::ZERO);
        let reg = BlockRegistry::new();
        let b = reg.adopt(Block::new(LocaleId::ZERO, 4));
        let old = st.publish(Snapshot::from_blocks(vec![b], 1));
        // SAFETY: `old` is unlinked; no readers in this test.
        unsafe {
            assert_eq!(old.as_ref().num_blocks(), 0);
            reclaim_box(old);
            assert_eq!(st.snapshot_ref().num_blocks(), 1);
            assert_eq!(st.snapshot_ref().version(), 1);
        }
    }

    #[test]
    fn drop_frees_current_snapshot_without_leak() {
        // Run under the test harness; a leak would show in sanitizers and
        // the double-free would crash. The structural assertion is that
        // drop works after multiple publishes.
        let st: LocaleState<u32, EpochZone> = LocaleState::new(LocaleId::ZERO, EpochZone::new());
        let reg = BlockRegistry::new();
        for v in 1..=3u64 {
            let b = reg.adopt(Block::new(LocaleId::ZERO, 2));
            let old = st.publish(Snapshot::from_blocks(vec![b], v));
            // SAFETY: `old` was just unpublished; no reader exists here.
            unsafe { reclaim_box(old) };
        }
        drop(st);
    }

    #[test]
    fn works_with_any_reclaim_engine() {
        // The generic parameter is the seam: a state over the leak engine
        // compiles and runs through the same code path.
        let st: LocaleState<u64, rcuarray_reclaim::LeakReclaim> =
            LocaleState::new(LocaleId::ZERO, rcuarray_reclaim::LeakReclaim::new());
        assert_eq!(st.reclaim().name(), "leak");
        // Leak guards are free () tokens.
        st.reclaim().read_lock();
        // SAFETY: nothing retires snapshots in this test.
        unsafe {
            assert_eq!(st.snapshot_ref().num_blocks(), 0);
        }
    }
}
