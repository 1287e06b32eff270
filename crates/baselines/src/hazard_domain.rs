//! Michael's hazard pointers (2004) as an `RcuArray` reclamation scheme.
//!
//! This is the third point in the reclamation design space the paper's §I
//! surveys (after EBR and QSBR): "a balanced but noticeable overhead to
//! both read and write operations". [`HazardDomain`] implements the
//! workspace-wide [`Reclaim`] trait and [`HazardScheme`] hands one domain
//! to every locale, so [`HazardArray`] runs the identical privatized
//! `RcuArray` code path as every other scheme — the comparison isolates
//! the protocol, not the plumbing.
//!
//! * **Readers** go through [`Reclaim::protect`]: claim a free hazard
//!   slot, publish the pointer about to be dereferenced into it, then
//!   re-validate the source — the same store→load ordering requirement
//!   as the EBR increment-verify, paid per *read*.
//! * **Writers** retire an unlinked pointer with an address hint
//!   ([`Retired::with_hint`]); [`Reclaim::retire`] scans every slot and
//!   waits until none still holds that address, then frees
//!   synchronously. Retiring without an address hint skips the scan (no
//!   reader can have protected an address the writer never published).
//!
//! Slots belong to guards, not threads: a guard claims any free slot and
//! releases it on drop, so nested guards each hold their own slot and a
//! thread that exits leaves nothing behind. A thread-local hint starts
//! each claim at the slot the thread used last, which keeps a reader on
//! one cache-warm slot.
//!
//! Every atomic goes through the `rcuarray-analysis` facade and the scan
//! yields through it, so the whole handshake runs under the checker.

use rcuarray::{Config, RcuArray, Scheme};
use rcuarray_analysis::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use rcuarray_reclaim::{Reclaim, ReclaimStats, Retired};
use std::cell::Cell;

/// Maximum guards that may be live on one `HazardDomain` at once.
pub const MAX_GUARDS: usize = 256;

thread_local! {
    /// The slot this thread claimed last, in whichever domain: where its
    /// next claim starts looking.
    static SLOT_HINT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// One hazard slot, cache-line padded: the address a reader is about to
/// dereference (or 0), plus whether a guard currently owns the slot.
#[repr(align(64))]
#[derive(Default)]
struct HazardSlot {
    addr: AtomicUsize,
    occupied: AtomicBool,
}

/// A hazard-pointer reclamation engine (see [module docs](self)).
pub struct HazardDomain {
    slots: Box<[HazardSlot]>,
    guards: AtomicU64,
    guard_retries: AtomicU64,
    retired: AtomicU64,
    guard_panics: AtomicU64,
}

impl HazardDomain {
    /// A fresh domain with [`MAX_GUARDS`] slots.
    pub fn new() -> Self {
        HazardDomain {
            slots: (0..MAX_GUARDS).map(|_| HazardSlot::default()).collect(),
            guards: AtomicU64::new(0),
            guard_retries: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            guard_panics: AtomicU64::new(0),
        }
    }
}

impl Default for HazardDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for HazardDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HazardDomain")
            .field("stats", &self.reclaim_stats())
            .finish()
    }
}

/// A read-side guard owning one hazard slot. Dropping it clears and frees
/// the slot (even on panic — a leaked hazard would stall every future
/// retire of that address).
pub struct HazardGuard<'a> {
    domain: &'a HazardDomain,
    slot: usize,
}

impl HazardGuard<'_> {
    /// Publish `p` into this guard's slot. Half of the protocol only:
    /// `p` is safe to dereference once the source is re-read and still
    /// holds it, which is what the domain's [`Reclaim::protect`] adds.
    #[inline]
    pub fn publish<T>(&self, p: *mut T) {
        self.domain.slots[self.slot]
            .addr
            .store(p as usize, Ordering::SeqCst);
    }

    /// Michael's protect-validate loop: publish the pointer currently in
    /// `src` and return it once the publication provably happened before
    /// any concurrent unlink.
    ///
    /// The returned pointer stays safe to dereference until the next
    /// `protect` through this guard (which overwrites the slot) or the
    /// guard drops.
    #[inline]
    fn protect<T>(&self, src: &AtomicPtr<T>) -> *mut T {
        loop {
            let p = src.load(Ordering::Acquire);
            self.publish(p);
            // The hazard store must be visible before the re-validation,
            // or a concurrent retire could both miss the hazard and have
            // us miss the swap.
            if src.load(Ordering::SeqCst) == p {
                return p;
            }
            self.domain.guard_retries.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for HazardGuard<'_> {
    fn drop(&mut self) {
        let slot = &self.domain.slots[self.slot];
        slot.addr.store(0, Ordering::Release);
        slot.occupied.store(false, Ordering::Release);
        // A panicking reader still cleared its hazard and freed the slot
        // (the two stores above) — count it so chaos runs can assert no
        // retire ever waited on a dead reader's slot.
        if std::thread::panicking() {
            self.domain.guard_panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Reclaim for HazardDomain {
    type Guard<'a> = HazardGuard<'a>;

    /// Claim a free slot, starting at this thread's last one.
    ///
    /// # Panics
    /// If [`MAX_GUARDS`] guards are already live on this domain.
    fn read_lock(&self) -> HazardGuard<'_> {
        let n = self.guards.fetch_add(1, Ordering::Relaxed) as usize;
        let start = SLOT_HINT.with(Cell::get).unwrap_or(n);
        let slot = (0..MAX_GUARDS)
            .map(|i| (start + i) % MAX_GUARDS)
            .find(|&s| !self.slots[s].occupied.swap(true, Ordering::Acquire))
            .unwrap_or_else(|| panic!("more than {MAX_GUARDS} live guards on one HazardDomain"));
        SLOT_HINT.with(|h| h.set(Some(slot)));
        HazardGuard { domain: self, slot }
    }

    #[inline]
    fn protect<'a, T>(&'a self, src: &AtomicPtr<T>) -> (HazardGuard<'a>, *mut T) {
        let guard = self.read_lock();
        let p = guard.protect(src);
        (guard, p)
    }

    fn retire(&self, retired: Retired) {
        let addr = retired.addr();
        if addr != 0 {
            // StoreLoad: the caller's unlink/publish store must be ordered
            // before the slot scan below. Without this fence the publish
            // can sit in the store buffer while the scan runs, so a reader
            // that re-validated against the *old* pointer is missed and
            // the object freed under it. (`protect` pairs with this via
            // its SeqCst hazard store + validation load.)
            fence(Ordering::SeqCst);
            // Scan every slot: a reader may claim any of them.
            for slot in self.slots.iter() {
                while slot.addr.load(Ordering::SeqCst) == addr {
                    rcuarray_analysis::thread::yield_now();
                }
            }
        }
        self.retired.fetch_add(1, Ordering::Relaxed);
        retired.run();
    }

    fn quiesce(&self) -> usize {
        0 // Reclamation happened at retire(); there is no backlog.
    }

    fn guards_reads(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "hazard"
    }

    fn reclaim_stats(&self) -> ReclaimStats {
        let retired = self.retired.load(Ordering::Relaxed);
        ReclaimStats {
            guards: self.guards.load(Ordering::Relaxed),
            guard_retries: self.guard_retries.load(Ordering::Relaxed),
            // Every retire is one full-slot scan: the writer-side grace
            // wait, analogous to an EBR advance+drain.
            advances: retired,
            retired,
            reclaimed: retired,
            guard_panics: self.guard_panics.load(Ordering::Relaxed),
            ..ReclaimStats::default()
        }
    }
}

/// Hazard pointers as a [`Scheme`]: every locale's privatized state gets
/// its own [`HazardDomain`], so reader slots stay node-local like EBR's
/// per-locale zones.
///
/// Retirement is synchronous, so there is never a backlog for
/// [`Config::pressure`] to bound; and like classic EBR, a reader that
/// stalls while holding a guard stalls the next retire of its snapshot.
#[derive(Debug, Default)]
pub struct HazardScheme;

impl Scheme for HazardScheme {
    type Reclaim = HazardDomain;
    const NAME: &'static str = "hazard";

    fn new_shared(_config: &Config) -> Self {
        HazardScheme
    }

    fn reclaimer(&self) -> HazardDomain {
        HazardDomain::new()
    }
}

/// An RCUArray whose old snapshots are reclaimed with hazard pointers.
pub type HazardArray<T> = RcuArray<T, HazardScheme>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn exited_threads_leave_no_slot_behind() {
        // More short-lived threads than slots: each guard frees its slot
        // on drop, so none of them runs out.
        let d = HazardDomain::new();
        for _ in 0..(2 * MAX_GUARDS) {
            std::thread::scope(|s| {
                s.spawn(|| drop(d.read_lock()));
            });
        }
        assert_eq!(d.reclaim_stats().guards, 2 * MAX_GUARDS as u64);
    }

    #[test]
    fn nested_guards_hold_distinct_slots() {
        let d = HazardDomain::new();
        let (a, b) = (AtomicPtr::new(8 as *mut u8), AtomicPtr::new(16 as *mut u8));
        let (outer, pa) = d.protect(&a);
        let (inner, pb) = d.protect(&b);
        assert_ne!(outer.slot, inner.slot);
        drop(inner);
        // The outer protection survives the inner guard's drop.
        assert_eq!(d.slots[outer.slot].addr.load(Ordering::SeqCst), pa as usize);
        assert_eq!(d.slots[outer.slot].addr.load(Ordering::SeqCst), 8);
        assert_eq!(pb as usize, 16);
    }

    #[test]
    fn retire_without_hint_frees_immediately() {
        let d = HazardDomain::new();
        let ran = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&ran);
        d.retire(Retired::new(move || r.store(true, Ordering::SeqCst)));
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(d.quiesce(), 0);
        let s = d.reclaim_stats();
        assert_eq!((s.retired, s.reclaimed, s.pending), (1, 1, 0));
    }

    #[test]
    fn protected_address_gates_retire() {
        let d = Arc::new(HazardDomain::new());
        let cell = AtomicPtr::new(Box::into_raw(Box::new(7u64)));
        let (g, p) = d.protect(&cell);
        // SAFETY: protected above; the retire below is still waiting.
        assert_eq!(unsafe { *p }, 7);
        let freed = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&d), Arc::clone(&freed));
        let old = p as usize;
        let writer = std::thread::spawn(move || {
            d2.retire(Retired::with_hint(
                std::mem::size_of::<u64>(),
                old,
                move || f2.store(true, Ordering::SeqCst),
            ));
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!freed.load(Ordering::SeqCst), "hazard must gate the free");
        drop(g);
        writer.join().unwrap();
        assert!(freed.load(Ordering::SeqCst));
        // SAFETY: test-owned allocation, retire closure was a flag only.
        drop(unsafe { Box::from_raw(p) });
    }

    #[test]
    fn panicked_reader_releases_slot_and_is_counted() {
        let d = HazardDomain::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (_g, _) = d.protect(&AtomicPtr::new(0xdead_beef as *mut u8));
            panic!("reader died");
        }));
        assert!(r.is_err());
        // The hazard is gone: a retire of that address does not wait.
        d.retire(Retired::with_hint(8, 0xdead_beef, || {}));
        assert_eq!(d.reclaim_stats().guard_panics, 1);
        assert!(d.slots.iter().all(|s| !s.occupied.load(Ordering::SeqCst)));
    }

    #[test]
    fn stats_report_through_the_unified_vocabulary() {
        let d = HazardDomain::new();
        drop(d.read_lock());
        d.retire(Retired::new(|| {}));
        let s = d.reclaim_stats();
        assert_eq!(s.guards, 1);
        assert_eq!(s.advances, 1, "one retire = one scan");
        assert!(!s.domain_wide);
        assert!(d.guards_reads());
        assert_eq!(Reclaim::name(&d), "hazard");
    }

    #[test]
    fn scheme_gives_each_locale_its_own_domain() {
        let c = rcuarray_runtime::Cluster::new(rcuarray_runtime::Topology::new(3, 1));
        let a: HazardArray<u64> = HazardArray::with_config(&c, Config::with_block_size(8));
        a.resize(8);
        a.resize(8);
        (0..16).for_each(|i| assert_eq!(a.read(i), 0));
        let s = a.stats().reclaim;
        assert_eq!(s.retired, 6, "one retired snapshot per locale per resize");
        assert_eq!(
            (s.reclaimed, s.pending),
            (6, 0),
            "hazard frees synchronously"
        );
        assert!(s.guards >= 16, "every read claims a hazard slot");
        assert_eq!(a.scheme_name(), "hazard");
    }
}
