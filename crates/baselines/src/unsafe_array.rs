//! `UnsafeArray`: the paper's *ChapelArray* baseline — "an unsynchronized
//! naive block distributed array using Chapel's standard BlockDist".
//!
//! Properties reproduced:
//!
//! * **Block distribution**: the index space is one contiguous chunk per
//!   locale ([`rcuarray_runtime::BlockDist`]), unlike RCUArray's
//!   block-cyclic layout.
//! * **Unsynchronized access**: reads and updates are a descriptor load
//!   plus an element access — no reader announcement of any kind.
//! * **Deep-copy resize**: growing allocates a whole new distributed
//!   storage and copies every element value across ("the extra work
//!   required to deep-copy blocks of memory from one smaller storage into
//!   a larger storage", §V-A) — the cost Figure 3 measures. Resizing is
//!   *not* parallel-safe: concurrent updates can be lost (which is the
//!   paper's point). Memory safety is still preserved on the Rust side:
//!   superseded storages are kept in a graveyard until the array drops,
//!   so a racing reader can at worst observe stale values, never freed
//!   memory.

use parking_lot::Mutex;
use rcuarray::Element;
use rcuarray_runtime::{BlockDist, Cluster, LocaleId};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One locale's contiguous chunk of the element space.
struct Chunk<T: Element> {
    home: LocaleId,
    cells: Box<[T::Repr]>,
}

/// A fully-allocated storage generation: distribution descriptor plus one
/// chunk per locale.
struct Storage<T: Element> {
    dist: BlockDist,
    chunks: Vec<Chunk<T>>,
}

impl<T: Element> Storage<T> {
    fn new(n: usize, num_locales: usize) -> Self {
        let dist = BlockDist::new(n, num_locales);
        let chunks = (0..num_locales)
            .map(|l| {
                let home = LocaleId::new(l as u32);
                let len = dist.chunk_of(home).len();
                Chunk {
                    home,
                    cells: (0..len).map(|_| T::new_repr(T::default())).collect(),
                }
            })
            .collect();
        Storage { dist, chunks }
    }

    #[inline]
    fn cell(&self, idx: usize) -> (&T::Repr, LocaleId) {
        // Chapel BlockDist indexing: consult the distribution descriptor,
        // then the owning locale's chunk.
        let owner = self.dist.locale_of(idx);
        let chunk = &self.chunks[owner.index()];
        let offset = idx - self.dist.chunk_of(owner).start;
        (&chunk.cells[offset], chunk.home)
    }

    fn len(&self) -> usize {
        self.dist.len()
    }
}

/// The paper's unsynchronized block-distributed baseline array.
pub struct UnsafeArray<T: Element> {
    cluster: Arc<Cluster>,
    current: AtomicPtr<Storage<T>>,
    /// Superseded storages, freed at drop: keeps racing readers sound.
    /// Boxed individually — readers hold raw pointers into these
    /// allocations, so they must not move when the vector grows.
    #[allow(clippy::vec_box)]
    graveyard: Mutex<Vec<Box<Storage<T>>>>,
    /// Resize serialization only (reads never touch it).
    resize_lock: Mutex<()>,
    len: AtomicUsize,
    resizes: AtomicU64,
}

// SAFETY: element cells are atomics; storage pointers are swapped
// atomically and never freed while reachable.
unsafe impl<T: Element> Send for UnsafeArray<T> {}
unsafe impl<T: Element> Sync for UnsafeArray<T> {}

impl<T: Element> UnsafeArray<T> {
    /// An empty array distributed over `cluster`.
    pub fn new(cluster: &Arc<Cluster>) -> Self {
        let storage = Box::new(Storage::<T>::new(0, cluster.num_locales()));
        UnsafeArray {
            cluster: Arc::clone(cluster),
            current: AtomicPtr::new(Box::into_raw(storage)),
            graveyard: Mutex::new(Vec::new()),
            resize_lock: Mutex::new(()),
            len: AtomicUsize::new(0),
            resizes: AtomicU64::new(0),
        }
    }

    /// An array pre-sized to `capacity`.
    pub fn with_capacity(cluster: &Arc<Cluster>, capacity: usize) -> Self {
        let a = Self::new(cluster);
        a.resize(capacity);
        a
    }

    #[inline]
    fn storage(&self) -> &Storage<T> {
        // SAFETY: published storages are only freed at drop.
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    /// Capacity in elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Alias of [`capacity`](Self::capacity).
    #[inline]
    pub fn len(&self) -> usize {
        self.capacity()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.capacity() == 0
    }

    /// Read element `idx`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[inline]
    pub fn read(&self, idx: usize) -> T {
        let (cell, home) = self.storage().cell(idx);
        self.cluster.get_from(home, T::byte_size());
        T::load(cell)
    }

    /// Update element `idx`.
    ///
    /// Updates racing a resize may be lost (they land in the superseded
    /// storage after the copy passed them) — the unsynchronized behaviour
    /// the paper contrasts RCUArray against.
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[inline]
    pub fn write(&self, idx: usize, v: T) {
        let (cell, home) = self.storage().cell(idx);
        self.cluster.put_to(home, T::byte_size());
        T::store(cell, v);
    }

    /// Grow by `additional` elements: allocate a larger distributed
    /// storage and **copy every existing element value** into it.
    /// Returns the new capacity.
    pub fn resize(&self, additional: usize) -> usize {
        if additional == 0 {
            return self.capacity();
        }
        let _g = self.resize_lock.lock();
        let old = self.storage();
        let new_len = old.len() + additional;
        let new = Box::new(Storage::<T>::new(new_len, self.cluster.num_locales()));
        for (l, chunk) in new.chunks.iter().enumerate() {
            self.cluster
                .locale(LocaleId::new(l as u32))
                .record_allocation(chunk.cells.len() * std::mem::size_of::<T::Repr>());
        }
        // The deep copy Figure 3 charges ChapelArray for. Element i may
        // move to a different locale (chunks re-balance as n grows), which
        // in Chapel is bulk PUT/GET traffic.
        for i in 0..old.len() {
            let (src, src_home) = old.cell(i);
            let (dst, dst_home) = new.cell(i);
            let _ = self
                .cluster
                .copy_between(src_home, dst_home, T::byte_size());
            T::store(dst, T::load(src));
        }
        let new_ptr = Box::into_raw(new);
        let old_ptr = self.current.swap(new_ptr, Ordering::AcqRel);
        // SAFETY: `old_ptr` came from Box::into_raw at publication.
        self.graveyard
            .lock()
            .push(unsafe { Box::from_raw(old_ptr) });
        self.len.store(new_len, Ordering::Release);
        self.resizes.fetch_add(1, Ordering::Relaxed);
        new_len
    }

    /// Resizes performed so far.
    pub fn resizes(&self) -> u64 {
        self.resizes.load(Ordering::Relaxed)
    }

    /// Assign `v` everywhere.
    pub fn fill(&self, v: T) {
        for i in 0..self.capacity() {
            self.write(i, v);
        }
    }

    /// Snapshot the current values.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.capacity()).map(|i| self.read(i)).collect()
    }

    /// The cluster this array lives on.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }
}

impl<T: Element> Drop for UnsafeArray<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access.
        drop(unsafe { Box::from_raw(*self.current.get_mut()) });
    }
}

impl<T: Element> std::fmt::Debug for UnsafeArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnsafeArray")
            .field("capacity", &self.capacity())
            .field("locales", &self.cluster.num_locales())
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
    fn empty_then_grow_and_round_trip() {
        let c = cluster(3);
        let a: UnsafeArray<u64> = UnsafeArray::new(&c);
        assert!(a.is_empty());
        assert_eq!(a.resize(10), 10);
        for i in 0..10 {
            assert_eq!(a.read(i), 0);
            a.write(i, i as u64 + 1);
        }
        assert_eq!(a.to_vec(), (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn resize_preserves_values_via_deep_copy() {
        let c = cluster(4);
        let a: UnsafeArray<u32> = UnsafeArray::new(&c);
        a.resize(7);
        for i in 0..7 {
            a.write(i, 100 + i as u32);
        }
        a.resize(93); // re-balances chunks entirely
        assert_eq!(a.capacity(), 100);
        for i in 0..7 {
            assert_eq!(a.read(i), 100 + i as u32, "value lost in deep copy");
        }
        assert_eq!(a.read(99), 0);
        assert_eq!(a.resizes(), 2);
    }

    #[test]
    fn elements_are_block_distributed_contiguously() {
        let c = cluster(2);
        let a: UnsafeArray<u64> = UnsafeArray::new(&c);
        a.resize(10); // chunks: L0 gets 0..5, L1 gets 5..10
        c.comm().reset();
        task::with_locale(LocaleId::ZERO, || {
            let _ = a.read(0); // local
            let _ = a.read(4); // local
            let _ = a.read(5); // remote
        });
        let s = c.comm_stats();
        assert_eq!(s.local_accesses, 2);
        assert_eq!(s.gets, 1);
    }

    #[test]
    fn reads_racing_resize_are_memory_safe() {
        let c = cluster(2);
        let a = Arc::new(UnsafeArray::<u64>::new(&c));
        a.resize(64);
        a.fill(7);
        std::thread::scope(|s| {
            let a2 = Arc::clone(&a);
            s.spawn(move || {
                for _ in 0..50 {
                    a2.resize(16);
                }
            });
            for _ in 0..3 {
                let a3 = Arc::clone(&a);
                s.spawn(move || {
                    for _ in 0..2000 {
                        // Reads may see stale/zero values near the frontier,
                        // but must never fault.
                        let v = a3.read(13);
                        assert!(v == 7 || v == 0);
                    }
                });
            }
        });
        assert_eq!(a.capacity(), 64 + 50 * 16);
    }

    #[test]
    fn fill_sets_everything() {
        let c = cluster(2);
        let a: UnsafeArray<i32> = UnsafeArray::new(&c);
        a.resize(9);
        a.fill(-3);
        assert!(a.to_vec().iter().all(|&v| v == -3));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let c = cluster(1);
        let a: UnsafeArray<u8> = UnsafeArray::new(&c);
        a.resize(4);
        a.read(4);
    }

    #[test]
    fn with_capacity_allocates() {
        let c = cluster(2);
        let a: UnsafeArray<u64> = UnsafeArray::with_capacity(&c, 12);
        assert_eq!(a.capacity(), 12);
    }

    #[test]
    fn resize_zero_noop() {
        let c = cluster(1);
        let a: UnsafeArray<u64> = UnsafeArray::new(&c);
        assert_eq!(a.resize(0), 0);
        assert_eq!(a.resizes(), 0);
    }
}
