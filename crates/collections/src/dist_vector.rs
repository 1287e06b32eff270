//! A distributed, parallel-safe, append-only vector on the RCUArray
//! backbone.
//!
//! `push` is two steps: claim a slot index with one atomic fetch-add,
//! then make sure the backing array covers it — growing through
//! RCUArray's parallel-safe `resize` when it does not. Because resizes
//! never invalidate concurrent reads or updates, pushers racing with the
//! growth they trigger is the *intended* mode of operation, not a special
//! case.

use rcuarray::{CommError, Config, ElemRef, Element, QsbrScheme, RcuArray, Scheme};
use rcuarray_runtime::Cluster;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An append-only distributed vector (see [module docs](self)).
///
/// `DistVector` is deliberately **not** `Clone`: unlike the backing
/// [`RcuArray`], whose clones alias one shared array, the length counter
/// lives in this struct, so a structural clone would fork the length and
/// lose pushes. Share a vector across threads through
/// [`Arc`]`<DistVector<..>>` instead.
pub struct DistVector<T: Element, S: Scheme = QsbrScheme> {
    array: RcuArray<T, S>,
    len: AtomicUsize,
}

impl<T: Element, S: Scheme> DistVector<T, S> {
    /// An empty vector over `cluster` with the default array config.
    pub fn new(cluster: &Arc<Cluster>) -> Self {
        Self::with_config(cluster, Config::default())
    }

    /// An empty vector with an explicit backing-array configuration.
    pub fn with_config(cluster: &Arc<Cluster>, config: Config) -> Self {
        DistVector {
            array: RcuArray::with_config(cluster, config),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of pushed elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// True when nothing was pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reserved capacity of the backing array.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.array.capacity()
    }

    /// The backing RCUArray (for stats and checkpointing).
    pub fn backing(&self) -> &RcuArray<T, S> {
        &self.array
    }

    /// Append `value`; returns its index. Parallel-safe against other
    /// pushes, reads, updates, and the resizes growth triggers.
    ///
    /// Under an enabled fault plan, growth failures that exhaust the
    /// backing array's retry budget panic — use
    /// [`try_push`](Self::try_push) to handle them.
    pub fn push(&self, value: T) -> usize {
        self.try_push(value)
            .unwrap_or_else(|e| panic!("DistVector push aborted: {e}"))
    }

    /// Append `value`, surfacing growth failure (after the backing
    /// array's [`Config::retry`] budget) instead of panicking.
    ///
    /// On `Err` the claimed index stays reserved but unwritten — an
    /// append-only vector cannot give an interior slot back once later
    /// pushers may have claimed past it. The slot reads as `T::default()`
    /// after a later successful growth covers it. A healthy cluster with
    /// an unbounded [`Config::pressure`] never returns `Err`; a bounded
    /// one refuses growth with [`CommError::Backpressure`] once the
    /// reclamation backlog pins the byte cap through the whole retry
    /// budget (each retry's resize attempt quiesces, so transient
    /// pressure drains inside the loop).
    pub fn try_push(&self, value: T) -> Result<usize, CommError> {
        let idx = self.len.fetch_add(1, Ordering::AcqRel);
        let policy = self.array.config().retry;
        // Growth can fail under fault injection or a bounded backlog;
        // both surface as retryable `CommError`s through the same loop.
        let fallible =
            self.array.cluster().fault().is_enabled() || self.array.config().pressure.is_bounded();
        // Whoever wins the cluster write lock grows; losers re-check.
        while idx >= self.array.capacity() {
            let want = self
                .array
                .config()
                .block_size
                .max(idx + 1 - self.array.capacity());
            if fallible {
                policy.run(self.array.cluster().comm(), || self.array.try_resize(want))?;
            } else {
                self.array.resize(want);
            }
        }
        self.array.write(idx, value);
        Ok(idx)
    }

    /// Read element `i`.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        assert!(
            i < self.len(),
            "index {i} out of bounds (len {})",
            self.len()
        );
        self.array.read(i)
    }

    /// Read element `i`, or `None` past the end.
    #[inline]
    pub fn try_get(&self, i: usize) -> Option<T> {
        if i < self.len() {
            Some(self.array.read(i))
        } else {
            None
        }
    }

    /// Update element `i`.
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        assert!(
            i < self.len(),
            "index {i} out of bounds (len {})",
            self.len()
        );
        self.array.write(i, v);
    }

    /// A resize-stable reference to element `i` (RCUArray Lemma 6).
    pub fn get_ref(&self, i: usize) -> ElemRef<'_, T> {
        assert!(
            i < self.len(),
            "index {i} out of bounds (len {})",
            self.len()
        );
        self.array.get_ref(i)
    }

    /// Quiesce the calling thread (QSBR checkpoint; no-op under EBR).
    pub fn checkpoint(&self) -> usize {
        self.array.checkpoint()
    }

    /// Snapshot the pushed elements.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.array.read(i)).collect()
    }
}

impl<T: Element + std::fmt::Debug, S: Scheme> std::fmt::Debug for DistVector<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistVector")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("scheme", &self.array.scheme_name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray::EbrScheme;
    use rcuarray_runtime::Topology;
    use std::collections::HashSet;

    fn cluster() -> Arc<Cluster> {
        Cluster::new(Topology::new(3, 2))
    }

    fn cfg() -> Config {
        Config::with_block_size(16)
    }

    #[test]
    fn push_get_round_trip() {
        let v: DistVector<u64> = DistVector::with_config(&cluster(), cfg());
        assert!(v.is_empty());
        for i in 0..100 {
            assert_eq!(v.push(i * 2), i as usize);
        }
        assert_eq!(v.len(), 100);
        for i in 0..100u64 {
            assert_eq!(v.get(i as usize), i * 2);
        }
        assert_eq!(v.try_get(100), None);
        v.checkpoint();
    }

    #[test]
    fn set_and_get_ref() {
        let v: DistVector<u64> = DistVector::with_config(&cluster(), cfg());
        v.push(1);
        v.push(2);
        v.set(0, 9);
        assert_eq!(v.get(0), 9);
        let r = v.get_ref(1);
        // Trigger growth past several blocks while holding the ref.
        for i in 0..100 {
            v.push(i);
        }
        r.set(77);
        assert_eq!(v.get(1), 77);
        v.checkpoint();
    }

    #[test]
    fn capacity_grows_by_blocks() {
        let v: DistVector<u64> = DistVector::with_config(&cluster(), cfg());
        for _ in 0..17 {
            v.push(0);
        }
        assert_eq!(v.len(), 17);
        assert_eq!(v.capacity(), 32, "two 16-element blocks");
    }

    #[test]
    fn concurrent_pushes_lose_nothing_qsbr() {
        concurrent_pushes_lose_nothing::<QsbrScheme>();
    }

    #[test]
    fn concurrent_pushes_lose_nothing_ebr() {
        concurrent_pushes_lose_nothing::<EbrScheme>();
    }

    fn concurrent_pushes_lose_nothing<S: Scheme>() {
        let c = cluster();
        let v: Arc<DistVector<u64, S>> = Arc::new(DistVector::with_config(&c, cfg()));
        const THREADS: u64 = 4;
        const PER: u64 = 400;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let v = Arc::clone(&v);
                s.spawn(move || {
                    for k in 0..PER {
                        v.push(t * PER + k);
                    }
                    v.checkpoint();
                });
            }
        });
        assert_eq!(v.len(), (THREADS * PER) as usize);
        let seen: HashSet<u64> = v.to_vec().into_iter().collect();
        assert_eq!(seen.len(), (THREADS * PER) as usize, "all pushes present");
        v.checkpoint();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_past_len_panics_even_within_capacity() {
        let v: DistVector<u64> = DistVector::with_config(&cluster(), cfg());
        v.push(1); // capacity is now 16, len is 1
        v.get(5);
    }

    #[test]
    fn debug_shows_scheme() {
        let v: DistVector<u64, EbrScheme> = DistVector::with_config(&cluster(), cfg());
        assert!(format!("{v:?}").contains("ebr"));
    }
}
