//! The per-thread defer list: a LIFO singly-linked list of
//! `(reclaimer, safe-epoch)` entries, sorted by safe epoch in descending
//! order from the head (paper Lemma 4), split at checkpoints by
//! [`DeferList::pop_less_equal`] (Algorithm 2 line 9).
//!
//! The paper represents entries as the triple `(m, e, t)`; the insertion
//! time `t` "is only used to prove correctness of the design and is not
//! required in the actual implementation" (footnote 6), so entries here
//! are `(m, e)` where `m` is an arbitrary reclamation closure — QSBR is a
//! "general-purpose memory reclamation device" for *arbitrary* data.

type Reclaimer = Box<dyn FnOnce() + Send>;

struct Node {
    epoch: u64,
    /// Approximate payload size awaiting reclamation (telemetry only:
    /// backlog-bytes gauges; 0 when the caller gave no size hint).
    bytes: usize,
    reclaim: Option<Reclaimer>,
    next: Option<Box<Node>>,
}

/// A thread-owned LIFO list of deferred reclamations.
///
/// Only the owning thread pushes and splits (the paper: "insertions are
/// handled sequentially on the same thread"), which is what makes the
/// structure lock-free: no other thread ever touches it.
#[derive(Default)]
pub struct DeferList {
    head: Option<Box<Node>>,
    len: usize,
    bytes: usize,
}

impl DeferList {
    /// An empty list.
    pub fn new() -> Self {
        DeferList::default()
    }

    /// Number of pending entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate bytes pending across all entries (sum of the size
    /// hints passed to [`push_with_bytes`](Self::push_with_bytes)).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Push an entry at the head (LIFO, Algorithm 2 line 3).
    ///
    /// # Panics
    /// Panics (debug builds) if `epoch` is smaller than the head's epoch:
    /// safe epochs derive from the monotonic `StateEpoch`, so successive
    /// pushes must be non-decreasing — that is what keeps the list sorted
    /// descending (Lemma 4; property-tested by `defer_list_matches_model`
    /// in the workspace's `tests/proptest_invariants.rs`).
    pub fn push(&mut self, epoch: u64, reclaim: impl FnOnce() + Send + 'static) {
        self.push_with_bytes(epoch, 0, reclaim);
    }

    /// [`push`](Self::push) with an approximate payload size, so backlog
    /// gauges can report unreclaimed *memory*, not just entry counts
    /// (the age/memory trade-off axis of the paper's Fig. 2 discussion).
    pub fn push_with_bytes(
        &mut self,
        epoch: u64,
        bytes: usize,
        reclaim: impl FnOnce() + Send + 'static,
    ) {
        debug_assert!(
            self.head.as_ref().is_none_or(|h| epoch >= h.epoch),
            "defer epochs must be non-decreasing (Lemma 4)"
        );
        let node = Box::new(Node {
            epoch,
            bytes,
            reclaim: Some(Box::new(reclaim)),
            next: self.head.take(),
        });
        self.head = Some(node);
        self.len += 1;
        self.bytes += bytes;
    }

    /// Split off every entry with `safe epoch <= min_epoch`
    /// (Algorithm 2 line 9).
    ///
    /// Because the list is sorted descending from the head, the reclaimable
    /// entries form a *suffix*: walk until the first node with
    /// `epoch <= min_epoch`, cut there, and hand the suffix back as a
    /// [`DeferChain`] whose drop runs the reclaimers.
    pub fn pop_less_equal(&mut self, min_epoch: u64) -> DeferChain {
        // Fast path: entire list reclaimable (head has the max epoch).
        match &self.head {
            None => return DeferChain::empty(),
            Some(h) if h.epoch <= min_epoch => {
                return self.take_all();
            }
            _ => {}
        }
        // Walk the kept prefix counting it, then cut.
        let mut kept = 1usize;
        let mut cursor: &mut Box<Node> = self.head.as_mut().expect("non-empty checked above");
        let mut kept_bytes = cursor.bytes;
        loop {
            match cursor.next {
                Some(ref n) if n.epoch > min_epoch => {
                    kept += 1;
                    kept_bytes += n.bytes;
                    cursor = cursor.next.as_mut().expect("matched Some");
                }
                _ => break,
            }
        }
        let suffix = cursor.next.take();
        let cut = self.len - kept;
        let cut_bytes = self.bytes - kept_bytes;
        self.len = kept;
        self.bytes = kept_bytes;
        DeferChain {
            head: suffix,
            len: cut,
            bytes: cut_bytes,
        }
    }

    /// Take the whole list (used when parking or orphaning at thread exit).
    pub fn take_all(&mut self) -> DeferChain {
        let chain = DeferChain {
            head: self.head.take(),
            len: self.len,
            bytes: self.bytes,
        };
        self.len = 0;
        self.bytes = 0;
        chain
    }

    /// The safe epochs from head to tail (descending). For tests.
    pub fn epochs(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.head.as_deref();
        while let Some(n) = cur {
            out.push(n.epoch);
            cur = n.next.as_deref();
        }
        out
    }

    /// The smallest safe epoch still pending (the tail), if any.
    pub fn oldest_epoch(&self) -> Option<u64> {
        self.epochs().last().copied()
    }
}

impl Drop for DeferList {
    fn drop(&mut self) {
        // A dropped list runs its reclaimers: leaking retired memory on
        // teardown would defeat the whole point.
        drop(self.take_all());
    }
}

impl std::fmt::Debug for DeferList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeferList")
            .field("len", &self.len)
            .field("epochs", &self.epochs())
            .finish()
    }
}

/// A detached chain of defer entries whose reclaimers run on drop
/// (Algorithm 2 lines 10–13).
pub struct DeferChain {
    head: Option<Box<Node>>,
    len: usize,
    bytes: usize,
}

impl DeferChain {
    /// An empty chain.
    pub fn empty() -> Self {
        DeferChain {
            head: None,
            len: 0,
            bytes: 0,
        }
    }

    /// Approximate payload bytes carried by this chain's entries.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The safe epoch of the head entry — the chain's maximum, since
    /// chains inherit the defer list's descending order.
    #[inline]
    pub fn head_epoch(&self) -> Option<u64> {
        self.head.as_ref().map(|n| n.epoch)
    }

    /// Number of entries in the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chain is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Run all reclaimers now; returns how many ran.
    pub fn reclaim_all(mut self) -> usize {
        self.run()
    }

    fn run(&mut self) -> usize {
        let mut count = 0;
        // Iteratively unlink to keep drop non-recursive for long chains.
        let mut cur = self.head.take();
        while let Some(mut node) = cur {
            if let Some(reclaim) = node.reclaim.take() {
                reclaim();
                count += 1;
            }
            cur = node.next.take();
        }
        self.len = 0;
        self.bytes = 0;
        count
    }
}

impl Drop for DeferChain {
    fn drop(&mut self) {
        self.run();
    }
}

impl std::fmt::Debug for DeferChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeferChain")
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray_analysis::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn counting(counter: &Arc<AtomicUsize>) -> impl FnOnce() + Send + 'static {
        let c = Arc::clone(counter);
        move || {
            c.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn push_orders_descending_from_head() {
        let mut l = DeferList::new();
        l.push(1, || {});
        l.push(3, || {});
        l.push(3, || {});
        l.push(7, || {});
        assert_eq!(l.epochs(), vec![7, 3, 3, 1]);
        assert_eq!(l.len(), 4);
        assert_eq!(l.oldest_epoch(), Some(1));
    }

    #[test]
    fn pop_less_equal_cuts_suffix_only() {
        let c = Arc::new(AtomicUsize::new(0));
        let mut l = DeferList::new();
        for e in [1u64, 2, 5, 9] {
            l.push(e, counting(&c));
        }
        let chain = l.pop_less_equal(4);
        assert_eq!(chain.len(), 2); // epochs 1 and 2
        assert_eq!(l.epochs(), vec![9, 5]);
        drop(chain);
        assert_eq!(c.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn pop_less_equal_takes_everything_when_min_is_large() {
        let c = Arc::new(AtomicUsize::new(0));
        let mut l = DeferList::new();
        for e in [1u64, 2, 3] {
            l.push(e, counting(&c));
        }
        let n = l.pop_less_equal(100).reclaim_all();
        assert_eq!(n, 3);
        assert!(l.is_empty());
        assert_eq!(c.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn pop_less_equal_takes_nothing_when_min_too_small() {
        let mut l = DeferList::new();
        l.push(5, || {});
        l.push(6, || {});
        let chain = l.pop_less_equal(4);
        assert!(chain.is_empty());
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn pop_on_empty_list() {
        let mut l = DeferList::new();
        assert!(l.pop_less_equal(10).is_empty());
    }

    #[test]
    fn equal_epoch_boundary_is_inclusive() {
        let c = Arc::new(AtomicUsize::new(0));
        let mut l = DeferList::new();
        l.push(4, counting(&c));
        l.push(5, counting(&c));
        drop(l.pop_less_equal(4));
        assert_eq!(c.load(Ordering::SeqCst), 1, "epoch == min must reclaim");
        assert_eq!(l.epochs(), vec![5]);
    }

    #[test]
    fn take_all_empties_and_runs_on_drop() {
        let c = Arc::new(AtomicUsize::new(0));
        let mut l = DeferList::new();
        for e in 1..=5u64 {
            l.push(e, counting(&c));
        }
        let chain = l.take_all();
        assert!(l.is_empty());
        assert_eq!(chain.len(), 5);
        drop(chain);
        assert_eq!(c.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn dropping_list_runs_pending_reclaimers() {
        let c = Arc::new(AtomicUsize::new(0));
        {
            let mut l = DeferList::new();
            l.push(1, counting(&c));
            l.push(2, counting(&c));
        }
        assert_eq!(c.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn long_chain_drop_does_not_overflow_stack() {
        let mut l = DeferList::new();
        for e in 0..200_000u64 {
            l.push(e, || {});
        }
        drop(l); // must not recurse per node
    }

    #[test]
    fn repeated_splits_preserve_order() {
        let mut l = DeferList::new();
        for e in 1..=10u64 {
            l.push(e, || {});
        }
        drop(l.pop_less_equal(3));
        assert_eq!(l.epochs(), vec![10, 9, 8, 7, 6, 5, 4]);
        drop(l.pop_less_equal(7));
        assert_eq!(l.epochs(), vec![10, 9, 8]);
        l.push(11, || {});
        assert_eq!(l.epochs(), vec![11, 10, 9, 8]);
    }

    #[test]
    fn byte_accounting_follows_splits() {
        let mut l = DeferList::new();
        l.push_with_bytes(1, 100, || {});
        l.push_with_bytes(2, 30, || {});
        l.push(3, || {}); // no size hint: counts as 0 bytes
        assert_eq!(l.bytes(), 130);
        let chain = l.pop_less_equal(1);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.bytes(), 100);
        assert_eq!(l.bytes(), 30);
        let rest = l.take_all();
        assert_eq!(rest.bytes(), 30);
        assert_eq!(l.bytes(), 0);
    }

    #[test]
    fn full_split_moves_all_bytes() {
        let mut l = DeferList::new();
        l.push_with_bytes(1, 8, || {});
        l.push_with_bytes(5, 16, || {});
        let chain = l.pop_less_equal(100);
        assert_eq!(chain.bytes(), 24);
        assert_eq!(l.bytes(), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_epoch_push_asserts() {
        let mut l = DeferList::new();
        l.push(5, || {});
        l.push(4, || {});
    }
}
