//! `RcuArray`: the paper's contribution — a parallel-safe distributed
//! resizable array whose reads and updates run concurrently with resizes.
//!
//! The structure follows Listing 1 exactly:
//!
//! * per-locale **privatized metadata** ([`LocaleState`]: `GlobalSnapshot`,
//!   `GlobalEpoch`, and `EpochReaders`), registered in the cluster's
//!   privatization table under a `PID`;
//! * a cluster-wide **`WriteLock`** homed on locale 0;
//! * a **`NextLocaleId`** round-robin counter driving block distribution;
//! * fixed-size **blocks** owned by a registry that frees them only when
//!   the array drops — which is what lets snapshots recycle them and lets
//!   element references survive resizes (Lemma 6).
//!
//! `Index` (here [`read`](RcuArray::read) / [`write`](RcuArray::write) /
//! [`get_ref`](RcuArray::get_ref)) and `Resize`
//! ([`resize`](RcuArray::resize)) implement Algorithm 3, with the
//! `isQSBR` conditional realized by the [`Scheme`] type parameter: the
//! array calls the scheme's [`Reclaim`] engine (`read_lock` / `retire` /
//! `quiesce`) and never branches on which scheme it runs under.

use crate::block::{Block, BlockRef, BlockRegistry};
use crate::config::Config;
use crate::elem_ref::ElemRef;
use crate::element::Element;
use crate::handle::LocaleState;
use crate::iter::Iter;
use crate::scheme::{EbrScheme, LeakScheme, QsbrScheme, Scheme};
use crate::snapshot::{reclaim_box, Snapshot};
use crate::stats::ArrayStats;
use rcuarray_analysis::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use rcuarray_obs::{LazyCounter, LazyGauge, LazyHistogram, ScopedCounter};
use rcuarray_qsbr::QsbrDomain;
use rcuarray_reclaim::{Reclaim, ReclaimStats, Retired};
use rcuarray_runtime::{
    Cluster, CommError, GlobalLock, LocaleId, OpKind, PrivHandle, RetryPolicy, RoundRobinCounter,
};
use std::ptr::NonNull;
use std::sync::{Arc, Mutex};

// Telemetry (DESIGN.md §7): process-wide totals across every array.
// Counted events are scoped counters on `Shared`: one call feeds
// `stats()` and the process total.
static OBS_RESIZES: LazyCounter =
    LazyCounter::new("rcuarray_resizes_total", "completed resize operations");
static OBS_RESIZE_ABORTS: LazyCounter = LazyCounter::new(
    "rcuarray_resize_aborts_total",
    "resize attempts rolled back after a fault, timeout or panic",
);
static OBS_BLOCKS_RECYCLED: LazyCounter = LazyCounter::new(
    "rcuarray_blocks_recycled_total",
    "block references recycled (pointer-copied, not moved) into successor snapshots",
);
static OBS_RESIZE_NS: LazyHistogram = LazyHistogram::new(
    "rcuarray_resize_ns",
    "wall-clock duration of successful resize operations in nanoseconds",
);
static OBS_CAPACITY: LazyGauge = LazyGauge::new(
    "rcuarray_capacity",
    "current element capacity (last array to finish a resize wins)",
);
/// Approximate heap footprint of a snapshot: the struct plus its block
/// vector. Used as the byte hint for QSBR defer-backlog accounting; the
/// blocks themselves are registry-owned and never reclaimed here.
fn snapshot_bytes<T: Element>(snap: &Snapshot<T>) -> usize {
    std::mem::size_of::<Snapshot<T>>() + snap.num_blocks() * std::mem::size_of::<BlockRef<T>>()
}

/// An RCUArray using the TLS-free EBR scheme (the paper's `EBRArray`).
pub type EbrArray<T> = RcuArray<T, EbrScheme>;

/// An RCUArray using runtime QSBR (the paper's `QSBRArray`).
pub type QsbrArray<T> = RcuArray<T, QsbrScheme>;

/// An RCUArray that never reclaims: the `UnsafeArray` upper bound through
/// the identical `RcuArray` code path (measurement/harness only — leaks).
pub type LeakArray<T> = RcuArray<T, LeakScheme>;

/// Moves a snapshot pointer into a deferred reclamation closure.
struct SendSnap<T: Element>(NonNull<Snapshot<T>>);
// SAFETY: the snapshot is uniquely owned once unpublished (the defer
// closure is its sole holder), and `Element` bounds the contents at
// `Send + Sync + 'static`.
unsafe impl<T: Element> Send for SendSnap<T> {}
impl<T: Element> SendSnap<T> {
    /// By-value method so closures capture the wrapper, not the raw field
    /// (edition-2021 disjoint capture would drop the `Send` impl).
    fn into_inner(self) -> NonNull<Snapshot<T>> {
        self.0
    }
}

/// The one path every element GET/PUT of an array — and of the
/// [`ElemRef`]s it hands out — is charged through. Under an enabled fault
/// plan a charge is retried per [`Config::retry`]; one that still fails
/// does *not* fail the access (the simulation's blocks are node-visible
/// memory) and is counted as a fallback read or a degraded write.
pub(crate) struct Charger {
    cluster: Arc<Cluster>,
    retry: RetryPolicy,
    /// Reads served from the locale-local snapshot after their remote
    /// charge exhausted its retry budget.
    fallback_reads: AtomicU64,
    /// Writes whose remote charge exhausted its retry budget (the store
    /// itself still lands — blocks are shared memory in the simulation).
    degraded_writes: AtomicU64,
}

impl Charger {
    pub(crate) fn new(cluster: &Arc<Cluster>, retry: RetryPolicy) -> Self {
        Charger {
            cluster: Arc::clone(cluster),
            retry,
            fallback_reads: AtomicU64::new(0),
            degraded_writes: AtomicU64::new(0),
        }
    }

    /// Charge a GET of `bytes` against `home`.
    #[inline]
    pub(crate) fn get(&self, home: LocaleId, bytes: usize) {
        if !self.cluster.fault().is_enabled() {
            self.cluster.get_from(home, bytes);
            return;
        }
        self.get_faulty(home, bytes);
    }

    #[cold]
    fn get_faulty(&self, home: LocaleId, bytes: usize) {
        let cluster = &*self.cluster;
        if self
            .retry
            .run(cluster.comm(), || cluster.try_get_from(home, bytes))
            .is_err()
        {
            self.fallback_reads.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Charge a PUT of `bytes` against `home`.
    #[inline]
    pub(crate) fn put(&self, home: LocaleId, bytes: usize) {
        if !self.cluster.fault().is_enabled() {
            self.cluster.put_to(home, bytes);
            return;
        }
        self.put_faulty(home, bytes);
    }

    #[cold]
    fn put_faulty(&self, home: LocaleId, bytes: usize) {
        let cluster = &*self.cluster;
        if self
            .retry
            .run(cluster.comm(), || cluster.try_put_to(home, bytes))
            .is_err()
        {
            self.degraded_writes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Cluster-wide shared state (one per array, not per locale).
struct Shared<T: Element, S: Scheme> {
    cluster: Arc<Cluster>,
    config: Config,
    write_lock: GlobalLock,
    /// `NextLocaleId` (Listing 1): the locale the next new block is
    /// homed on. Advanced only when a resize commits (Algorithm 3
    /// line 28).
    next_locale: RoundRobinCounter,
    blocks: BlockRegistry<T>,
    scheme: S,
    capacity: AtomicUsize,
    resizes: ScopedCounter,
    /// Resize attempts rolled back after a fault, timeout or panic.
    aborted_resizes: ScopedCounter,
    /// Element GET/PUT charges, with their retry policy and the
    /// fallback-read / degraded-write counters.
    charge: Charger,
}

/// A parallel-safe distributed resizable array (see [module docs](self)).
///
/// Cloning a handle is cheap and aliases the same array. All operations
/// take `&self`; reads and updates may run concurrently with a resize
/// from any task on any locale.
pub struct RcuArray<T: Element, S: Scheme = QsbrScheme> {
    shared: Arc<Shared<T, S>>,
    state: PrivHandle<LocaleState<T, S::Reclaim>>,
}

impl<T: Element, S: Scheme> Clone for RcuArray<T, S> {
    fn clone(&self) -> Self {
        RcuArray {
            shared: Arc::clone(&self.shared),
            state: self.state.clone(),
        }
    }
}

impl<T: Element, S: Scheme> RcuArray<T, S> {
    /// An empty array on `cluster` with the default [`Config`]
    /// (1024-element blocks, `SeqCst` EBR protocol).
    pub fn new(cluster: &Arc<Cluster>) -> Self {
        Self::with_config(cluster, Config::default())
    }

    /// An empty array with an explicit configuration.
    pub fn with_config(cluster: &Arc<Cluster>, config: Config) -> Self {
        config.validate();
        let scheme = S::new_shared(&config);
        let (_pid, state) = cluster
            .privatization()
            .register(cluster.num_locales(), |loc| {
                LocaleState::new(loc, scheme.reclaimer())
            });
        RcuArray {
            shared: Arc::new(Shared {
                cluster: Arc::clone(cluster),
                config,
                write_lock: GlobalLock::new(cluster, LocaleId::ZERO),
                next_locale: RoundRobinCounter::new(cluster.num_locales()),
                blocks: BlockRegistry::new(),
                scheme,
                capacity: AtomicUsize::new(0),
                resizes: OBS_RESIZES.scoped(),
                aborted_resizes: OBS_RESIZE_ABORTS.scoped(),
                charge: Charger::new(cluster, config.retry),
            }),
            state,
        }
    }

    /// An array pre-sized to at least `capacity` elements.
    pub fn with_capacity(cluster: &Arc<Cluster>, config: Config, capacity: usize) -> Self {
        let array = Self::with_config(cluster, config);
        array.resize(capacity);
        array
    }

    /// The cluster this array is distributed over.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.shared.cluster
    }

    /// The array's configuration.
    pub fn config(&self) -> &Config {
        &self.shared.config
    }

    /// The reclamation scheme name ("ebr", "qsbr", "leak", or an
    /// out-of-crate scheme's own name).
    pub fn scheme_name(&self) -> &'static str {
        S::NAME
    }

    /// Current capacity in elements. Capacity only grows, as the paper's
    /// RCUArray only expands (footnote 12): [`try_resize`](Self::try_resize)
    /// raises it after every locale has published the larger snapshot,
    /// and a rolled-back resize never raises it. So an index below a
    /// `capacity()` this task has read stays inside its locale's
    /// snapshot.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.shared.capacity.load(Ordering::Acquire)
    }

    /// Alias of [`capacity`](Self::capacity): every slot of the array is a
    /// live element (blocks are zero-initialized).
    #[inline]
    pub fn len(&self) -> usize {
        self.capacity()
    }

    /// True when the array holds no elements yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.capacity() == 0
    }

    /// Number of blocks currently allocated.
    pub fn num_blocks(&self) -> usize {
        self.shared.blocks.len()
    }

    /// The QSBR domain backing this array, for schemes built on one
    /// (`QsbrScheme`); `None` otherwise. Exposed so
    /// applications can park/unpark worker threads around idle periods.
    pub fn qsbr_domain(&self) -> Option<&QsbrDomain> {
        self.shared.scheme.domain()
    }

    /// Read one element of `block`: the paper's read, one charge and one
    /// load.
    #[inline]
    fn load_at(&self, block: BlockRef<T>, off: usize) -> T {
        // SAFETY: registry-owned block.
        let b = unsafe { block.get() };
        self.shared.charge.get(b.home(), T::byte_size());
        b.load(off)
    }

    /// Store one element into `block`: the paper's write, one charge and
    /// one store.
    #[inline]
    fn store_at(&self, block: BlockRef<T>, off: usize, value: T) {
        // SAFETY: registry-owned block.
        let b = unsafe { block.get() };
        self.shared.charge.put(b.home(), T::byte_size());
        b.store(off, value);
    }

    /// Retire a just-unlinked snapshot through the scheme's [`Reclaim`]
    /// engine (Algorithm 3 lines 21–27): QSBR defers to its domain, EBR
    /// advances the locale's epoch and drains its readers before freeing,
    /// the leak scheme drops the request on the floor. The array does not
    /// know or care which.
    ///
    /// Under a bounded [`Config::pressure`] the retire is pressure-aware:
    /// past the watermark the publishing task helps reclaim, and at the
    /// byte cap it falls back to [`Reclaim::retire_or_quiesce`] — the
    /// snapshot is already unlinked, so it *must* be handed to the scheme;
    /// the blocking fallback never drops a retirement, and past the cap
    /// under a stalled participant it retires anyway and counts the
    /// overrun. New resizes are refused before reaching this point (see
    /// [`try_resize`](Self::try_resize)).
    fn retire_snapshot(&self, st: &LocaleState<T, S::Reclaim>, old_ptr: NonNull<Snapshot<T>>) {
        // SAFETY: unlinked by the caller, so the pointer stays valid until
        // the retirement closure (its sole holder) frees it — whenever the
        // scheme decides that is safe.
        let bytes = snapshot_bytes(unsafe { old_ptr.as_ref() });
        let old = SendSnap(old_ptr);
        let retired = Retired::with_bytes(bytes, move || {
            // SAFETY: unlinked by the caller; the scheme runs this
            // only once no reader can still hold the snapshot.
            unsafe { reclaim_box(old.into_inner()) };
        });
        if let Err(bp) = st.reclaim().try_retire(retired) {
            st.reclaim().retire_or_quiesce(bp.into_retired());
        }
    }

    /// Algorithm 3 `Helper` (lines 1–3): locate `idx` within a snapshot.
    #[inline]
    fn locate(&self, snap: &Snapshot<T>, idx: usize) -> (BlockRef<T>, usize) {
        let bs = self.shared.config.block_size;
        let block_idx = idx / bs;
        let elem_idx = idx % bs;
        match snap.try_block(block_idx) {
            Some(b) => (b, elem_idx),
            None => panic!(
                "index {idx} out of bounds for RCUArray of capacity {} \
                 (as seen from {})",
                snap.capacity(bs),
                rcuarray_runtime::current_locale(),
            ),
        }
    }

    /// Extend a cell borrow from a (temporary) snapshot borrow to the
    /// array borrow: sound because blocks are registry-owned and live as
    /// long as `self` keeps `shared` alive.
    #[inline]
    fn cell_of(&self, block: BlockRef<T>, offset: usize) -> &T::Repr {
        // SAFETY: `block` points into `self.shared.blocks`, which frees
        // nothing until the last array handle drops; `'a` borrows `self`.
        unsafe { &*(block.get().cell(offset) as *const T::Repr) }
    }

    /// Run `f` with the calling locale's current snapshot, under the
    /// scheme's read-side protocol — the core of the paper's `Index`
    /// (Algorithm 3 lines 4–8).
    #[inline]
    fn with_snapshot<R>(&self, f: impl FnOnce(&Snapshot<T>) -> R) -> R {
        let st = self.state.get();
        // Lines 6/8, unified: under EBR the guard is the verified pin
        // (RCU_Read with `f` as the λ); under QSBR it is registration —
        // "it will not be reclaimed until [the task] later invokes a
        // checkpoint", and participation is what makes that true. RAII
        // (rather than manual pin/unpin) matters: `f` can panic — e.g. an
        // out-of-bounds index — and a leaked EBR pin would deadlock every
        // future writer on this locale's parity counter.
        let guard = st.reclaim().read_lock();
        // SAFETY: loaded after the guard is live, which obliges writers to
        // keep this snapshot alive until the guard drops, and this thread
        // crosses no quiescent point inside `f`.
        let snap = unsafe { st.snapshot_ref() };
        // Chaos hook: a triggered `read.kill` dies *inside* the read-side
        // critical section, proving the guard's unwind path releases the
        // pin (one relaxed load when no trigger is armed).
        self.shared
            .cluster
            .fault()
            .hit("read.kill")
            .expect("reader killed by fault plan");
        let ret = f(snap);
        drop(guard);
        ret
    }

    /// Run `f` against a *single, consistent* snapshot of the array's
    /// metadata: every access through the [`SnapshotView`] sees the same
    /// version, even if resizes land concurrently. This is the
    /// RCU-consistency guarantee individual [`read`](Self::read) calls
    /// don't need but multi-element invariant checks do.
    ///
    /// Under EBR the whole closure runs inside one read-side critical
    /// section — keep it short, a writer may be draining behind it.
    /// Under QSBR the calling thread must not quiesce inside `f`: calling
    /// `checkpoint` (on this array or any other QSBR structure) there may
    /// free the snapshot the view reads. This is a caller contract that
    /// nothing checks yet — `arr.with_view(|v| { arr.checkpoint(); .. })`
    /// compiles.
    pub fn with_view<R>(&self, f: impl FnOnce(SnapshotView<'_, T, S>) -> R) -> R {
        self.with_snapshot(|snap| f(SnapshotView { array: self, snap }))
    }

    /// Read the element at `idx`.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds of this locale's current view.
    #[inline]
    pub fn read(&self, idx: usize) -> T {
        self.with_snapshot(|snap| {
            let (block, off) = self.locate(snap, idx);
            self.load_at(block, off)
        })
    }

    /// Read without panicking: `None` when out of bounds.
    #[inline]
    pub fn try_read(&self, idx: usize) -> Option<T> {
        if idx < self.capacity() {
            Some(self.read(idx))
        } else {
            None
        }
    }

    /// Update (assign) the element at `idx`. Updates "share the same
    /// performance as reads" (§III-C): one snapshot access plus one store.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds of this locale's current view.
    #[inline]
    pub fn write(&self, idx: usize, value: T) {
        self.with_snapshot(|snap| {
            let (block, off) = self.locate(snap, idx);
            self.store_at(block, off, value);
        })
    }

    /// The paper's `Index`: a reference to element `idx` that remains
    /// valid across concurrent resizes — assignments through it are
    /// visible in all later snapshots because the clone recycles blocks
    /// (Lemma 6).
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds of this locale's current view.
    pub fn get_ref(&self, idx: usize) -> ElemRef<'_, T> {
        let (block, off, home) = self.with_snapshot(|snap| {
            let (block, off) = self.locate(snap, idx);
            // SAFETY: block outlives the snapshot (registry-owned).
            let home = unsafe { block.get() }.home();
            (block, off, home)
        });
        ElemRef::new(self.cell_of(block, off), home, &self.shared.charge)
    }

    /// `Resize` (Algorithm 3 lines 9–29): expand the array by at least
    /// `additional` elements (rounded up to whole blocks, per the paper's
    /// footnote 12). Returns the new capacity.
    ///
    /// Safe to call concurrently with reads, updates and other resizes;
    /// resizes serialize on the cluster-wide write lock.
    ///
    /// Under an enabled fault plan, faulted attempts are rolled back and
    /// retried per [`Config::retry`]; the same loop retries
    /// [`CommError::Backpressure`] refusals under a bounded
    /// [`Config::pressure`] (each retry's quiesce helps drain the
    /// backlog). Exhausting the budget panics (use
    /// [`try_resize`](Self::try_resize) to handle the error instead). On
    /// a healthy, unbounded cluster this path is never entered.
    pub fn resize(&self, additional: usize) -> usize {
        if !self.shared.cluster.fault().is_enabled() && !self.shared.config.pressure.is_bounded() {
            // Infallible without fault injection or a backlog bound.
            return self.try_resize(additional).unwrap();
        }
        let policy = self.shared.config.retry;
        policy
            .run(self.shared.cluster.comm(), || self.try_resize(additional))
            .unwrap_or_else(|e| panic!("RCUArray resize aborted: {e}"))
    }

    /// Fallible `Resize`: one attempt, no retry loop. On any fault —
    /// lock timeout, allocation failure, publish failure, or a panic
    /// injected mid-publish — the attempt is **rolled back**: every
    /// locale whose snapshot was already swapped is re-published at the
    /// old block count, the write lock is released, and the array remains
    /// fully indexable at its previous capacity (update visibility per
    /// Lemma 6 is unaffected because rolled-back snapshots recycle the
    /// same blocks). Blocks allocated by the failed attempt stay owned by
    /// the registry (freed when the array drops) — the same "never free
    /// early" rule every other block obeys.
    pub fn try_resize(&self, additional: usize) -> Result<usize, CommError> {
        let add = self.shared.config.round_up_to_blocks(additional);
        if add == 0 {
            return Ok(self.capacity());
        }
        let bs = self.shared.config.block_size;
        let nblocks = add / bs;
        let num_locales = self.shared.cluster.num_locales();
        let fault = self.shared.cluster.fault();
        let t0 = rcuarray_obs::enabled().then(std::time::Instant::now);

        // Robustness gate (DESIGN.md §9): a resize retires one snapshot
        // per locale, so refuse up front when the reclamation backlog
        // already sits at its byte cap — after giving this task's engine
        // one chance to help drain. `CommError::Backpressure` is
        // retryable: `resize` keeps trying under [`Config::retry`], and
        // the pressure lifts once every reader checkpoints, parks or
        // exits. A stalled reader keeps it refused: nothing here may free
        // a snapshot that reader could still hold.
        let gate_state = self.state.get();
        let gate = gate_state.reclaim();
        let pressure = gate.pressure();
        if pressure.is_bounded() && gate.reclaim_stats().pending_bytes >= pressure.max_backlog_bytes
        {
            gate.quiesce();
            if gate.reclaim_stats().pending_bytes >= pressure.max_backlog_bytes {
                return Err(self.abort_resize(CommError::Backpressure {
                    op: OpKind::Put,
                    locale: rcuarray_runtime::current_locale(),
                }));
            }
        }

        // Line 10: mutual exclusion with respect to all locales. Under a
        // fault plan the acquisition is bounded so a wedged writer (e.g.
        // a down lock home) surfaces as a timeout instead of a hang.
        fault.hit("resize.lock").map_err(|e| self.abort_resize(e))?;
        let guard = if fault.is_enabled() {
            match self
                .shared
                .write_lock
                .try_acquire_for(self.shared.config.retry.op_timeout)
            {
                Some(g) => g,
                None => {
                    return Err(self.abort_resize(CommError::Timeout {
                        op: OpKind::RemoteExec,
                        locale: LocaleId::ZERO,
                    }))
                }
            }
        } else {
            self.shared.write_lock.acquire()
        };

        // Capacity only changes under the write lock, so this sum is the
        // one published below. Checked before anything is allocated.
        let new_cap = self.capacity().checked_add(add).expect("capacity overflow");

        // Armed from here on: any early return or unwind below rolls back
        // partially-published locales and counts an aborted resize. Must
        // be declared *after* `guard` so it drops (and republishes) while
        // the write lock is still held.
        let mut rollback = ResizeRollback {
            array: self,
            old_nblocks: self.capacity() / bs,
            published: (0..num_locales).map(|_| AtomicBool::new(false)).collect(),
            armed: true,
        };

        // Lines 11–16: allocate each new block *on* the locale the
        // round-robin cursor names, advancing a local copy of it; the
        // shared cursor is stored back only once the resize commits.
        let mut loc_id = self.shared.next_locale.peek();
        let mut new_blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            fault.hit("resize.alloc")?;
            new_blocks.push(self.alloc_block_on(loc_id)?);
            loc_id = loc_id.next_round_robin(num_locales);
        }

        // Lines 18–27: replicate the snapshot swap on every locale in
        // parallel (`coforall loc in Locales do on loc`). A locale that
        // faults (or panics, for `FaultAction::Panic` triggers) simply
        // never sets its `published` flag; the rollback guard restores
        // the ones that did.
        let first_err: Mutex<Option<CommError>> = Mutex::new(None);
        let new_blocks = &new_blocks;
        let published = &rollback.published;
        self.shared.cluster.coforall_locales(|l| {
            let faulted = fault
                .hit("resize.publish")
                .and_then(|()| fault.check(l, l, OpKind::RemoteExec));
            if let Err(e) = faulted {
                let mut slot = first_err.lock().unwrap();
                slot.get_or_insert(e);
                return;
            }
            let st = self.state.get_on(l);
            // SAFETY: the write lock serializes writers, so this locale's
            // snapshot cannot change under us.
            let old_snap = unsafe { st.snapshot_ref() };
            let new_snap = old_snap.clone_recycled(new_blocks);
            let old_ptr = st.publish(new_snap);
            published[l.index()].store(true, Ordering::Release);
            // Lines 21–27: retire the superseded snapshot.
            self.retire_snapshot(st, old_ptr);
        });
        if let Some(e) = first_err.into_inner().unwrap() {
            return Err(e); // rollback guard restores published locales
        }
        rollback.armed = false;

        // Line 28: persist the round-robin cursor.
        self.shared.next_locale.set(loc_id);
        self.shared.capacity.store(new_cap, Ordering::Release);
        self.shared.resizes.add(1);
        drop(guard); // line 29

        // Every locale's clone recycled the old snapshot's prefix.
        OBS_BLOCKS_RECYCLED.add((rollback.old_nblocks * num_locales) as u64);
        OBS_CAPACITY.set(new_cap as i64);
        if let Some(t0) = t0 {
            OBS_RESIZE_NS.record(t0.elapsed().as_nanos() as u64);
        }
        Ok(new_cap)
    }

    /// Allocate one block *on* `home` (a remote execution when `home` is
    /// not the caller's locale), record the allocation against `home`,
    /// and hand the block to the registry, which owns it until the array
    /// drops.
    fn alloc_block_on(&self, home: LocaleId) -> Result<BlockRef<T>, CommError> {
        let shared = &self.shared;
        shared.cluster.try_on(home, || {
            let block = Block::<T>::new(home, shared.config.block_size);
            shared
                .cluster
                .locale(home)
                .record_allocation(block.byte_size());
            shared.blocks.adopt(block)
        })
    }

    /// Publish on locale `l` a snapshot of the first `nblocks` blocks of
    /// `from`, one version past it, and retire the snapshot it replaces.
    /// The caller holds the write lock, so `l`'s snapshot is stable; when
    /// `from` *is* `l`'s snapshot it must not be used after this call.
    fn republish_prefix(&self, l: LocaleId, from: &Snapshot<T>, nblocks: usize) {
        let st = self.state.get_on(l);
        let snap = Snapshot::from_blocks(from.blocks()[..nblocks].to_vec(), from.version() + 1);
        let old_ptr = st.publish(snap);
        self.retire_snapshot(st, old_ptr);
    }

    /// Count an aborted attempt that never reached the rollback guard.
    #[cold]
    fn abort_resize(&self, e: CommError) -> CommError {
        self.shared.aborted_resizes.add(1);
        e
    }

    /// Bulk-read `range` into a `Vec`, charging communication per
    /// block-contiguous chunk rather than per element (a bulk GET, which
    /// is how Chapel aggregates slice transfers).
    ///
    /// The read stops at the end of this locale's current view, decided
    /// inside the read-side critical section: the result is the in-view
    /// prefix of `range`, shorter than `range.len()` when the range runs
    /// past it.
    pub fn read_range(&self, range: std::ops::Range<usize>) -> Vec<T> {
        let bs = self.shared.config.block_size;
        self.with_snapshot(|snap| {
            let end = range.end.min(snap.capacity(bs));
            let mut out = Vec::with_capacity(end.saturating_sub(range.start));
            let mut idx = range.start;
            while idx < end {
                let (block, off) = self.locate(snap, idx);
                let take = (bs - off).min(end - idx);
                // SAFETY: registry-owned block.
                let b = unsafe { block.get() };
                self.shared.charge.get(b.home(), take * T::byte_size());
                for k in 0..take {
                    out.push(b.load(off + k));
                }
                idx += take;
            }
            out
        })
    }

    /// Bulk-write `values` starting at `start`, charging communication
    /// per block-contiguous chunk (a bulk PUT).
    ///
    /// # Panics
    /// Panics when `start + values.len()` exceeds this locale's view.
    pub fn write_slice(&self, start: usize, values: &[T]) {
        let bs = self.shared.config.block_size;
        self.with_snapshot(|snap| {
            let mut idx = start;
            let mut src = 0usize;
            while src < values.len() {
                let (block, off) = self.locate(snap, idx);
                let take = (bs - off).min(values.len() - src);
                // SAFETY: registry-owned block.
                let b = unsafe { block.get() };
                self.shared.charge.put(b.home(), take * T::byte_size());
                for k in 0..take {
                    b.store(off + k, values[src + k]);
                }
                idx += take;
                src += take;
            }
        });
    }

    /// Batched read: fetch every index in `indices` under a **single**
    /// read-side critical section — one guard pin (one EBR epoch entry)
    /// for the whole batch, however many blocks it touches. This is the
    /// serving layer's amortization primitive: a front-end coalescing
    /// client requests pays the paper's seq-cst pin cost once per batch
    /// instead of once per element (`crates/service`, DESIGN.md §11).
    ///
    /// An empty batch returns immediately without entering the read-side
    /// protocol at all (zero pins) — callers can treat "nothing to do" as
    /// free. Results are in `indices` order: `None` for an index past the
    /// end of the pinned snapshot. Bounds are decided inside the critical
    /// section, so an index past the view costs only its own entry, never
    /// a panic. Communication is charged per element to each block's home,
    /// exactly as [`read`](Self::read) charges it.
    pub fn read_many(&self, indices: &[usize]) -> Vec<Option<T>> {
        if indices.is_empty() {
            return Vec::new();
        }
        let bs = self.shared.config.block_size;
        self.with_snapshot(|snap| {
            indices
                .iter()
                .map(|&idx| {
                    let block = snap.try_block(idx / bs)?;
                    Some(self.load_at(block, idx % bs))
                })
                .collect()
        })
    }

    /// Batched update: apply every `(index, value)` assignment in
    /// `entries` under a **single** read-side critical section — the
    /// write-path twin of [`read_many`](Self::read_many). All stores land
    /// in the same snapshot view; because updates are plain stores into
    /// registry-owned blocks (Lemma 6), they remain visible in every
    /// later snapshot. An empty batch performs no pin.
    ///
    /// Returns, in `entries` order, whether each store landed: an entry
    /// past the end of the pinned snapshot is skipped (`false`), decided
    /// inside the critical section as in `read_many`.
    pub fn write_many(&self, entries: &[(usize, T)]) -> Vec<bool> {
        if entries.is_empty() {
            return Vec::new();
        }
        let bs = self.shared.config.block_size;
        self.with_snapshot(|snap| {
            entries
                .iter()
                .map(|&(idx, value)| {
                    let Some(block) = snap.try_block(idx / bs) else {
                        return false;
                    };
                    self.store_at(block, idx % bs, value);
                    true
                })
                .collect()
        })
    }

    /// Announce a quiescent state for the calling thread (a QSBR
    /// checkpoint that frees every entry now safe; a no-op for schemes
    /// that never defer). Returns deferred reclamations run.
    pub fn checkpoint(&self) -> usize {
        self.state.get().reclaim().quiesce()
    }

    /// Assign `value` to every element.
    pub fn fill(&self, value: T) {
        for i in 0..self.capacity() {
            self.write(i, value);
        }
    }

    /// The `(block index, block)` pairs of the calling locale's current
    /// snapshot that are *homed on* the calling locale.
    ///
    /// This is the owner-computes building block: iterating these blocks
    /// touches only node-local memory.
    pub fn local_blocks(&self) -> Vec<(usize, BlockRef<T>)> {
        let here = rcuarray_runtime::current_locale();
        self.with_snapshot(|snap| {
            snap.blocks()
                .iter()
                .enumerate()
                // SAFETY: registry-owned blocks outlive the call.
                .filter(|(_, b)| unsafe { b.get() }.home() == here)
                .map(|(i, b)| (i, *b))
                .collect()
        })
    }

    /// Owner-computes parallel iteration — a nod to the paper's last
    /// future-work item, compatibility with Chapel's *Domain map Standard
    /// Interface*: one task per locale visits exactly the elements whose
    /// blocks are homed there, so the sweep is communication-free.
    ///
    /// `f(global_index, element_ref)` runs concurrently across locales;
    /// it must be safe to call from multiple threads (it is `Sync`).
    pub fn forall_local(&self, f: impl Fn(usize, &ElemRef<'_, T>) + Sync) {
        let bs = self.shared.config.block_size;
        self.shared.cluster.coforall_locales(|_| {
            for (block_idx, block) in self.local_blocks() {
                // SAFETY: registry-owned block.
                let home = unsafe { block.get() }.home();
                for off in 0..bs {
                    let r = ElemRef::new(self.cell_of(block, off), home, &self.shared.charge);
                    f(block_idx * bs + off, &r);
                }
            }
        });
    }

    /// Iterate over current element values (each element read under the
    /// scheme's protocol; the iteration as a whole is not a snapshot).
    pub fn iter(&self) -> Iter<'_, T, S> {
        Iter::new(self)
    }

    /// Collect current element values.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().collect()
    }

    /// Aggregate instrumentation across locales.
    ///
    /// Per-locale reclamation counters are folded through
    /// [`ReclaimStats::merge`]: per-locale engines (EBR, leak) sum, while
    /// clones of one shared domain (QSBR) max — the domain's
    /// numbers are reported once, not once per locale.
    pub fn stats(&self) -> ArrayStats {
        let mut reclaim = ReclaimStats::default();
        for (_, st) in self.state.iter() {
            reclaim = reclaim.merge(st.reclaim().reclaim_stats());
        }
        ArrayStats {
            capacity: self.capacity(),
            num_blocks: self.num_blocks(),
            blocks_per_locale: self
                .shared
                .blocks
                .per_locale_histogram(self.shared.cluster.num_locales()),
            resizes: self.shared.resizes.get(),
            aborted_resizes: self.shared.aborted_resizes.get(),
            fallback_reads: self.shared.charge.fallback_reads.load(Ordering::Relaxed),
            degraded_writes: self.shared.charge.degraded_writes.load(Ordering::Relaxed),
            reclaim,
            comm: self.shared.cluster.comm_stats(),
            fault: self.shared.cluster.comm().fault_totals(),
        }
    }
}

/// Drop guard arming [`RcuArray::try_resize`]: while armed, any early
/// return or unwind re-publishes every locale whose snapshot swap already
/// landed back at the old block count (recycling the same blocks, so
/// element values and outstanding references are untouched) and counts
/// one aborted resize. Declared after the write-lock guard in
/// `try_resize`, so it drops — and republishes — while the lock is still
/// held.
struct ResizeRollback<'a, T: Element, S: Scheme> {
    array: &'a RcuArray<T, S>,
    old_nblocks: usize,
    published: Vec<AtomicBool>,
    armed: bool,
}

impl<T: Element, S: Scheme> Drop for ResizeRollback<'_, T, S> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let shared = &self.array.shared;
        shared.aborted_resizes.add(1);
        for (l, flag) in self.published.iter().enumerate() {
            if !flag.load(Ordering::Acquire) {
                continue;
            }
            let l = LocaleId::new(l as u32);
            // SAFETY: the aborting resize still holds the write lock, so
            // this locale's snapshot is stable.
            let cur = unsafe { self.array.state.get_on(l).snapshot_ref() };
            self.array.republish_prefix(l, cur, self.old_nblocks);
        }
    }
}

/// A borrowed, version-consistent view of the array: all accesses resolve
/// against the same snapshot. Produced by [`RcuArray::with_view`].
pub struct SnapshotView<'a, T: Element, S: Scheme = QsbrScheme> {
    array: &'a RcuArray<T, S>,
    snap: &'a Snapshot<T>,
}

impl<T: Element, S: Scheme> SnapshotView<'_, T, S> {
    /// Element capacity of this snapshot version.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.snap.capacity(self.array.shared.config.block_size)
    }

    /// The snapshot's lineage version (diagnostics).
    #[inline]
    pub fn version(&self) -> u64 {
        self.snap.version()
    }

    /// Read element `idx` from this snapshot version.
    ///
    /// # Panics
    /// Panics when `idx` is outside this version's capacity.
    #[inline]
    pub fn get(&self, idx: usize) -> T {
        let (block, off) = self.array.locate(self.snap, idx);
        self.array.load_at(block, off)
    }
}

impl<T: Element, S: Scheme> std::fmt::Debug for RcuArray<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcuArray")
            .field("scheme", &S::NAME)
            .field("capacity", &self.capacity())
            .field("blocks", &self.num_blocks())
            .field("block_size", &self.shared.config.block_size)
            .field("locales", &self.shared.cluster.num_locales())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray_analysis::atomic::AtomicBool;
    use rcuarray_runtime::{task, FaultAction, FaultPlan, Topology};

    fn cluster(n: usize) -> Arc<Cluster> {
        Cluster::new(Topology::new(n, 2))
    }

    fn small_config() -> Config {
        Config::with_block_size(8)
    }

    fn all_schemes(test: impl Fn(&dyn Fn() -> Box<dyn ArrayOps>)) {
        let c = cluster(3);
        let cq = Arc::clone(&c);
        test(&move || Box::new(QsbrArray::<u64>::with_config(&cq, small_config())));
        let ce = Arc::clone(&c);
        test(&move || Box::new(EbrArray::<u64>::with_config(&ce, small_config())));
        let cl = Arc::clone(&c);
        test(&move || Box::new(LeakArray::<u64>::with_config(&cl, small_config())));
    }

    /// Object-safe view for scheme-generic tests.
    trait ArrayOps: Send + Sync {
        fn read(&self, idx: usize) -> u64;
        fn write(&self, idx: usize, v: u64);
        fn resize(&self, add: usize) -> usize;
        fn capacity(&self) -> usize;
        fn checkpoint(&self) -> usize;
    }

    impl<S: Scheme> ArrayOps for RcuArray<u64, S> {
        fn read(&self, idx: usize) -> u64 {
            RcuArray::read(self, idx)
        }
        fn write(&self, idx: usize, v: u64) {
            RcuArray::write(self, idx, v)
        }
        fn resize(&self, add: usize) -> usize {
            RcuArray::resize(self, add)
        }
        fn capacity(&self) -> usize {
            RcuArray::capacity(self)
        }
        fn checkpoint(&self) -> usize {
            RcuArray::checkpoint(self)
        }
    }

    #[test]
    fn new_array_is_empty() {
        let c = cluster(2);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        assert!(a.is_empty());
        assert_eq!(a.capacity(), 0);
        assert_eq!(a.num_blocks(), 0);
        assert_eq!(a.try_read(0), None);
    }

    #[test]
    fn resize_then_read_write_round_trip_all_schemes() {
        all_schemes(|make| {
            let a = make();
            assert_eq!(a.resize(16), 16);
            for i in 0..16 {
                assert_eq!(a.read(i), 0, "zero-initialized");
                a.write(i, (i * 3) as u64);
            }
            for i in 0..16 {
                assert_eq!(a.read(i), (i * 3) as u64);
            }
            a.checkpoint();
        });
    }

    #[test]
    fn resize_rounds_up_to_block_multiple() {
        let c = cluster(2);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        assert_eq!(a.resize(1), 8, "1 element rounds to a full block");
        assert_eq!(a.resize(9), 24, "9 more rounds to 2 blocks");
        assert_eq!(a.num_blocks(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity overflow")]
    fn resize_rounding_past_usize_max_panics() {
        let c = cluster(2);
        let a: EbrArray<u64> = RcuArray::with_config(&c, Config::default());
        // usize::MAX rounds up to 2^54 blocks of 1024: 2^64 elements.
        a.resize(usize::MAX);
    }

    #[test]
    fn resize_summing_past_usize_max_panics_and_leaves_the_array_usable() {
        let c = cluster(2);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        assert_eq!(a.resize(16), 16);
        // Rounds to a block multiple without overflow; the sum overflows.
        let huge = usize::MAX - 15;
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.resize(huge)));
        let payload = died.expect_err("capacity + add overflowed silently");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("capacity overflow"), "{msg}");
        // The write lock was released and nothing was published.
        assert_eq!(a.capacity(), 16);
        assert_eq!(a.resize(8), 24);
    }

    #[test]
    fn resize_zero_is_noop() {
        let c = cluster(2);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        assert_eq!(a.resize(0), 0);
        assert_eq!(a.num_blocks(), 0);
    }

    #[test]
    fn blocks_distributed_round_robin_across_resizes() {
        let c = cluster(3);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8 * 4); // 4 blocks: L0 L1 L2 L0
        a.resize(8 * 2); // 2 blocks continue: L1 L2  (NextLocaleId persisted)
        let hist = a.stats().blocks_per_locale;
        assert_eq!(
            hist,
            vec![2, 2, 2],
            "round-robin must continue across resizes"
        );
    }

    #[test]
    fn values_survive_resizes_all_schemes() {
        all_schemes(|make| {
            let a = make();
            a.resize(8);
            a.write(3, 99);
            for _ in 0..5 {
                a.resize(8);
            }
            assert_eq!(a.read(3), 99, "existing data must survive expansion");
            assert_eq!(a.capacity(), 48);
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let c = cluster(1);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8);
        a.read(8);
    }

    #[test]
    fn get_ref_reads_and_writes() {
        let c = cluster(2);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(16);
        let r = a.get_ref(10);
        assert_eq!(r.get(), 0);
        r.set(5);
        assert_eq!(a.read(10), 5);
        r.update(|v| v + 1);
        assert_eq!(a.read(10), 6);
    }

    #[test]
    fn lemma6_update_through_old_reference_survives_resize() {
        // The paper's lost-update scenario: obtain a reference, let a
        // writer clone the snapshot, then assign through the reference —
        // the assignment must be visible afterwards.
        let c = cluster(2);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8);
        let r = a.get_ref(2); // reference into the old snapshot's block
        a.resize(8); // writer clones; block 0 is recycled
        r.set(1234); // assignment "to the previous snapshot"
        assert_eq!(a.read(2), 1234, "update must not be lost (Lemma 6)");
    }

    #[test]
    fn concurrent_reads_during_resize_all_schemes() {
        all_schemes(|make| {
            let a = make();
            a.resize(64);
            for i in 0..64 {
                a.write(i, i as u64);
            }
            let stop = AtomicBool::new(false);
            std::thread::scope(|s| {
                for _ in 0..3 {
                    let a = &a;
                    let stop = &stop;
                    s.spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            for i in 0..64 {
                                assert_eq!(a.read(i), i as u64);
                            }
                        }
                    });
                }
                let a2 = &a;
                let stop2 = &stop;
                s.spawn(move || {
                    for _ in 0..30 {
                        a2.resize(8);
                    }
                    stop2.store(true, Ordering::Relaxed);
                });
            });
            assert_eq!(a.capacity(), 64 + 30 * 8);
        });
    }

    #[test]
    fn concurrent_resizes_serialize() {
        let c = cluster(2);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let a = a.clone();
                s.spawn(move || {
                    for _ in 0..10 {
                        a.resize(8);
                    }
                });
            }
        });
        assert_eq!(a.capacity(), 4 * 10 * 8);
        assert_eq!(a.num_blocks(), 40);
        assert_eq!(a.stats().resizes, 40);
    }

    #[test]
    fn qsbr_checkpoint_reclaims_old_snapshots() {
        let c = cluster(2);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        for _ in 0..4 {
            a.resize(8);
        }
        // Resize tasks exited; their deferred snapshots are orphaned once
        // their TLS destructors finish (which can lag the join slightly),
        // after which this thread's checkpoint is the only gate left.
        let mut freed = 0;
        for _ in 0..1000 {
            freed += a.checkpoint();
            if a.stats().reclaim.pending == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(freed > 0, "old snapshots must be reclaimed at a checkpoint");
        assert_eq!(a.stats().reclaim.pending, 0);
        assert!(a.qsbr_domain().is_some(), "qsbr scheme exposes its domain");
    }

    #[test]
    fn ebr_checkpoint_is_noop() {
        let c = cluster(1);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8);
        assert_eq!(a.checkpoint(), 0);
        assert!(a.qsbr_domain().is_none(), "ebr has no shared domain");
    }

    #[test]
    fn leak_array_retires_but_never_frees() {
        let c = cluster(2);
        let a: LeakArray<u64> = RcuArray::with_config(&c, small_config());
        for _ in 0..4 {
            a.resize(8);
        }
        a.write(3, 7);
        assert_eq!(a.read(3), 7);
        assert_eq!(a.checkpoint(), 0, "leak never frees");
        let s = a.stats().reclaim;
        // One snapshot retired per locale per capacity-changing publish.
        assert_eq!(s.retired, 8, "4 resizes x 2 locales");
        assert_eq!(s.reclaimed, 0);
        assert_eq!(s.pending, 8, "retire count is monotone, nothing drains");
        assert!(s.pending_bytes > 0);
        assert!(a.qsbr_domain().is_none());
        assert_eq!(a.scheme_name(), "leak");
    }

    #[test]
    fn fill_iter_to_vec() {
        let c = cluster(2);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(10); // rounds to 16
        a.fill(7);
        assert!(a.iter().all(|v| v == 7));
        assert_eq!(a.to_vec().len(), 16);
    }

    #[test]
    fn clone_aliases_same_array() {
        let c = cluster(2);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        let b = a.clone();
        a.resize(8);
        b.write(0, 42);
        assert_eq!(a.read(0), 42);
        assert_eq!(b.capacity(), 8);
    }

    #[test]
    fn with_capacity_presizes() {
        let c = cluster(2);
        let a: EbrArray<u64> = RcuArray::with_capacity(&c, small_config(), 20);
        assert_eq!(a.capacity(), 24); // rounded to 3 blocks of 8
    }

    #[test]
    fn reads_are_node_local_metadata_comm_only_for_remote_blocks() {
        let c = cluster(2);
        let cfg = Config::with_block_size(8);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, cfg);
        a.resize(16); // block 0 on L0, block 1 on L1
        c.comm().reset();
        rcuarray_runtime::task::with_locale(LocaleId::ZERO, || {
            let _ = a.read(0); // local block
            let _ = a.read(8); // remote block
        });
        let s = c.comm_stats();
        assert_eq!(s.local_accesses, 1);
        assert_eq!(s.gets, 1);
    }

    #[test]
    fn ebr_reads_pin_the_local_zone() {
        let c = cluster(2);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8);
        for _ in 0..10 {
            let _ = a.read(0);
        }
        assert_eq!(a.stats().reclaim.guards, 10);
        // QSBR variant shows zero guards: reads are unsynchronized.
        let q: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        q.resize(8);
        let _ = q.read(0);
        assert_eq!(q.stats().reclaim.guards, 0);
    }

    #[test]
    fn read_many_pins_once_per_batch() {
        let c = cluster(2);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8);
        for i in 0..8 {
            a.write(i, i as u64);
        }
        let base = a.stats().reclaim.guards;
        let got = a.read_many(&[0, 3, 7, 1]);
        assert_eq!(
            got,
            vec![Some(0), Some(3), Some(7), Some(1)],
            "results follow batch order"
        );
        assert_eq!(
            a.stats().reclaim.guards,
            base + 1,
            "a whole batch must cost exactly one EBR pin"
        );
        // Contrast: the same four elements read singly cost four pins.
        for i in [0usize, 3, 7, 1] {
            let _ = a.read(i);
        }
        assert_eq!(a.stats().reclaim.guards, base + 5);
    }

    #[test]
    fn write_many_pins_once_and_lands_every_store() {
        let c = cluster(2);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8);
        let base = a.stats().reclaim.guards;
        assert_eq!(a.write_many(&[(0, 10), (5, 15), (7, 17)]), vec![true; 3]);
        assert_eq!(
            a.stats().reclaim.guards,
            base + 1,
            "a write batch must cost exactly one EBR pin"
        );
        assert_eq!(a.read(0), 10);
        assert_eq!(a.read(5), 15);
        assert_eq!(a.read(7), 17);
        // QSBR reads are unsynchronized, so its guard count stays zero
        // through the identical batch path.
        let q: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        q.resize(8);
        q.write_many(&[(0, 1), (1, 2)]);
        assert_eq!(q.read_many(&[0, 1]), vec![Some(1), Some(2)]);
        assert_eq!(q.stats().reclaim.guards, 0);
    }

    #[test]
    fn empty_batches_do_not_pin() {
        let c = cluster(2);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8);
        let base = a.stats().reclaim.guards;
        assert!(a.read_many(&[]).is_empty());
        assert!(a.write_many(&[]).is_empty());
        assert_eq!(
            a.stats().reclaim.guards,
            base,
            "an empty batch must not enter the read-side protocol"
        );
    }

    #[test]
    fn batch_ops_cross_block_boundaries_under_one_pin() {
        let c = cluster(3);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8 * 4); // four blocks round-robined over three locales
        let base = a.stats().reclaim.guards;
        // One batch touching every block (and so several homes).
        let entries: Vec<(usize, u64)> = (0..4).map(|b| (b * 8 + 3, (b * 100) as u64)).collect();
        a.write_many(&entries);
        let indices: Vec<usize> = entries.iter().map(|&(i, _)| i).collect();
        let got = a.read_many(&indices);
        assert_eq!(got, vec![Some(0), Some(100), Some(200), Some(300)]);
        assert_eq!(
            a.stats().reclaim.guards,
            base + 2,
            "one pin per batch regardless of how many blocks it spans"
        );
    }

    #[test]
    fn batch_ops_answer_for_indices_past_the_view() {
        let c = cluster(1);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(16);
        let base = a.stats().reclaim.guards;
        assert_eq!(
            a.write_many(&[(0, 1), (8, 2), (16, 3)]),
            vec![true, true, false]
        );
        assert_eq!(a.read_many(&[0, 8, 16]), vec![Some(1), Some(2), None]);
        assert_eq!(
            a.stats().reclaim.guards,
            base + 2,
            "still one pin per batch"
        );
    }

    #[test]
    fn resize_advances_every_locale_epoch_under_ebr() {
        let c = cluster(3);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8);
        a.resize(8);
        assert_eq!(
            a.stats().reclaim.advances,
            6,
            "one advance per locale per resize"
        );
    }

    #[test]
    fn local_blocks_partition_by_home() {
        let c = cluster(3);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8 * 6); // 6 blocks over 3 locales: 2 each
        let mut seen = std::collections::HashSet::new();
        for l in 0..3u32 {
            rcuarray_runtime::task::with_locale(LocaleId::new(l), || {
                let local = a.local_blocks();
                assert_eq!(local.len(), 2, "locale {l}");
                for (idx, b) in local {
                    // SAFETY: the registry outlives this test scope.
                    assert_eq!(unsafe { b.get() }.home(), LocaleId::new(l));
                    assert!(seen.insert(idx), "block {idx} owned twice");
                }
            });
        }
        assert_eq!(seen.len(), 6, "every block owned exactly once");
    }

    #[test]
    fn forall_local_visits_every_element_once_locally() {
        let c = cluster(3);
        let cfg = Config::with_block_size(8);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, cfg);
        a.resize(8 * 6);
        c.comm().reset();
        let visits = AtomicUsize::new(0);
        a.forall_local(|idx, r| {
            r.set(idx as u64 + 1);
            visits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(visits.load(Ordering::Relaxed), 48);
        // Owner-computes: zero remote element traffic.
        assert_eq!(c.comm_stats().puts, 0, "forall_local must stay local");
        for i in 0..48 {
            assert_eq!(a.read(i), i as u64 + 1);
        }
    }

    #[test]
    fn with_view_is_version_consistent_across_concurrent_resizes() {
        let c = cluster(2);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(32);
        // A view's capacity and version must be mutually consistent even
        // while a resizer churns underneath.
        std::thread::scope(|s| {
            let a2 = a.clone();
            let resizer = s.spawn(move || {
                for _ in 0..50 {
                    a2.resize(8);
                }
            });
            for _ in 0..500 {
                a.with_view(|view| {
                    let cap = view.capacity();
                    // The initial resize(32) produced version 1 with 32
                    // elements; every later resize(8) adds one block.
                    // Both fields come from the same snapshot, so the
                    // relation is exact, never torn.
                    assert_eq!(cap, 32 + (view.version() as usize - 1) * 8);
                    // And all of it is readable.
                    let _ = view.get(cap - 1);
                });
            }
            resizer.join().unwrap();
        });
        assert_eq!(a.capacity(), 32 + 50 * 8);
    }

    #[test]
    fn with_view_works_under_qsbr_too() {
        let c = cluster(2);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(16);
        a.write(3, 30);
        a.write(12, 120);
        let sum = a.with_view(|v| v.get(3) + v.get(12));
        assert_eq!(sum, 150);
        a.checkpoint();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_bounds_are_the_snapshots() {
        let c = cluster(1);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8);
        a.with_view(|v| v.get(8));
    }

    #[test]
    fn capacity_checked_paths_never_panic_against_growing_and_rolled_back_resizes() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let panicked = |f: &dyn Fn()| usize::from(catch_unwind(AssertUnwindSafe(f)).is_err());
        // Each trigger fires once after three benign publishes, so about
        // one publish in four faults and its resize rolls back (on a
        // 2-locale cluster, often after the other locale has published).
        let plan = (0..64).fold(FaultPlan::new(3), |p, _| {
            p.trigger("resize.publish", 3, 1, FaultAction::Error)
        });
        let c = Cluster::builder()
            .topology(Topology::new(2, 2))
            .fault_plan(plan)
            .build();
        // Resizes retry rolled-back publishes on their attempt budget
        // alone: the default 100 ms time budget can run out first on a
        // loaded host, which would fail this test for the wrong reason.
        let retry = RetryPolicy {
            op_timeout: std::time::Duration::from_secs(3600),
            ..RetryPolicy::default()
        };
        let a: EbrArray<u64> = RcuArray::with_config(
            &c,
            Config {
                retry,
                ..small_config()
            },
        );
        a.resize(8);
        let stop = AtomicBool::new(false);
        let reader = |l: u32| {
            let mut panics = 0;
            while !stop.load(Ordering::Acquire) {
                // Probe the block just past the capacity seen here: a
                // resize may raise it between a probe's bounds check and
                // its read.
                let past = a.capacity();
                for idx in past..past + 8 {
                    panics += panicked(&|| {
                        a.try_read(idx);
                    });
                }
                panics += panicked(&|| {
                    assert!(a.to_vec().len() >= past);
                    a.fill(l as u64);
                });
            }
            panics
        };
        let panics: usize = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2u32)
                .map(|l| s.spawn(move || task::with_locale(LocaleId::new(l), || reader(l))))
                .collect();
            // Stop the readers even if a resize panics, so a broken
            // resize fails this test instead of hanging it.
            let resized = panicked(&|| {
                for _ in 0..200 {
                    a.resize(8);
                }
            });
            stop.store(true, Ordering::Release);
            assert_eq!(resized, 0, "a resize panicked");
            readers.into_iter().map(|r| r.join().unwrap()).sum()
        });
        assert_eq!(panics, 0, "a capacity-checked path panicked");
        assert!(a.stats().aborted_resizes > 0, "no resize rolled back");
        assert_eq!(a.capacity(), 8 + 200 * 8);
    }

    #[test]
    fn bulk_read_write_round_trip_and_aggregate_comm() {
        let c = cluster(2);
        let cfg = Config::with_block_size(8);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, cfg);
        a.resize(32);
        let data: Vec<u64> = (0..20).map(|i| i * 3).collect();
        c.comm().reset();
        rcuarray_runtime::task::with_locale(LocaleId::ZERO, || {
            a.write_slice(4, &data);
        });
        let puts_bulk = c.comm_stats().puts;
        assert!(
            puts_bulk <= 3,
            "bulk write must charge per block chunk, saw {puts_bulk} puts"
        );
        assert_eq!(a.read_range(4..24), data);
        assert_eq!(a.read(3), 0);
        assert_eq!(a.read(24), 0);
        a.checkpoint();
    }

    #[test]
    fn bulk_read_stops_at_the_view() {
        let c = cluster(1);
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8);
        a.write_slice(4, &[1, 2, 3, 4]);
        assert_eq!(a.read_range(4..12), vec![1, 2, 3, 4]);
        assert!(a.read_range(9..12).is_empty());
    }

    #[test]
    fn oob_panic_inside_ebr_read_does_not_wedge_writers() {
        // Regression: the OOB panic fires *inside* the read-side critical
        // section; without an RAII pin the parity counter would stay
        // elevated and this resize would deadlock.
        let c = cluster(2);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(8);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.read(999);
        }));
        assert!(r.is_err());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let a2 = a.clone();
        rcuarray_analysis::thread::spawn(move || {
            a2.resize(8);
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("resize wedged by leaked reader pin");
        assert_eq!(a.capacity(), 16);
    }

    #[test]
    fn debug_output_names_scheme() {
        let c = cluster(1);
        let a: EbrArray<u64> = RcuArray::with_config(&c, small_config());
        let dbg = format!("{a:?}");
        assert!(dbg.contains("ebr"), "{dbg}");
        assert_eq!(a.scheme_name(), "ebr");
    }

    #[test]
    fn rolled_back_resize_leaves_the_round_robin_cursor_in_place() {
        // The first resize publishes on 3 locales (3 benign hits); the
        // trigger then fails the second resize's first publish.
        let c = Cluster::builder()
            .topology(Topology::new(3, 2))
            .fault_plan(FaultPlan::new(7).trigger("resize.publish", 3, 1, FaultAction::Error))
            .build();
        let a: QsbrArray<u64> = RcuArray::with_config(&c, small_config());
        a.resize(24); // blocks homed on L0, L1, L2
        assert!(a.try_resize(8).is_err(), "armed trigger must abort");
        assert_eq!(a.capacity(), 24);
        assert_eq!(a.stats().aborted_resizes, 1);
        // The retry resumes the paper's cursor sequence: the aborted
        // attempt's block went to L0, and so does the committed one.
        a.resize(8);
        assert_eq!(a.capacity(), 32);
        assert_eq!(a.get_ref(24).home(), LocaleId::ZERO);
    }
}
