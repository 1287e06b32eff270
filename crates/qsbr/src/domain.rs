//! The QSBR domain: the public `QSBR_Defer` / `QSBR_Checkpoint` API of
//! Algorithm 2, plus thread registration, parking and statistics.
//!
//! The paper installs one instance of this machinery inside Chapel's
//! runtime. Here a [`QsbrDomain`] is an explicit, clonable handle (tests
//! and multiple independent structures can run isolated domains); threads
//! register lazily on first use through thread-local storage and
//! unregister automatically at thread exit, handing unprocessed defer
//! entries to the domain's orphan list.

use crate::defer_list::DeferChain;
use crate::record::ThreadRecord;
use crate::registry::Registry;
use crate::state::StateEpoch;
use rcuarray_analysis::atomic::{AtomicU64, Ordering};
use rcuarray_obs::{LazyCounter, LazyGauge, LazyHistogram, ScopedCounter};
use rcuarray_reclaim::PressureConfig;
use std::cell::RefCell;
use std::sync::{Arc, Weak};

/// Monotonic domain-id source, used as the TLS lookup key.
static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(1);

// Telemetry (see DESIGN.md §7). Counted events are scoped counters on
// the domain: one call feeds `DomainStats` and the process total.
// Backlog and lag gauges are set by the most recently *reclaiming*
// checkpoint: the fast path (nothing pending) must stay at one load +
// one store + two checks.
static OBS_DEFERS: LazyCounter = LazyCounter::new("rcuarray_qsbr_defers_total", "QSBR_Defer calls");
static OBS_CHECKPOINTS: LazyCounter =
    LazyCounter::new("rcuarray_qsbr_checkpoints_total", "QSBR_Checkpoint calls");
static OBS_RECLAIMED: LazyCounter = LazyCounter::new(
    "rcuarray_qsbr_reclaimed_total",
    "deferred reclamations executed",
);
static OBS_RECLAIMED_BYTES: LazyCounter = LazyCounter::new(
    "rcuarray_qsbr_reclaimed_bytes_total",
    "approximate bytes reclaimed at checkpoints",
);
static OBS_CHECKPOINT_NS: LazyHistogram = LazyHistogram::new(
    "rcuarray_qsbr_checkpoint_ns",
    "latency of reclaiming (slow-path) checkpoints, ns",
);
static OBS_EPOCH_LAG: LazyGauge = LazyGauge::new(
    "rcuarray_qsbr_epoch_lag",
    "state epoch minus min observed epoch at the last reclaiming checkpoint",
);
static OBS_BACKLOG_ENTRIES: LazyGauge = LazyGauge::new(
    "rcuarray_qsbr_defer_backlog_entries",
    "deferred reclamations still pending after the last reclaiming checkpoint",
);
static OBS_BACKLOG_BYTES: LazyGauge = LazyGauge::new(
    "rcuarray_qsbr_defer_backlog_bytes",
    "approximate bytes still pending after the last reclaiming checkpoint",
);
struct DomainInner {
    id: u64,
    state: StateEpoch,
    registry: Registry,
    defers: ScopedCounter,
    defer_bytes: AtomicU64,
    checkpoints: ScopedCounter,
    reclaimed: ScopedCounter,
    reclaimed_bytes: ScopedCounter,
    /// [`PressureConfig`] fields (`u64::MAX` = unbounded, the default).
    cap_bytes: AtomicU64,
    watermark_bytes: AtomicU64,
}

/// Counters describing a domain's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainStats {
    /// `defer` calls made.
    pub defers: u64,
    /// `checkpoint` calls made.
    pub checkpoints: u64,
    /// Deferred reclamations actually executed.
    pub reclaimed: u64,
    /// Deferred reclamations not yet executed (approximate: orphan chains
    /// are counted whole).
    pub pending: u64,
    /// Approximate bytes awaiting reclamation (sum of the size hints
    /// passed to [`QsbrDomain::defer_with_bytes`], minus what has been
    /// reclaimed).
    pub pending_bytes: u64,
}

/// A QSBR reclamation domain.
///
/// Cloning is cheap and clones share the same domain. See the
/// [crate docs](crate) for the protocol and its contract.
#[derive(Clone)]
pub struct QsbrDomain {
    inner: Arc<DomainInner>,
}

impl Default for QsbrDomain {
    fn default() -> Self {
        Self::new()
    }
}

struct TlsEntry {
    domain_id: u64,
    domain: Weak<DomainInner>,
    record: Arc<ThreadRecord>,
}

/// Thread-local registrations; the wrapper's `Drop` is the thread-exit
/// hook Chapel's runtime gives the paper for free.
struct TlsState {
    entries: Vec<TlsEntry>,
}

impl Drop for TlsState {
    fn drop(&mut self) {
        for entry in self.entries.drain(..) {
            if let Some(domain) = entry.domain.upgrade() {
                // Normal path: hand leftovers to the domain's orphans.
                domain.registry.unregister(&entry.record);
            }
            // Domain already gone: dropping the record runs its remaining
            // reclaimers via `DeferList::drop` — nothing can still be
            // reading data protected by a destroyed domain.
        }
    }
}

thread_local! {
    static TLS: RefCell<TlsState> = const { RefCell::new(TlsState { entries: Vec::new() }) };
    /// One-slot registration cache: the id of the domain this thread most
    /// recently confirmed registration with. Lets the read hot path verify
    /// participation with a single TLS load + compare instead of a
    /// `RefCell` borrow and a vector scan.
    static LAST_REGISTERED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl QsbrDomain {
    /// A fresh, empty domain at state epoch 0.
    pub fn new() -> Self {
        QsbrDomain {
            inner: Arc::new(DomainInner {
                id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed),
                state: StateEpoch::new(),
                registry: Registry::new(),
                defers: OBS_DEFERS.scoped(),
                defer_bytes: AtomicU64::new(0),
                checkpoints: OBS_CHECKPOINTS.scoped(),
                reclaimed: OBS_RECLAIMED.scoped(),
                reclaimed_bytes: OBS_RECLAIMED_BYTES.scoped(),
                cap_bytes: AtomicU64::new(u64::MAX),
                watermark_bytes: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// Install a backlog byte budget; [`PressureConfig::unbounded`] (the
    /// default) disables it. Consumed by the [`Reclaim`] impls'
    /// `pressure()` override, which drives `try_retire` backpressure.
    ///
    /// [`Reclaim`]: rcuarray_reclaim::Reclaim
    pub fn set_pressure(&self, pressure: PressureConfig) {
        pressure.validate();
        self.inner
            .cap_bytes
            .store(pressure.max_backlog_bytes, Ordering::SeqCst);
        self.inner
            .watermark_bytes
            .store(pressure.high_watermark, Ordering::SeqCst);
    }

    /// The currently installed backlog budget.
    pub fn pressure_config(&self) -> PressureConfig {
        PressureConfig {
            max_backlog_bytes: self.inner.cap_bytes.load(Ordering::SeqCst),
            high_watermark: self.inner.watermark_bytes.load(Ordering::SeqCst),
        }
    }

    /// This domain's unique id.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Current global state epoch.
    pub fn state_epoch(&self) -> u64 {
        self.inner.state.read()
    }

    /// The calling thread's record in this domain, registering on first
    /// use. Registration observes the current state epoch: joining is a
    /// quiescence point.
    fn record(&self) -> Arc<ThreadRecord> {
        TLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            if let Some(e) = tls.entries.iter().find(|e| e.domain_id == self.inner.id) {
                return Arc::clone(&e.record);
            }
            let record = self.inner.registry.register(self.inner.state.read());
            tls.entries.push(TlsEntry {
                domain_id: self.inner.id,
                domain: Arc::downgrade(&self.inner),
                record: Arc::clone(&record),
            });
            record
        })
    }

    /// Explicitly register the calling thread (otherwise lazy).
    pub fn register_current_thread(&self) {
        let _ = self.record();
    }

    /// Guarantee the calling thread participates in this domain, with a
    /// fast path of one thread-local load when it already does.
    ///
    /// Readers of QSBR-protected structures call this before every access:
    /// an *unregistered* thread is invisible to the minimum-epoch scan and
    /// therefore unprotected. In the paper this cost does not exist
    /// because Chapel's runtime threads are participants by construction;
    /// the one-slot cache keeps our equivalent at a couple of nanoseconds.
    #[inline]
    pub fn ensure_registered(&self) {
        let id = self.inner.id;
        if LAST_REGISTERED.with(|c| c.get()) == id {
            return;
        }
        let _ = self.record();
        LAST_REGISTERED.with(|c| c.set(id));
    }

    /// `QSBR_Defer` (Algorithm 2 lines 1–3): retire `reclaim`, to run once
    /// every participating thread has observed a state newer than now.
    ///
    /// Bumps the global state epoch, observes the new value on the calling
    /// thread's record, and pushes `(reclaim, new_epoch)` onto its LIFO
    /// defer list. Nothing is freed here; freeing happens at checkpoints.
    pub fn defer(&self, reclaim: impl FnOnce() + Send + 'static) {
        self.defer_with_bytes(0, reclaim);
    }

    /// [`defer`](Self::defer) with an approximate payload size. The size
    /// feeds the backlog-bytes telemetry (`DomainStats::pending_bytes`
    /// and the `rcuarray_qsbr_defer_backlog_bytes` gauge), making the
    /// age/memory trade-off of deferred reclamation observable.
    pub fn defer_with_bytes(&self, bytes: usize, reclaim: impl FnOnce() + Send + 'static) {
        let record = self.record();
        let epoch = self.inner.state.bump();
        record.observe(epoch);
        record.lock_defer().push_with_bytes(epoch, bytes, reclaim);
        self.inner.defers.add(1);
        self.inner
            .defer_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Convenience: retire a value, deferring its `Drop`. The value's
    /// shallow size feeds the backlog-bytes telemetry.
    pub fn defer_drop<T: Send + 'static>(&self, value: T) {
        self.defer_with_bytes(std::mem::size_of::<T>(), move || drop(value));
    }

    /// `QSBR_Checkpoint` (Algorithm 2 lines 4–13): announce quiescence and
    /// reclaim everything now provably unreachable. Returns how many
    /// deferred reclamations ran.
    ///
    /// # Contract
    /// The calling thread must hold **no** references to QSBR-protected
    /// data acquired before this call: "it is not safe to dereference any
    /// memory managed by QSBR if it has been acquired prior to a
    /// checkpoint" (paper §III-B).
    pub fn checkpoint(&self) -> usize {
        let record = self.record();
        // Observe the current state: a promise of quiescence of any
        // earlier state (lines 4–5).
        let observed = self.inner.state.read();
        record.observe(observed);
        self.inner.checkpoints.add(1);
        // Fast path: nothing to reclaim here. The announcement above is the
        // checkpoint's semantic payload; the scan and split only matter
        // when this thread has pending defers or orphans exist. This keeps
        // high-frequency checkpoints (Fig. 4's every-op case) to an epoch
        // load, the uncontended defer-flag swap and a few cheap checks.
        if record.pending() == 0 && !self.inner.registry.has_orphans() {
            return 0;
        }
        // Slow (reclaiming) path: measured — fast-path checkpoints never
        // touch the clock, so Fig. 4's every-op case stays cheap.
        let t0 = rcuarray_obs::enabled().then(std::time::Instant::now);
        // Find the smallest (safest) epoch over all participants
        // (lines 6–8).
        let min = self.inner.registry.min_observed(observed);
        // Split our defer list at the safe boundary and reclaim
        // (lines 9–13).
        let chain: DeferChain = record.lock_defer().pop_less_equal(min);
        let mut freed_bytes = chain.bytes() as u64;
        let mut freed = chain.reclaim_all();
        if self.inner.registry.has_orphans() {
            let (n, b) = self.inner.registry.reclaim_orphans(min);
            freed += n;
            freed_bytes += b as u64;
        }
        // Lag and backlog after this reclaim: how far the slowest
        // participant trails the state epoch, and what that delay
        // keeps alive (the Fig. 2 read-cost/backlog trade-off).
        self.record_reclaim(freed, freed_bytes, min, t0);
        freed
    }

    /// Shared slow-path accounting for reclaiming checkpoints: counters,
    /// then the backlog/lag gauges when telemetry is enabled.
    fn record_reclaim(
        &self,
        freed: usize,
        freed_bytes: u64,
        min: u64,
        t0: Option<std::time::Instant>,
    ) {
        self.inner.reclaimed.add(freed as u64);
        self.inner.reclaimed_bytes.add(freed_bytes);
        if let Some(t0) = t0 {
            OBS_CHECKPOINT_NS.record(t0.elapsed().as_nanos() as u64);
            OBS_EPOCH_LAG.set(self.inner.state.read().saturating_sub(min) as i64);
            let s = self.stats();
            OBS_BACKLOG_ENTRIES.set(s.pending as i64);
            OBS_BACKLOG_BYTES.set(s.pending_bytes as i64);
        }
    }

    /// Park the calling thread: flush what can be freed, hand the rest to
    /// the orphan list, and stop participating in the minimum scan. An
    /// idle thread must not gate other threads' reclamation (paper: parking
    /// "is used to cleanup its own DeferList \[and\] notify of its
    /// quiescence").
    pub fn park(&self) {
        let record = self.record();
        // A checkpoint first: frees everything already safe.
        self.checkpoint();
        // Whatever remains waits for *other* threads; it cannot stay on a
        // parked record (nobody would process it), so the domain adopts it.
        let leftovers = record.lock_defer().take_all();
        self.inner.registry.adopt(leftovers);
        record.set_parked(true);
    }

    /// Unpark the calling thread. Re-observes the current state epoch
    /// before the thread may touch protected data again.
    pub fn unpark(&self) {
        let record = self.record();
        record.set_parked(false);
        record.observe(self.inner.state.read());
    }

    /// Whether the calling thread is currently parked in this domain.
    pub fn is_parked(&self) -> bool {
        self.record().is_parked()
    }

    /// The epoch the calling thread last observed.
    pub fn observed_epoch(&self) -> u64 {
        self.record().observed()
    }

    /// The minimum observed epoch across participants (diagnostics).
    pub fn min_observed(&self) -> u64 {
        self.inner.registry.min_observed(self.inner.state.read())
    }

    /// Pending defers on the calling thread's own list.
    pub fn pending_local(&self) -> usize {
        self.record().pending()
    }

    /// Number of registered, live participants.
    pub fn num_participants(&self) -> usize {
        self.inner.registry.num_participants()
    }

    /// Activity counters.
    pub fn stats(&self) -> DomainStats {
        let defers = self.inner.defers.get();
        let reclaimed = self.inner.reclaimed.get();
        let defer_bytes = self.inner.defer_bytes.load(Ordering::Relaxed);
        let reclaimed_bytes = self.inner.reclaimed_bytes.get();
        DomainStats {
            defers,
            checkpoints: self.inner.checkpoints.get(),
            reclaimed,
            pending: defers.saturating_sub(reclaimed),
            pending_bytes: defer_bytes.saturating_sub(reclaimed_bytes),
        }
    }
}

impl std::fmt::Debug for QsbrDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QsbrDomain")
            .field("id", &self.inner.id)
            .field("state_epoch", &self.state_epoch())
            .field("participants", &self.num_participants())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray_analysis::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn counter_defer(d: &QsbrDomain, c: &Arc<AtomicUsize>) {
        let c = Arc::clone(c);
        d.defer(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
    }

    #[test]
    fn single_thread_defer_then_checkpoint_frees() {
        let d = QsbrDomain::new();
        let c = Arc::new(AtomicUsize::new(0));
        counter_defer(&d, &c);
        assert_eq!(c.load(Ordering::SeqCst), 0, "defer must not free eagerly");
        assert_eq!(d.checkpoint(), 1);
        assert_eq!(c.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn defer_bumps_state_epoch() {
        let d = QsbrDomain::new();
        assert_eq!(d.state_epoch(), 0);
        d.defer(|| {});
        assert_eq!(d.state_epoch(), 1);
        assert_eq!(d.observed_epoch(), 1);
    }

    #[test]
    fn lagging_thread_blocks_reclamation() {
        let d = QsbrDomain::new();
        let c = Arc::new(AtomicUsize::new(0));
        let ready = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));

        let d2 = d.clone();
        let ready2 = Arc::clone(&ready);
        let release2 = Arc::clone(&release);
        let lagger = rcuarray_analysis::thread::spawn(move || {
            d2.register_current_thread(); // observes epoch 0, never checkpoints
            ready2.wait();
            release2.wait();
            d2.checkpoint(); // finally quiesces
        });

        ready.wait();
        counter_defer(&d, &c); // safe epoch 1 > lagger's observed 0
        let freed = d.checkpoint();
        assert_eq!(freed, 0, "lagging thread must gate reclamation");
        assert_eq!(c.load(Ordering::SeqCst), 0);

        release.wait();
        lagger.join().unwrap();
        assert_eq!(d.checkpoint(), 1, "after lagger quiesces, entry frees");
        assert_eq!(c.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn parked_thread_does_not_block_reclamation() {
        let d = QsbrDomain::new();
        let c = Arc::new(AtomicUsize::new(0));
        let parked = Arc::new(Barrier::new(2));
        let done = Arc::new(Barrier::new(2));

        let d2 = d.clone();
        let parked2 = Arc::clone(&parked);
        let done2 = Arc::clone(&done);
        let t = rcuarray_analysis::thread::spawn(move || {
            d2.register_current_thread();
            d2.park();
            parked2.wait();
            done2.wait();
            d2.unpark();
        });

        parked.wait();
        counter_defer(&d, &c);
        assert_eq!(d.checkpoint(), 1, "parked thread is skipped by the min");
        assert_eq!(c.load(Ordering::SeqCst), 1);
        done.wait();
        t.join().unwrap();
    }

    #[test]
    fn park_hands_leftovers_to_orphans_and_they_free() {
        let d = QsbrDomain::new();
        let c = Arc::new(AtomicUsize::new(0));
        let deferred = Arc::new(Barrier::new(2));
        let parked = Arc::new(Barrier::new(2));

        // Main thread lags so the worker's own checkpoint can't free.
        d.register_current_thread();

        let d2 = d.clone();
        let c2 = Arc::clone(&c);
        let deferred2 = Arc::clone(&deferred);
        let parked2 = Arc::clone(&parked);
        let t = rcuarray_analysis::thread::spawn(move || {
            counter_defer(&d2, &c2);
            deferred2.wait();
            d2.park(); // cannot free (main lags): entry goes to orphans
            parked2.wait();
        });

        deferred.wait();
        parked.wait();
        t.join().unwrap();
        assert_eq!(c.load(Ordering::SeqCst), 0);
        // Main quiesces: orphaned entry becomes reclaimable.
        let freed = d.checkpoint();
        assert_eq!(freed, 1);
        assert_eq!(c.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn thread_exit_orphans_pending_defers() {
        let d = QsbrDomain::new();
        let c = Arc::new(AtomicUsize::new(0));
        d.register_current_thread(); // lagging main gates the worker

        let d2 = d.clone();
        let c2 = Arc::clone(&c);
        rcuarray_analysis::thread::spawn(move || {
            counter_defer(&d2, &c2);
            // exits without checkpointing
        })
        .join()
        .unwrap();

        assert_eq!(c.load(Ordering::SeqCst), 0, "exit must not free early");
        assert_eq!(d.checkpoint(), 1, "orphan freed once main quiesces");
        assert_eq!(c.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stats_track_activity() {
        let d = QsbrDomain::new();
        d.defer(|| {});
        d.defer(|| {});
        d.checkpoint();
        let s = d.stats();
        assert_eq!(s.defers, 2);
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.reclaimed, 2);
        assert_eq!(s.pending, 0);
    }

    #[test]
    fn byte_hints_flow_into_pending_bytes() {
        let d = QsbrDomain::new();
        d.defer_with_bytes(4096, || {});
        d.defer_with_bytes(1024, || {});
        assert_eq!(d.stats().pending_bytes, 5120);
        d.checkpoint();
        assert_eq!(d.stats().pending_bytes, 0);
    }

    #[test]
    fn defer_drop_accounts_shallow_size() {
        let d = QsbrDomain::new();
        d.defer_drop([0u8; 64]);
        assert_eq!(d.stats().pending_bytes, 64);
        d.checkpoint();
        assert_eq!(d.stats().pending_bytes, 0);
    }

    #[test]
    fn clones_share_the_domain() {
        let d = QsbrDomain::new();
        let d2 = d.clone();
        assert_eq!(d.id(), d2.id());
        d.defer(|| {});
        assert_eq!(d2.stats().defers, 1);
    }

    #[test]
    fn independent_domains_do_not_interfere() {
        let a = QsbrDomain::new();
        let b = QsbrDomain::new();
        assert_ne!(a.id(), b.id());
        let c = Arc::new(AtomicUsize::new(0));
        counter_defer(&a, &c);
        // A checkpoint on `b` must not free `a`'s entry.
        b.checkpoint();
        assert_eq!(c.load(Ordering::SeqCst), 0);
        a.checkpoint();
        assert_eq!(c.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn many_threads_defer_and_checkpoint_everything_frees() {
        let d = QsbrDomain::new();
        let c = Arc::new(AtomicUsize::new(0));
        const THREADS: usize = 4;
        const OPS: usize = 500;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let d = d.clone();
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..OPS {
                        let c2 = Arc::clone(&c);
                        d.defer(move || {
                            c2.fetch_add(1, Ordering::SeqCst);
                        });
                        if i % 16 == 0 {
                            d.checkpoint();
                        }
                    }
                    // Threads exit; leftovers orphaned.
                });
            }
        });
        // All workers exited. Their TLS destructors (which orphan
        // leftovers) may still be running when `scope` returns, so poll.
        for _ in 0..1000 {
            d.checkpoint();
            if c.load(Ordering::SeqCst) == THREADS * OPS {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(c.load(Ordering::SeqCst), THREADS * OPS);
        assert_eq!(d.stats().pending, 0);
    }

    #[test]
    fn defer_drop_runs_value_drop() {
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let d = QsbrDomain::new();
        let c = Arc::new(AtomicUsize::new(0));
        d.defer_drop(Canary(Arc::clone(&c)));
        d.checkpoint();
        assert_eq!(c.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn is_parked_reflects_state() {
        let d = QsbrDomain::new();
        assert!(!d.is_parked());
        d.park();
        assert!(d.is_parked());
        d.unpark();
        assert!(!d.is_parked());
    }

    #[test]
    fn checkpoint_with_nothing_pending_is_cheap_and_zero() {
        let d = QsbrDomain::new();
        assert_eq!(d.checkpoint(), 0);
        assert_eq!(d.stats().checkpoints, 1);
    }

    #[test]
    fn pressure_config_round_trips() {
        let d = QsbrDomain::new();
        assert!(!d.pressure_config().is_bounded());
        d.set_pressure(rcuarray_reclaim::PressureConfig::bounded(4096));
        assert_eq!(d.pressure_config().max_backlog_bytes, 4096);
        assert_eq!(d.pressure_config().high_watermark, 2048);
    }
}
