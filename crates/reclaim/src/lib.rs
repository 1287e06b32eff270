#![warn(missing_docs)]

//! # rcuarray-reclaim — the unified reclamation core
//!
//! One behavior-carrying trait, [`Reclaim`], is the single answer to
//! "how do I add a reclamation scheme" in this workspace. It realizes
//! the paper's `isQSBR` compile-time parameter as *behavior* rather than
//! a boolean: the read-side protocol lives in a GAT guard type, the
//! write-side protocol in [`retire`](Reclaim::retire), and quiescence in
//! [`quiesce`](Reclaim::quiesce). `RcuArray`, the one RCU cell
//! [`RcuPtr`] (defined here), the collections and the bench harness all
//! consume this one interface; `rcuarray-ebr` and `rcuarray-qsbr`
//! implement it natively on `EpochZone` and `QsbrDomain`.
//!
//! Two further schemes prove the seam is real without touching any
//! consumer: [`LeakReclaim`] (defined here — no-op guards, never frees,
//! the honest upper bound the paper's UnsafeArray plays) and
//! `HazardDomain` in `rcuarray-baselines` (Michael's hazard pointers,
//! which override [`protect`](Reclaim::protect)).
//!
//! ## The contract
//!
//! * A value may be dereferenced through a scheme-protected pointer only
//!   while the guard [`protect`](Reclaim::protect) returned with it is
//!   live. Readers go through `protect`, never a bare load after
//!   [`read_lock`](Reclaim::read_lock): a pointer-based scheme must see
//!   which pointer a reader holds. Schemes whose
//!   [`guards_reads`](Reclaim::guards_reads) is `false` make the guard a
//!   no-op token and protect readers structurally instead — deferral
//!   until quiescence, or never freeing at all.
//! * [`retire`](Reclaim::retire) takes ownership of an unlinked object's
//!   destructor. The scheme chooses *when* to run it: synchronously after
//!   draining readers (EBR, hazard), deferred until a quiescent state
//!   (QSBR), or never (leak).
//! * [`quiesce`](Reclaim::quiesce) announces the calling thread holds no
//!   protected pointers, returning how many retired objects were freed.
//!   Synchronous schemes return 0.
//!
//! ## Robustness (DESIGN.md §9)
//!
//! Epoch schemes are classically fragile: one stalled reader blocks
//! reclamation forever and the backlog grows without bound. Two knobs
//! bound the damage:
//!
//! * [`PressureConfig`] puts a byte budget on the backlog. Past the
//!   [`high_watermark`](PressureConfig::high_watermark) a retiring writer
//!   *helps reclaim* (a forced [`quiesce`](Reclaim::quiesce)); past the
//!   hard [`max_backlog_bytes`](PressureConfig::max_backlog_bytes) cap,
//!   [`try_retire`](Reclaim::try_retire) degrades gracefully to
//!   `Err(`[`Backpressure`]`)` and
//!   [`retire_or_quiesce`](Reclaim::retire_or_quiesce) is the blocking
//!   fallback.
//! * [`StallPolicy`] tells a scheme when a non-progressing participant
//!   counts as *stalled*: QSBR quarantines it (force-park), EBR flips the
//!   writer into an evacuation epoch instead of spinning forever.

use rcuarray_analysis::atomic::{AtomicPtr, AtomicU64, Ordering};
use rcuarray_obs::LazyCounter;

mod rcu_ptr;

pub use rcu_ptr::RcuPtr;

// Process-wide pressure telemetry (the per-scheme stats carry the
// scheme-local view; these are the totals across every scheme).
static OBS_FORCED_DRAINS: LazyCounter = LazyCounter::new(
    "rcuarray_reclaim_forced_drains_total",
    "writer-help drains forced by backlog pressure past the high watermark",
);
static OBS_BACKPRESSURE: LazyCounter = LazyCounter::new(
    "rcuarray_reclaim_backpressure_total",
    "try_retire rejections at the hard backlog-bytes cap",
);
static OBS_CAP_OVERRUNS: LazyCounter = LazyCounter::new(
    "rcuarray_reclaim_cap_overruns_total",
    "retire_or_quiesce escapes past the cap after quiescing made no progress",
);

/// Process-wide pressure event totals:
/// `(forced_drains, backpressure_rejections, cap_overruns)`. Exposed so
/// tests can check the cost of robustness without parsing the metrics
/// registry.
pub fn pressure_event_totals() -> (u64, u64, u64) {
    (
        OBS_FORCED_DRAINS.value(),
        OBS_BACKPRESSURE.value(),
        OBS_CAP_OVERRUNS.value(),
    )
}

/// A retired object: an unlinked allocation's destructor, plus the
/// accounting hints schemes key on.
///
/// The byte hint feeds backlog gauges (QSBR's `pending_bytes`); the
/// address hint lets pointer-scanning schemes (hazard pointers) wait for
/// the exact retired pointer to evacuate. Schemes that need neither
/// simply ignore them.
pub struct Retired {
    bytes: usize,
    addr: usize,
    run: Box<dyn FnOnce() + Send>,
    /// Shadow-heap identity (fresh id, never the address) for the
    /// checker's reclamation-lifecycle oracle. `None` for untracked
    /// retireds — production code pays nothing for the field.
    #[cfg(feature = "check")]
    shadow: Option<rcuarray_analysis::shadow::ShadowId>,
}

impl Retired {
    /// A retired object with no accounting hints.
    pub fn new(run: impl FnOnce() + Send + 'static) -> Self {
        Self::with_hint(0, 0, run)
    }

    /// A retired object carrying an approximate heap footprint.
    pub fn with_bytes(bytes: usize, run: impl FnOnce() + Send + 'static) -> Self {
        Self::with_hint(bytes, 0, run)
    }

    /// A retired object carrying both a byte footprint and the retired
    /// pointer's address (for hazard-style scanning schemes).
    pub fn with_hint(bytes: usize, addr: usize, run: impl FnOnce() + Send + 'static) -> Self {
        Retired {
            bytes,
            addr,
            run: Box::new(run),
            #[cfg(feature = "check")]
            shadow: None,
        }
    }

    /// Attach a shadow-heap identity: the object transitions
    /// `Live → Retired` in the oracle now, and its destructor — however
    /// the scheme runs it ([`run`](Self::run), [`into_parts`](Self::into_parts)
    /// or [`leak`](Self::leak)) — reports the matching lifecycle edge.
    /// Double-retire, double-reclaim, reclaim-without-retire and
    /// retired-but-never-reclaimed (leak accounting) all become
    /// deterministic checker reports.
    #[cfg(feature = "check")]
    pub fn tracked(mut self, id: rcuarray_analysis::shadow::ShadowId) -> Self {
        rcuarray_analysis::shadow::on_retire(id);
        self.shadow = Some(id);
        self
    }

    /// Approximate heap footprint of the retired object.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Address of the retired allocation (0 when the retirer provided
    /// none).
    #[inline]
    pub fn addr(&self) -> usize {
        self.addr
    }

    /// Run the destructor now (the scheme has proven no reader holds the
    /// object).
    #[inline]
    pub fn run(self) {
        // The oracle transitions to Reclaimed *before* the destructor
        // body: the scheme has committed to freeing, so any tracked read
        // interleaved past this point is already a protocol violation.
        #[cfg(feature = "check")]
        if let Some(id) = self.shadow {
            rcuarray_analysis::shadow::on_reclaim(id);
        }
        (self.run)()
    }

    /// Decompose into `(bytes, destructor)` for schemes that thread the
    /// byte hint through their own defer machinery.
    #[inline]
    pub fn into_parts(self) -> (usize, Box<dyn FnOnce() + Send>) {
        #[cfg(feature = "check")]
        if let Some(id) = self.shadow {
            let run = self.run;
            return (
                self.bytes,
                Box::new(move || {
                    rcuarray_analysis::shadow::on_reclaim(id);
                    run();
                }),
            );
        }
        (self.bytes, self.run)
    }

    /// Leak the retired object: the destructor is forgotten, never run.
    /// Only [`LeakReclaim`]-style schemes call this — it is what makes
    /// their unguarded readers sound.
    #[inline]
    pub fn leak(self) {
        // Deliberate leaks drop out of the oracle's leak accounting.
        #[cfg(feature = "check")]
        if let Some(id) = self.shadow {
            rcuarray_analysis::shadow::on_leak(id);
        }
        std::mem::forget(self.run);
    }
}

impl std::fmt::Debug for Retired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Retired")
            .field("bytes", &self.bytes)
            .field("addr", &self.addr)
            .finish()
    }
}

/// A byte budget on a scheme's retirement backlog (DESIGN.md §9).
///
/// Both thresholds are approximate: the backlog is measured through the
/// byte hints on [`Retired`], and a single retire may overshoot either
/// threshold by its own size ("one retire of slack").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureConfig {
    /// Hard cap: once `pending_bytes` reaches this,
    /// [`try_retire`](Reclaim::try_retire) refuses with [`Backpressure`].
    /// `u64::MAX` disables the cap.
    pub max_backlog_bytes: u64,
    /// Soft threshold: a retire that would push `pending_bytes` past this
    /// first makes the *writer help reclaim* (one forced
    /// [`quiesce`](Reclaim::quiesce)). `u64::MAX` disables helping.
    pub high_watermark: u64,
}

impl PressureConfig {
    /// No pressure: retires never drain or reject (the pre-robustness
    /// behavior, and the default everywhere).
    pub const fn unbounded() -> Self {
        PressureConfig {
            max_backlog_bytes: u64::MAX,
            high_watermark: u64::MAX,
        }
    }

    /// A hard cap with the watermark at half of it — writers start helping
    /// at 50% occupancy, rejections begin at 100%.
    pub const fn bounded(max_backlog_bytes: u64) -> Self {
        PressureConfig {
            max_backlog_bytes,
            high_watermark: max_backlog_bytes / 2,
        }
    }

    /// Whether any threshold is active.
    #[inline]
    pub fn is_bounded(&self) -> bool {
        self.max_backlog_bytes != u64::MAX || self.high_watermark != u64::MAX
    }

    /// Validate invariants (positive cap, watermark not above the cap).
    pub fn validate(&self) {
        assert!(
            self.max_backlog_bytes > 0,
            "max_backlog_bytes must be positive: a zero cap rejects every retire"
        );
        assert!(
            self.high_watermark <= self.max_backlog_bytes,
            "high_watermark above max_backlog_bytes would reject before helping"
        );
    }
}

impl Default for PressureConfig {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// When a non-progressing participant counts as *stalled* (DESIGN.md §9).
///
/// Progress is measured in protocol events, never wall clock, so stall
/// detection stays deterministic under the `rcuarray-analysis` checker:
/// QSBR compares epoch lag plus a monotonic tick counter advanced by
/// reclaiming checkpoints; EBR counts writer backoff steps against a
/// parity counter that never drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallPolicy {
    /// QSBR: a participant whose observed epoch trails the state epoch by
    /// at least this many epochs is a quarantine candidate. `u64::MAX`
    /// disables stall detection entirely.
    pub lag_epochs: u64,
    /// How long a candidate must additionally fail to make progress
    /// before it is declared stalled: QSBR counts domain ticks since the
    /// participant's last progress stamp; EBR counts writer backoff
    /// snoozes against the non-draining parity counter (`u64::MAX` means
    /// the EBR writer waits forever — the classic protocol).
    pub patience: u64,
}

impl StallPolicy {
    /// No stall detection (the pre-robustness behavior, and the default).
    pub const fn disabled() -> Self {
        StallPolicy {
            lag_epochs: u64::MAX,
            patience: u64::MAX,
        }
    }

    /// Detect stalls after `lag_epochs` of epoch lag and `patience`
    /// progress-free ticks/snoozes.
    pub const fn after(lag_epochs: u64, patience: u64) -> Self {
        StallPolicy {
            lag_epochs,
            patience,
        }
    }

    /// Whether QSBR-style lag detection is active.
    #[inline]
    pub fn detects_lag(&self) -> bool {
        self.lag_epochs != u64::MAX
    }

    /// Whether EBR-style bounded waiting is active.
    #[inline]
    pub fn bounds_waits(&self) -> bool {
        self.patience != u64::MAX
    }
}

impl Default for StallPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The backlog is at its hard cap: the scheme refused to take the object.
/// Ownership comes back to the caller via
/// [`into_retired`](Backpressure::into_retired) so nothing is leaked.
pub struct Backpressure {
    /// Approximate backlog bytes at the moment of rejection.
    pub pending_bytes: u64,
    /// The cap that was hit.
    pub max_backlog_bytes: u64,
    retired: Retired,
}

impl Backpressure {
    /// Recover the rejected object to retry, quiesce, or leak explicitly.
    pub fn into_retired(self) -> Retired {
        self.retired
    }
}

impl std::fmt::Debug for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backpressure")
            .field("pending_bytes", &self.pending_bytes)
            .field("max_backlog_bytes", &self.max_backlog_bytes)
            .finish()
    }
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retirement backlog at capacity: {} pending bytes >= {} cap",
            self.pending_bytes, self.max_backlog_bytes
        )
    }
}

/// Scheme-agnostic reclamation counters, the per-scheme stats hook of the
/// unified trait. Each scheme fills the fields that mean something for it
/// and leaves the rest zero.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Read-side guard acquisitions (EBR pins, hazard protections; zero
    /// for schemes whose guards are free).
    pub guards: u64,
    /// Read-side protocol retries (EBR's read-increment-verify loop,
    /// hazard re-validations).
    pub guard_retries: u64,
    /// Writer-side epoch advances (EBR).
    pub advances: u64,
    /// Objects handed to [`Reclaim::retire`].
    pub retired: u64,
    /// Retired objects whose destructors have run.
    pub reclaimed: u64,
    /// Retired objects not yet reclaimed (`retired - reclaimed`; for a
    /// leaking scheme this equals `retired` forever).
    pub pending: u64,
    /// Approximate bytes awaiting reclamation.
    pub pending_bytes: u64,
    /// How many epochs the slowest participant trails the writer (QSBR's
    /// `state_epoch - min_observed`; zero for synchronous schemes).
    pub epoch_lag: u64,
    /// Stall events the scheme has observed: quarantined participants for
    /// QSBR, writer waits that hit the stall bound for EBR.
    pub stalled: u64,
    /// Guards released while their thread was unwinding from a panic.
    pub guard_panics: u64,
    /// True when these counters are domain-global rather than
    /// per-instance: merging takes the elementwise maximum instead of
    /// summing, so cloned handles of one shared domain are not
    /// multiple-counted.
    pub domain_wide: bool,
}

impl ReclaimStats {
    /// Combine stats from several per-locale reclaimer instances:
    /// per-instance counters sum, domain-wide counters (every instance
    /// reports the same shared domain) take the maximum.
    pub fn merge(self, other: ReclaimStats) -> ReclaimStats {
        if self.domain_wide || other.domain_wide {
            ReclaimStats {
                guards: self.guards.max(other.guards),
                guard_retries: self.guard_retries.max(other.guard_retries),
                advances: self.advances.max(other.advances),
                retired: self.retired.max(other.retired),
                reclaimed: self.reclaimed.max(other.reclaimed),
                pending: self.pending.max(other.pending),
                pending_bytes: self.pending_bytes.max(other.pending_bytes),
                epoch_lag: self.epoch_lag.max(other.epoch_lag),
                stalled: self.stalled.max(other.stalled),
                guard_panics: self.guard_panics.max(other.guard_panics),
                domain_wide: true,
            }
        } else {
            ReclaimStats {
                guards: self.guards + other.guards,
                guard_retries: self.guard_retries + other.guard_retries,
                advances: self.advances + other.advances,
                retired: self.retired + other.retired,
                reclaimed: self.reclaimed + other.reclaimed,
                pending: self.pending + other.pending,
                pending_bytes: self.pending_bytes + other.pending_bytes,
                epoch_lag: self.epoch_lag.max(other.epoch_lag),
                stalled: self.stalled + other.stalled,
                guard_panics: self.guard_panics + other.guard_panics,
                domain_wide: false,
            }
        }
    }
}

/// A memory reclamation scheme: the read-side protocol as a guard type,
/// the write-side protocol as [`retire`](Self::retire), quiescence as
/// [`quiesce`](Self::quiesce). See the [module docs](self) for the
/// contract.
pub trait Reclaim: Send + Sync + 'static {
    /// RAII read-side critical section. Protected pointers may be
    /// dereferenced only while a guard is live. Schemes with free reads
    /// (QSBR, leak) use a zero-sized token.
    type Guard<'a>
    where
        Self: 'a;

    /// Enter a read-side critical section.
    fn read_lock(&self) -> Self::Guard<'_>;

    /// Enter a read-side critical section and load the pointer published
    /// in `src`; the returned pointer may be dereferenced while the guard
    /// is live. This is the one read step every scheme can serve:
    /// epoch-style schemes protect everything a guard-holder loads, so the
    /// default is [`read_lock`](Self::read_lock) followed by one `Acquire`
    /// load; pointer-based schemes (hazard pointers) override it with
    /// their publish-then-revalidate loop.
    ///
    /// Always inlined so the default compiles to exactly the sequence a
    /// reader ran before this step existed: the `read_lock` call, then
    /// the load in the caller — no guard/pointer pair through memory.
    #[inline(always)]
    fn protect<'a, T>(&'a self, src: &AtomicPtr<T>) -> (Self::Guard<'a>, *mut T) {
        let guard = self.read_lock();
        // Loaded only after the guard is live: the guard obliges writers
        // to keep whatever this load returns alive until it drops.
        (guard, src.load(Ordering::Acquire))
    }

    /// Hand over an unlinked object; the scheme frees it once no reader
    /// can hold it (possibly before returning, possibly never).
    fn retire(&self, retired: Retired);

    /// Announce a quiescent state for the calling thread and drain
    /// whatever the scheme's policy allows. Returns the number of retired
    /// objects freed by this call (0 for synchronous schemes).
    fn quiesce(&self) -> usize;

    /// Whether readers must hold a guard for safety. `false` means the
    /// guard is advisory (participation registration) and reads are
    /// structurally protected.
    fn guards_reads(&self) -> bool;

    /// Scheme name for harness output ("ebr", "qsbr", "leak", ...).
    fn name(&self) -> &'static str;

    /// Current counters. Named `reclaim_stats` (not `stats`) so inherent
    /// `stats()` methods on implementing types stay unambiguous.
    fn reclaim_stats(&self) -> ReclaimStats;

    /// The scheme's configured backlog budget. The default is unbounded;
    /// schemes with a configurable backlog override this.
    #[inline]
    fn pressure(&self) -> PressureConfig {
        PressureConfig::unbounded()
    }

    /// [`retire`](Self::retire) under the scheme's [`PressureConfig`]:
    /// past the high watermark the calling writer first helps reclaim
    /// (one forced [`quiesce`](Self::quiesce)); at the hard cap the
    /// object is handed back inside `Err(`[`Backpressure`]`)` instead of
    /// growing the backlog further.
    ///
    /// With the default unbounded pressure this is exactly `retire` (and
    /// costs nothing extra). A single accepted retire may overshoot the
    /// cap by its own size — the "one retire of slack" contract.
    fn try_retire(&self, retired: Retired) -> Result<(), Backpressure> {
        let p = self.pressure();
        if !p.is_bounded() {
            self.retire(retired);
            return Ok(());
        }
        let mut pending = self.reclaim_stats().pending_bytes;
        if pending.saturating_add(retired.bytes() as u64) > p.high_watermark {
            // Writer-help: drain before adding to the backlog.
            self.quiesce();
            OBS_FORCED_DRAINS.inc();
            pending = self.reclaim_stats().pending_bytes;
        }
        if pending >= p.max_backlog_bytes {
            OBS_BACKPRESSURE.inc();
            return Err(Backpressure {
                pending_bytes: pending,
                max_backlog_bytes: p.max_backlog_bytes,
                retired,
            });
        }
        self.retire(retired);
        Ok(())
    }

    /// Blocking fallback for [`try_retire`](Self::try_retire): quiesce
    /// and retry until the backlog drops below the cap. Returns the
    /// number of objects freed while waiting.
    ///
    /// Liveness escape: if two consecutive quiesces free nothing (the
    /// backlog is gated by something this thread cannot drain — e.g. an
    /// EBR reader pinned forever), the object is retired anyway rather
    /// than deadlocking the writer; the overshoot is counted in the
    /// `rcuarray_reclaim_cap_overruns_total` metric. Under stall
    /// detection ([`StallPolicy`]) the gating participant is eventually
    /// quarantined, so the escape only fires when detection is off or
    /// the stall is undetectable.
    fn retire_or_quiesce(&self, retired: Retired) -> usize {
        let mut freed = 0usize;
        let mut r = retired;
        let mut dry = 0u32;
        loop {
            match self.try_retire(r) {
                Ok(()) => return freed,
                Err(bp) => {
                    r = bp.into_retired();
                    let n = self.quiesce();
                    freed += n;
                    if n == 0 {
                        dry += 1;
                        if dry >= 2 {
                            OBS_CAP_OVERRUNS.inc();
                            self.retire(r);
                            return freed;
                        }
                        rcuarray_analysis::thread::yield_now();
                    } else {
                        dry = 0;
                    }
                }
            }
        }
    }
}

/// The never-free scheme: guards are no-ops, retired objects are leaked.
///
/// This is the paper's *UnsafeArray* upper bound made honest: running the
/// identical `RcuArray` code path with zero read-side cost and zero
/// reclamation, it prices exactly what EBR/QSBR protection costs — and it
/// is *safe*, because never freeing is what makes unguarded readers
/// sound. Memory grows monotonically with retirement; use only for
/// benchmarking and bounded test runs.
///
/// Because nothing ever frees, a [`PressureConfig`] cap on a leaking
/// scheme is a *retirement budget*: once the leaked bytes reach the cap,
/// [`try_retire`](Reclaim::try_retire) rejects — which is what keeps the
/// chaos suite's leak runs memory-bounded.
#[derive(Debug)]
pub struct LeakReclaim {
    retired: AtomicU64,
    retired_bytes: AtomicU64,
    // Stored as atomics only so the shared handle stays `Sync`; set once
    // at construction/configuration, read on the (cold) retire path.
    cap_bytes: AtomicU64,
    watermark_bytes: AtomicU64,
}

impl Default for LeakReclaim {
    fn default() -> Self {
        Self::new()
    }
}

impl LeakReclaim {
    /// A fresh leaking reclaimer with no retirement budget.
    pub fn new() -> Self {
        Self::with_pressure(PressureConfig::unbounded())
    }

    /// A leaking reclaimer with a retirement budget.
    pub fn with_pressure(pressure: PressureConfig) -> Self {
        LeakReclaim {
            retired: AtomicU64::new(0),
            retired_bytes: AtomicU64::new(0),
            cap_bytes: AtomicU64::new(pressure.max_backlog_bytes),
            watermark_bytes: AtomicU64::new(pressure.high_watermark),
        }
    }

    /// Replace the retirement budget.
    pub fn set_pressure(&self, pressure: PressureConfig) {
        pressure.validate();
        self.cap_bytes
            .store(pressure.max_backlog_bytes, Ordering::SeqCst);
        self.watermark_bytes
            .store(pressure.high_watermark, Ordering::SeqCst);
    }
}

impl Reclaim for LeakReclaim {
    type Guard<'a> = ();

    #[inline]
    fn read_lock(&self) -> Self::Guard<'_> {}

    fn retire(&self, retired: Retired) {
        // SeqCst: these are cold (one per resize) correctness counters —
        // the monotone-defer assertion in the checker harness reads them
        // cross-thread.
        self.retired.fetch_add(1, Ordering::SeqCst);
        self.retired_bytes
            .fetch_add(retired.bytes() as u64, Ordering::SeqCst);
        retired.leak();
    }

    #[inline]
    fn quiesce(&self) -> usize {
        0
    }

    #[inline]
    fn guards_reads(&self) -> bool {
        false
    }

    #[inline]
    fn name(&self) -> &'static str {
        "leak"
    }

    fn reclaim_stats(&self) -> ReclaimStats {
        let retired = self.retired.load(Ordering::SeqCst);
        ReclaimStats {
            retired,
            pending: retired,
            pending_bytes: self.retired_bytes.load(Ordering::SeqCst),
            ..ReclaimStats::default()
        }
    }

    fn pressure(&self) -> PressureConfig {
        PressureConfig {
            max_backlog_bytes: self.cap_bytes.load(Ordering::SeqCst),
            high_watermark: self.watermark_bytes.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray_analysis::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn retired_runs_exactly_once() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let r = Retired::with_bytes(64, move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(r.bytes(), 64);
        assert_eq!(r.addr(), 0);
        r.run();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn retired_into_parts_preserves_the_closure() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let (bytes, run) = Retired::with_hint(8, 0xdead, move || {
            h.fetch_add(1, Ordering::SeqCst);
        })
        .into_parts();
        assert_eq!(bytes, 8);
        run();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn leak_never_runs_destructors_and_counts_monotonically() {
        struct Canary(Arc<AtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let leak = LeakReclaim::new();
        for i in 0..10u64 {
            let c = Canary(Arc::clone(&drops));
            leak.retire(Retired::with_bytes(16, move || drop(c)));
            let s = leak.reclaim_stats();
            assert_eq!(s.retired, i + 1, "defer count must be monotone");
            assert_eq!(s.pending, i + 1);
            assert_eq!(s.reclaimed, 0);
        }
        assert_eq!(leak.quiesce(), 0, "quiesce frees nothing");
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "LeakReclaim must never run a destructor"
        );
        assert_eq!(leak.reclaim_stats().pending_bytes, 160);
        assert!(!leak.guards_reads());
        assert_eq!(leak.name(), "leak");
        // Guard is a free token.
        leak.read_lock();
    }

    #[test]
    fn merge_sums_per_instance_counters() {
        let a = ReclaimStats {
            guards: 3,
            retired: 2,
            ..Default::default()
        };
        let b = ReclaimStats {
            guards: 4,
            retired: 1,
            epoch_lag: 5,
            ..Default::default()
        };
        let m = a.merge(b);
        assert_eq!(m.guards, 7);
        assert_eq!(m.retired, 3);
        assert_eq!(m.epoch_lag, 5, "lag is a maximum even when summing");
        assert!(!m.domain_wide);
    }

    #[test]
    fn merge_takes_max_for_domain_wide_counters() {
        let a = ReclaimStats {
            retired: 10,
            pending: 4,
            domain_wide: true,
            ..Default::default()
        };
        let m = a.merge(a);
        assert_eq!(m.retired, 10, "shared domain must not be double-counted");
        assert_eq!(m.pending, 4);
        assert!(m.domain_wide);
    }

    #[test]
    fn trait_is_usable_behind_a_generic() {
        fn churn<R: Reclaim>(r: &R) -> u64 {
            let _g = r.read_lock();
            r.retire(Retired::new(|| {}));
            r.quiesce();
            r.reclaim_stats().retired
        }
        assert_eq!(churn(&LeakReclaim::new()), 1);
    }

    #[test]
    fn pressure_config_constructors_and_validation() {
        let p = PressureConfig::unbounded();
        assert!(!p.is_bounded());
        p.validate();
        let b = PressureConfig::bounded(1024);
        assert!(b.is_bounded());
        assert_eq!(b.high_watermark, 512);
        b.validate();
    }

    #[test]
    #[should_panic(expected = "watermark")]
    fn pressure_watermark_above_cap_rejected() {
        PressureConfig {
            max_backlog_bytes: 10,
            high_watermark: 11,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn pressure_zero_cap_rejected() {
        PressureConfig {
            max_backlog_bytes: 0,
            high_watermark: 0,
        }
        .validate();
    }

    #[test]
    fn stall_policy_flags() {
        let off = StallPolicy::disabled();
        assert!(!off.detects_lag());
        assert!(!off.bounds_waits());
        let on = StallPolicy::after(4, 2);
        assert!(on.detects_lag());
        assert!(on.bounds_waits());
    }

    #[test]
    fn unbounded_try_retire_is_plain_retire() {
        let leak = LeakReclaim::new();
        assert!(leak.try_retire(Retired::with_bytes(1 << 40, || {})).is_ok());
    }

    #[test]
    fn try_retire_rejects_at_the_cap_and_hands_the_object_back() {
        let leak = LeakReclaim::with_pressure(PressureConfig {
            max_backlog_bytes: 100,
            high_watermark: 100,
        });
        // First retire may overshoot the cap by its own size (slack).
        assert!(leak.try_retire(Retired::with_bytes(100, || {})).is_ok());
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let err = leak
            .try_retire(Retired::with_bytes(8, move || {
                h.fetch_add(1, Ordering::SeqCst);
            }))
            .expect_err("backlog at cap must reject");
        assert_eq!(err.pending_bytes, 100);
        assert_eq!(err.max_backlog_bytes, 100);
        // Ownership comes back: run the destructor ourselves.
        err.into_retired().run();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // The rejected retire never entered the backlog.
        assert_eq!(leak.reclaim_stats().pending_bytes, 100);
    }

    #[test]
    fn retire_or_quiesce_escapes_when_nothing_can_drain() {
        // A leaking scheme can never drain; the blocking fallback must
        // not deadlock — it retires past the cap and reports 0 freed.
        let leak = LeakReclaim::with_pressure(PressureConfig::bounded(64));
        leak.retire(Retired::with_bytes(64, || {}));
        assert_eq!(leak.retire_or_quiesce(Retired::with_bytes(8, || {})), 0);
        assert_eq!(leak.reclaim_stats().pending_bytes, 72);
    }

    #[test]
    fn backpressure_formats_both_numbers() {
        let leak = LeakReclaim::with_pressure(PressureConfig {
            max_backlog_bytes: 10,
            high_watermark: 10,
        });
        leak.retire(Retired::with_bytes(10, || {}));
        let err = leak.try_retire(Retired::new(|| {})).unwrap_err();
        let s = format!("{err} / {err:?}");
        assert!(s.contains("10"));
    }

    #[test]
    fn merge_sums_robustness_counters_per_instance() {
        let a = ReclaimStats {
            stalled: 1,
            guard_panics: 2,
            ..Default::default()
        };
        let m = a.merge(a);
        assert_eq!(m.stalled, 2);
        assert_eq!(m.guard_panics, 4);
    }
}
