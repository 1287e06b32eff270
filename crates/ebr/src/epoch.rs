//! The epoch zone: `GlobalEpoch` plus the two collective `EpochReaders`
//! counters (paper Listing 1 and Algorithm 1).

use crate::backoff::Backoff;
use crate::ordering::OrderingMode;
use rcuarray_analysis::atomic::{AtomicU64, Ordering};
use rcuarray_obs::{LazyCounter, ScopedCounter};
use rcuarray_reclaim::{PressureConfig, Retired, StallPolicy};
use std::sync::Mutex;

// Telemetry (see DESIGN.md §7). Each zone holds a scoped counter per
// event: one call feeds its `ZoneStats` count and the process-wide
// total. Successful pins are deliberately *not* in the registry — they
// are the per-read hot path; retries and advances are the
// contended/cold events the paper's Fig. 2 analysis needs.
static OBS_RETRIES: LazyCounter = LazyCounter::new(
    "rcuarray_ebr_pin_retries_total",
    "read-increment-verify pin attempts that lost an epoch advance and retried",
);
static OBS_ADVANCES: LazyCounter =
    LazyCounter::new("rcuarray_ebr_advances_total", "writer epoch advances");
static OBS_STALLED: LazyCounter = LazyCounter::new(
    "rcuarray_ebr_stalled_waits_total",
    "writer drains that hit the stall bound and evacuated instead of spinning",
);
static OBS_EVAC_DRAINS: LazyCounter = LazyCounter::new(
    "rcuarray_ebr_evacuations_drained_total",
    "evacuated retirements freed after both parity counters drained",
);
static OBS_GUARD_PANICS: LazyCounter = LazyCounter::new(
    "rcuarray_ebr_guard_panics_total",
    "epoch guards released while their thread was unwinding from a panic",
);

/// Pad to a cache line so the two reader counters and the epoch never
/// false-share — they are the hottest words in the whole system.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Padded(AtomicU64);

/// Counters exposed for inspection and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoneStats {
    /// Successful reader pins.
    pub pins: u64,
    /// Pin attempts that lost the race with a concurrent epoch advance and
    /// had to undo-and-retry (Algorithm 1 line 17).
    pub retries: u64,
    /// Writer epoch advances.
    pub advances: u64,
    /// Writer drains that exhausted the stall bound and evacuated the
    /// retirement instead of spinning forever.
    pub stalled: u64,
    /// Evacuated retirements still waiting for both parity counters to
    /// drain.
    pub evac_pending: u64,
    /// Approximate bytes held by pending evacuations.
    pub evac_pending_bytes: u64,
    /// Guards released while their thread was unwinding from a panic.
    pub guard_panics: u64,
}

/// A retirement the writer could not free synchronously because a reader
/// on the old parity never drained. It is freed once *each* parity
/// counter has been observed at zero at some point after the entry's
/// epoch advance: every reader that could hold the unlinked object was
/// pinned before that advance and is counted on one of the two parities
/// continuously until it unpins, so two zero observations prove every
/// such reader has left. (Readers pinning *after* the advance — on
/// either parity — pinned after the unlink and cannot reach the object;
/// they only delay the zero observation, never break it.)
struct EvacEntry {
    retired: Retired,
    /// `need[p]`: parity counter `p` has not yet been observed at zero
    /// since this entry was created.
    need: [bool; 2],
}

impl std::fmt::Debug for EvacEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvacEntry")
            .field("bytes", &self.retired.bytes())
            .field("need", &self.need)
            .finish()
    }
}

/// A TLS-free EBR zone: one `GlobalEpoch` and two parity-indexed
/// `EpochReaders` counters.
///
/// This corresponds to the `GlobalEpoch`/`EpochReaders` fields of the
/// paper's privatized `RCUArrayMetaData` (Listing 1): RCUArray embeds one
/// zone per locale. The zone knows nothing about *what* it protects; it
/// only implements the reader announcement protocol and the writer's
/// drain-and-advance. Pair it with an `AtomicPtr` (see
/// [`crate::RcuPtr`]) or any other single-writer published structure.
#[derive(Debug)]
pub struct EpochZone {
    global_epoch: Padded,
    readers: [Padded; 2],
    mode: OrderingMode,
    pins: Padded,
    retries: ScopedCounter,
    advances: ScopedCounter,
    // --- robustness state (DESIGN.md §9), all cold-path ---
    /// Snooze bound for [`try_wait_for_readers`](Self::try_wait_for_readers)
    /// (`u64::MAX` = wait forever, the classic protocol).
    stall_spins: AtomicU64,
    stall_lag: AtomicU64,
    /// [`PressureConfig`] fields (`u64::MAX` = unbounded).
    cap_bytes: AtomicU64,
    watermark_bytes: AtomicU64,
    /// Retirements evacuated by stalled drains, waiting for both parity
    /// counters to drain. Mirrored into `evac_count`/`evac_bytes` so
    /// stats never take the lock.
    evac: Mutex<Vec<EvacEntry>>,
    evac_count: AtomicU64,
    evac_bytes: AtomicU64,
    retires: AtomicU64,
    stalled: ScopedCounter,
    guard_panics: ScopedCounter,
}

/// Proof that a reader is announced on a parity counter. Must be returned
/// to [`EpochZone::unpin`]; dropping it without unpinning would wedge every
/// future writer. Prefer the RAII [`crate::EpochGuard`].
#[must_use = "an un-unpinned ticket blocks writers forever"]
#[derive(Debug)]
pub struct ReadTicket {
    /// Parity index the reader announced on.
    pub(crate) idx: usize,
    /// The epoch the reader observed and verified.
    pub(crate) epoch: u64,
}

impl ReadTicket {
    /// The epoch this reader linearized at.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The parity counter this reader is recorded on.
    #[inline]
    pub fn parity(&self) -> usize {
        self.idx
    }
}

impl Default for EpochZone {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochZone {
    /// A zone at epoch 0 with the paper's `SeqCst` protocol ordering.
    pub fn new() -> Self {
        Self::with_mode(OrderingMode::SeqCst)
    }

    /// A zone using a specific [`OrderingMode`]: the seeded-mutation seam
    /// the model-checker suites use to build a `Relaxed` (broken) zone.
    pub fn with_mode(mode: OrderingMode) -> Self {
        EpochZone {
            global_epoch: Padded::default(),
            readers: [Padded::default(), Padded::default()],
            mode,
            pins: Padded::default(),
            retries: OBS_RETRIES.scoped(),
            advances: OBS_ADVANCES.scoped(),
            stall_spins: AtomicU64::new(u64::MAX),
            stall_lag: AtomicU64::new(u64::MAX),
            cap_bytes: AtomicU64::new(u64::MAX),
            watermark_bytes: AtomicU64::new(u64::MAX),
            evac: Mutex::new(Vec::new()),
            evac_count: AtomicU64::new(0),
            evac_bytes: AtomicU64::new(0),
            retires: AtomicU64::new(0),
            stalled: OBS_STALLED.scoped(),
            guard_panics: OBS_GUARD_PANICS.scoped(),
        }
    }

    /// Install a stall policy. `patience` bounds how many backoff snoozes
    /// a writer's drain spends on a parity counter before declaring the
    /// reader stalled and *evacuating* the retirement instead of spinning
    /// forever; [`StallPolicy::disabled`] (the default) restores the
    /// classic wait-forever protocol.
    pub fn set_stall_policy(&self, policy: StallPolicy) {
        self.stall_spins.store(policy.patience, Ordering::SeqCst);
        self.stall_lag.store(policy.lag_epochs, Ordering::SeqCst);
    }

    /// The currently installed stall policy.
    pub fn stall_policy(&self) -> StallPolicy {
        StallPolicy {
            lag_epochs: self.stall_lag.load(Ordering::SeqCst),
            patience: self.stall_spins.load(Ordering::SeqCst),
        }
    }

    /// Install a backlog byte budget over the evacuation list;
    /// [`PressureConfig::unbounded`] (the default) disables it.
    pub fn set_pressure(&self, pressure: PressureConfig) {
        pressure.validate();
        self.cap_bytes
            .store(pressure.max_backlog_bytes, Ordering::SeqCst);
        self.watermark_bytes
            .store(pressure.high_watermark, Ordering::SeqCst);
    }

    /// The currently installed backlog budget.
    pub fn pressure_config(&self) -> PressureConfig {
        PressureConfig {
            max_backlog_bytes: self.cap_bytes.load(Ordering::SeqCst),
            high_watermark: self.watermark_bytes.load(Ordering::SeqCst),
        }
    }

    /// Current epoch value.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.global_epoch.0.load(self.mode.load())
    }

    /// Number of announced readers on a parity counter (0 or 1).
    #[inline]
    pub fn readers_on(&self, parity: usize) -> u64 {
        self.readers[parity & 1].0.load(Ordering::Acquire)
    }

    /// Force the epoch to an arbitrary value. Exists so tests can start the
    /// zone one step from integer overflow and exercise the wrap-around of
    /// paper Lemma 2; not part of the protocol.
    pub fn set_epoch_for_test(&self, epoch: u64) {
        self.global_epoch.0.store(epoch, Ordering::SeqCst);
    }

    /// Announce a read-side critical section: Algorithm 1 lines 9–17.
    ///
    /// Loops: read the epoch `e`, increment `EpochReaders[e % 2]`, re-read
    /// the epoch. On a mismatch the reader "would see that e ≠ e′ and would
    /// undo the operation and loop again"; on a match it has linearized.
    #[inline]
    pub fn pin(&self) -> ReadTicket {
        let mut backoff = Backoff::new();
        loop {
            let epoch = self.global_epoch.0.load(self.mode.load());
            let idx = (epoch & 1) as usize;
            self.readers[idx].0.fetch_add(1, self.mode.rmw());
            if epoch == self.global_epoch.0.load(self.mode.load()) {
                // Linearized: any writer advancing past `epoch` is now
                // obliged to wait for this parity counter to drain.
                self.pins.0.fetch_add(1, Ordering::Relaxed);
                return ReadTicket { idx, epoch };
            }
            // Lost the race with a writer; undo and retry.
            self.readers[idx].0.fetch_sub(1, self.mode.rmw());
            self.retries.add(1);
            backoff.snooze();
        }
    }

    /// Retire a read-side critical section (Algorithm 1 line 15).
    #[inline]
    pub fn unpin(&self, ticket: ReadTicket) {
        // Everything the reader did inside the critical section must
        // happen-before a writer observing the drain (SeqCst covers it).
        self.readers[ticket.idx].0.fetch_sub(1, self.mode.rmw());
    }

    /// Writer step 1 (Algorithm 1 line 5): advance the epoch from `e` to
    /// `e + 1` (wrapping), returning the *old* epoch `e`.
    ///
    /// Must only be called by the single writer (externally serialized by
    /// the structure's write lock, per the paper's footnote 3).
    #[inline]
    pub fn advance(&self) -> u64 {
        self.advances.add(1);
        // `fetch_add` wraps on overflow, which is exactly the behaviour
        // Lemma 2 proves safe: parity is preserved across the wrap.
        self.global_epoch.0.fetch_add(1, Ordering::SeqCst)
    }

    /// Writer step 2 (Algorithm 1 lines 6–7): wait until every reader that
    /// recorded on `epoch`'s parity has evacuated.
    #[inline]
    pub fn wait_for_readers(&self, epoch: u64) {
        let idx = (epoch & 1) as usize;
        let mut backoff = Backoff::new();
        while self.readers[idx].0.load(Ordering::Acquire) != 0 {
            backoff.snooze();
        }
    }

    /// Bounded [`wait_for_readers`](Self::wait_for_readers): give up after
    /// the zone's stall bound in backoff snoozes (`u64::MAX` = never give
    /// up). Returns whether the parity counter drained.
    #[inline]
    pub fn try_wait_for_readers(&self, epoch: u64) -> bool {
        let idx = (epoch & 1) as usize;
        let bound = self.stall_spins.load(Ordering::Relaxed);
        let mut backoff = Backoff::new();
        let mut snoozes = 0u64;
        while self.readers[idx].0.load(Ordering::Acquire) != 0 {
            if snoozes >= bound {
                return false;
            }
            backoff.snooze();
            snoozes += 1;
        }
        true
    }

    /// Combined writer barrier: advance then drain; returns the old epoch.
    /// After this returns, memory published *before* the matching
    /// publication store is unreachable by all current and future readers.
    #[inline]
    pub fn synchronize(&self) -> u64 {
        let old = self.advance();
        self.wait_for_readers(old);
        old
    }

    /// The robust writer path behind `Reclaim::retire`: advance, drain
    /// within the stall bound, and free synchronously — or, when a reader
    /// on the old parity never drains, *evacuate* the retirement so the
    /// writer makes progress and the memory is freed later, once both
    /// parity counters have been observed empty (see `EvacEntry`).
    ///
    /// With the default (disabled) stall policy this is exactly the
    /// classic synchronous retire.
    pub fn retire_robust(&self, retired: Retired) {
        self.retires.fetch_add(1, Ordering::Relaxed);
        let old = self.advance();
        if self.try_wait_for_readers(old) {
            retired.run();
            // Opportunistic: a drained parity may also release older
            // evacuations.
            if self.evac_count.load(Ordering::Relaxed) > 0 {
                self.try_drain_evac();
            }
            return;
        }
        // Stalled: park the retirement on the evacuation list instead of
        // spinning forever behind a dead reader.
        self.stalled.add(1);
        let bytes = retired.bytes() as u64;
        self.evac.lock().unwrap().push(EvacEntry {
            retired,
            need: [true, true],
        });
        self.evac_count.fetch_add(1, Ordering::Relaxed);
        self.evac_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Free every evacuated retirement whose parity obligations are now
    /// met, recording fresh zero observations on the rest. Returns how
    /// many entries were freed.
    pub fn try_drain_evac(&self) -> usize {
        let mut evac = self.evac.lock().unwrap();
        if evac.is_empty() {
            return 0;
        }
        // One observation of each counter serves every entry: "zero since
        // the entry's advance" is implied by "zero now" because entries
        // were pushed before this lock acquisition.
        let zero = [self.readers_on(0) == 0, self.readers_on(1) == 0];
        let mut freed = 0usize;
        let mut freed_bytes = 0u64;
        let mut kept = Vec::with_capacity(evac.len());
        for mut e in evac.drain(..) {
            for (p, &z) in zero.iter().enumerate() {
                if z {
                    e.need[p] = false;
                }
            }
            if e.need == [false, false] {
                freed += 1;
                freed_bytes += e.retired.bytes() as u64;
                e.retired.run();
            } else {
                kept.push(e);
            }
        }
        *evac = kept;
        if freed > 0 {
            self.evac_count.fetch_sub(freed as u64, Ordering::Relaxed);
            self.evac_bytes.fetch_sub(freed_bytes, Ordering::Relaxed);
            OBS_EVAC_DRAINS.add(freed as u64);
        }
        freed
    }

    /// Record a guard released during a panic unwind (called by
    /// [`crate::EpochGuard`]'s `Drop`).
    pub(crate) fn note_guard_panic(&self) {
        self.guard_panics.add(1);
    }

    /// Snapshot of the zone's instrumentation counters.
    pub fn stats(&self) -> ZoneStats {
        ZoneStats {
            pins: self.pins.0.load(Ordering::Relaxed),
            retries: self.retries.get(),
            advances: self.advances.get(),
            stalled: self.stalled.get(),
            evac_pending: self.evac_count.load(Ordering::Relaxed),
            evac_pending_bytes: self.evac_bytes.load(Ordering::Relaxed),
            guard_panics: self.guard_panics.get(),
        }
    }

    /// Total `retire_robust` calls (the trait-level `retired` stat).
    pub(crate) fn retires(&self) -> u64 {
        self.retires.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray_analysis::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn pin_records_on_epoch_parity() {
        let z = EpochZone::new();
        let t = z.pin();
        assert_eq!(t.epoch(), 0);
        assert_eq!(t.parity(), 0);
        assert_eq!(z.readers_on(0), 1);
        assert_eq!(z.readers_on(1), 0);
        z.unpin(t);
        assert_eq!(z.readers_on(0), 0);
    }

    #[test]
    fn advance_returns_old_epoch_and_flips_parity() {
        let z = EpochZone::new();
        assert_eq!(z.advance(), 0);
        assert_eq!(z.epoch(), 1);
        let t = z.pin();
        assert_eq!(t.parity(), 1);
        z.unpin(t);
    }

    #[test]
    fn wait_for_readers_returns_immediately_when_empty() {
        let z = EpochZone::new();
        z.wait_for_readers(0);
        z.wait_for_readers(1);
    }

    #[test]
    fn writer_waits_for_old_parity_reader() {
        let z = Arc::new(EpochZone::new());
        let t = z.pin(); // parity 0 at epoch 0
        let done = Arc::new(AtomicBool::new(false));

        let z2 = Arc::clone(&z);
        let done2 = Arc::clone(&done);
        let writer = rcuarray_analysis::thread::spawn(move || {
            let old = z2.advance();
            z2.wait_for_readers(old);
            done2.store(true, Ordering::SeqCst);
        });

        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !done.load(Ordering::SeqCst),
            "writer must block while a parity-0 reader is pinned"
        );
        z.unpin(t);
        writer.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn writer_does_not_wait_for_new_parity_reader() {
        let z = EpochZone::new();
        let old = z.advance(); // epoch now 1
        let t = z.pin(); // parity 1: a *new* reader
        assert_eq!(t.parity(), 1);
        // Draining parity 0 must not be blocked by the parity-1 reader.
        z.wait_for_readers(old);
        z.unpin(t);
    }

    #[test]
    fn pin_retries_when_epoch_moves() {
        // Simulate the race: force a retry by advancing between operations
        // is hard deterministically; instead hammer pins against advances
        // and check the accounting stays consistent.
        let z = Arc::new(EpochZone::new());
        let stop = Arc::new(AtomicBool::new(false));
        let z2 = Arc::clone(&z);
        let stop2 = Arc::clone(&stop);
        let writer = rcuarray_analysis::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                let old = z2.advance();
                z2.wait_for_readers(old);
            }
        });
        for _ in 0..10_000 {
            let t = z.pin();
            // While pinned, our parity counter must be nonzero.
            assert!(z.readers_on(t.parity()) >= 1);
            z.unpin(t);
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert_eq!(z.readers_on(0), 0);
        assert_eq!(z.readers_on(1), 0);
        assert_eq!(z.stats().pins, 10_000);
    }

    #[test]
    fn epoch_overflow_preserves_parity() {
        // Paper Lemma 2: at the wrap from max to 0, parity still alternates.
        let z = EpochZone::new();
        z.set_epoch_for_test(u64::MAX); // parity of MAX is 1
        let t = z.pin();
        assert_eq!(t.parity(), 1);
        z.unpin(t);
        let old = z.advance();
        assert_eq!(old, u64::MAX);
        assert_eq!(z.epoch(), 0); // wrapped
        let t2 = z.pin();
        assert_eq!(t2.parity(), 0, "post-wrap epoch 0 must use parity 0");
        z.unpin(t2);
    }

    #[test]
    fn synchronize_is_advance_plus_drain() {
        let z = EpochZone::new();
        let old = z.synchronize();
        assert_eq!(old, 0);
        assert_eq!(z.epoch(), 1);
        assert_eq!(z.stats().advances, 1);
    }

    #[test]
    fn stats_count_pins_and_advances() {
        let z = EpochZone::new();
        for _ in 0..5 {
            let t = z.pin();
            z.unpin(t);
        }
        z.synchronize();
        let s = z.stats();
        assert_eq!(s.pins, 5);
        assert_eq!(s.advances, 1);
    }

    #[test]
    fn many_concurrent_readers_drain_to_zero() {
        let z = Arc::new(EpochZone::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let z = &z;
                s.spawn(move || {
                    for _ in 0..1000 {
                        let t = z.pin();
                        z.unpin(t);
                    }
                });
            }
        });
        assert_eq!(z.readers_on(0) + z.readers_on(1), 0);
        assert_eq!(z.stats().pins, 8000);
    }
}
