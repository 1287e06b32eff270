//! Monotonic counters: a sharded atomic core plus the statically
//! declarable lazy handle with its per-instance scoped form.

use crate::pad::{shard_index, Padded};
use rcuarray_analysis::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Number of cache-line-padded shards per counter (power of two). Eight
/// lines bound the footprint at 512 B per counter while spreading
/// concurrent writers; `value()` sums all shards.
pub const SHARDS: usize = 8;

/// The sharded counter core: increments land on a cache-line-padded
/// shard picked from a stack-slot address (no TLS), reads sum the
/// shards. Monotonic by construction — only `add` mutates it.
#[derive(Default, Debug)]
pub struct Counter {
    shards: [Padded; SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter {
            shards: [const { Padded::new() }; SHARDS],
        }
    }

    /// Add `n`. One `Relaxed` fetch-add on this thread's shard: the
    /// counter is statistical, never used for synchronization.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index(SHARDS)]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current total (sum over shards). Concurrent adds may or may not
    /// be included — the usual statistical-counter contract.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

/// A statically declarable counter handle.
///
/// ```
/// static RESIZES: rcuarray_obs::LazyCounter =
///     rcuarray_obs::LazyCounter::new("rcuarray_resizes_total", "completed resizes");
/// RESIZES.add(1);
/// ```
///
/// The first touch interns the metric in the global registry (deduped by
/// name); when telemetry is [disabled](crate::disable) every call is a
/// single `Relaxed` load and an early return.
pub struct LazyCounter {
    name: &'static str,
    help: &'static str,
    slot: OnceLock<&'static crate::registry::CounterEntry>,
}

impl LazyCounter {
    /// Declare a counter. `name` should follow Prometheus conventions
    /// (`snake_case`, `_total` suffix).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        LazyCounter {
            name,
            help,
            slot: OnceLock::new(),
        }
    }

    /// This handle's metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn entry(&self) -> &'static crate::registry::CounterEntry {
        self.slot
            .get_or_init(|| crate::registry().intern_counter(self.name, self.help))
    }

    /// Add `n` (no-op when telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.entry().core.add(n);
    }

    /// Increment by one (no-op when telemetry is disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.entry().core.value()
    }

    /// A per-instance counter that also feeds this metric's process
    /// total, so one call counts an event in both views.
    pub fn scoped(&self) -> ScopedCounter {
        ScopedCounter {
            entry: self.entry(),
            local: AtomicU64::new(0),
        }
    }
}

/// One instance's count of a [`LazyCounter`] metric (a zone's advances,
/// an array's resizes). [`add`](Self::add) bumps the instance count and,
/// while telemetry is [enabled](crate::enabled), the process total; the
/// instance half is never gated, because owners read it back (QSBR
/// backpressure is built on its reclaimed-bytes count).
pub struct ScopedCounter {
    entry: &'static crate::registry::CounterEntry,
    local: AtomicU64,
}

impl ScopedCounter {
    /// Count `n` events: one `Relaxed` fetch-add on the instance cell,
    /// plus a sharded add on the process total when telemetry is on.
    #[inline]
    pub fn add(&self, n: u64) {
        self.local.fetch_add(n, Ordering::Relaxed);
        if crate::enabled() {
            self.entry.core.add(n);
        }
    }

    /// This instance's count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for ScopedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedCounter")
            .field("name", &self.entry.name)
            .field("count", &self.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_sum() {
        let c = Counter::new();
        c.add(1);
        c.add(41);
        assert_eq!(c.value(), 42);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let c = std::sync::Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.value(), 40_000);
    }

    #[test]
    fn handles_with_the_same_name_share_the_metric() {
        static A: LazyCounter = LazyCounter::new("obs_counter_dedup_total", "a");
        static B: LazyCounter = LazyCounter::new("obs_counter_dedup_total", "a");
        let _flag = crate::testutil::FLAG.read();
        crate::enable();
        A.add(2);
        B.add(3);
        assert_eq!(A.value(), B.value());
        assert!(A.value() >= 5);
    }
}
