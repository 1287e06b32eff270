//! Gauges: a point-in-time signed value (backlog depths, epoch lag,
//! capacities). Unlike counters these are set/adjusted, not summed, so a
//! single padded atomic suffices — writers of a gauge are rare.

use rcuarray_analysis::atomic::{AtomicI64, Ordering};
use std::sync::OnceLock;

/// The gauge core: one cache-line-padded signed atomic.
#[repr(align(64))]
#[derive(Default, Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the gauge by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is below (high-watermark use).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A statically declarable gauge handle; see
/// [`LazyCounter`](crate::LazyCounter) for the interning/disable contract.
pub struct LazyGauge {
    name: &'static str,
    help: &'static str,
    slot: OnceLock<&'static crate::registry::GaugeEntry>,
}

impl LazyGauge {
    /// Declare a gauge.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        LazyGauge {
            name,
            help,
            slot: OnceLock::new(),
        }
    }

    /// This handle's metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn entry(&self) -> &'static crate::registry::GaugeEntry {
        self.slot
            .get_or_init(|| crate::registry().intern_gauge(self.name, self.help))
    }

    /// Set the gauge (no-op when telemetry is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.entry().core.set(v);
    }

    /// Adjust by `delta` (no-op when telemetry is disabled).
    #[inline]
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        self.entry().core.add(delta);
    }

    /// Raise to `v` if below (no-op when telemetry is disabled).
    #[inline]
    pub fn set_max(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.entry().core.set_max(v);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.entry().core.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_add_max() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.value(), 7);
        g.set_max(5);
        assert_eq!(g.value(), 7, "set_max must not lower");
        g.set_max(9);
        assert_eq!(g.value(), 9);
    }
}
