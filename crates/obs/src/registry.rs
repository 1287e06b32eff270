//! The global metric registry: interns statically-declared handles
//! (deduped by name) and produces point-in-time snapshots for the sinks.
//!
//! Registration is rare (once per metric per process) and goes through a
//! mutex; the hot path never touches the registry — handles cache an
//! interned `&'static` entry in a `OnceLock`.

use crate::counter::Counter;
use crate::gauge::Gauge;
use crate::histogram::{Histogram, HistogramSnapshot};
use rcuarray_analysis::sync::Mutex;
use std::sync::OnceLock;

/// An interned counter: name, help text and the sharded core.
pub struct CounterEntry {
    /// Metric name (Prometheus conventions).
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// The sharded counter core.
    pub core: Counter,
}

/// An interned gauge.
pub struct GaugeEntry {
    /// Metric name.
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// The gauge core.
    pub core: Gauge,
}

/// An interned histogram.
pub struct HistogramEntry {
    /// Metric name.
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// The histogram core.
    pub core: Histogram,
}

#[derive(Default)]
struct Inner {
    counters: Vec<&'static CounterEntry>,
    gauges: Vec<&'static GaugeEntry>,
    histograms: Vec<&'static HistogramEntry>,
}

/// The metric registry. One global instance lives behind
/// [`registry()`]; entries are interned for the process lifetime
/// (leaked), which is what lets handles hold `&'static` references with
/// no reference counting on the hot path.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry (tests; production uses [`registry()`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// Intern a counter by name (first declaration wins; later handles
    /// with the same name share the metric).
    pub fn intern_counter(&self, name: &'static str, help: &'static str) -> &'static CounterEntry {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.counters.iter().find(|e| e.name == name) {
            return e;
        }
        let entry: &'static CounterEntry = Box::leak(Box::new(CounterEntry {
            name,
            help,
            core: Counter::new(),
        }));
        inner.counters.push(entry);
        entry
    }

    /// Intern a gauge by name.
    pub fn intern_gauge(&self, name: &'static str, help: &'static str) -> &'static GaugeEntry {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.gauges.iter().find(|e| e.name == name) {
            return e;
        }
        let entry: &'static GaugeEntry = Box::leak(Box::new(GaugeEntry {
            name,
            help,
            core: Gauge::new(),
        }));
        inner.gauges.push(entry);
        entry
    }

    /// Intern a histogram by name.
    pub fn intern_histogram(
        &self,
        name: &'static str,
        help: &'static str,
    ) -> &'static HistogramEntry {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.histograms.iter().find(|e| e.name == name) {
            return e;
        }
        let entry: &'static HistogramEntry = Box::leak(Box::new(HistogramEntry {
            name,
            help,
            core: Histogram::new(),
        }));
        inner.histograms.push(entry);
        entry
    }

    /// Snapshot every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock();
        let mut metrics =
            Vec::with_capacity(inner.counters.len() + inner.gauges.len() + inner.histograms.len());
        for e in &inner.counters {
            metrics.push(MetricValue::Counter {
                name: e.name,
                help: e.help,
                value: e.core.value(),
            });
        }
        for e in &inner.gauges {
            metrics.push(MetricValue::Gauge {
                name: e.name,
                help: e.help,
                value: e.core.value(),
            });
        }
        for e in &inner.histograms {
            metrics.push(MetricValue::Histogram {
                name: e.name,
                help: e.help,
                value: e.core.snapshot(),
            });
        }
        drop(inner);
        metrics.sort_by_key(|m| m.name());
        Snapshot { metrics }
    }
}

/// One metric's point-in-time value.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// A monotonic counter.
    Counter {
        /// Metric name.
        name: &'static str,
        /// Help text.
        help: &'static str,
        /// Current total.
        value: u64,
    },
    /// A point-in-time gauge.
    Gauge {
        /// Metric name.
        name: &'static str,
        /// Help text.
        help: &'static str,
        /// Current value.
        value: i64,
    },
    /// A log-bucketed histogram.
    Histogram {
        /// Metric name.
        name: &'static str,
        /// Help text.
        help: &'static str,
        /// Frozen contents.
        value: HistogramSnapshot,
    },
}

impl MetricValue {
    /// The metric's name.
    pub fn name(&self) -> &'static str {
        match self {
            MetricValue::Counter { name, .. }
            | MetricValue::Gauge { name, .. }
            | MetricValue::Histogram { name, .. } => name,
        }
    }
}

/// A point-in-time view of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All registered metrics, sorted by name.
    pub metrics: Vec<MetricValue>,
}

impl Snapshot {
    /// Look up a counter's value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.iter().find_map(|m| match m {
            MetricValue::Counter { name: n, value, .. } if *n == name => Some(*value),
            _ => None,
        })
    }

    /// Look up a gauge's value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.metrics.iter().find_map(|m| match m {
            MetricValue::Gauge { name: n, value, .. } if *n == name => Some(*value),
            _ => None,
        })
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.metrics.iter().find_map(|m| match m {
            MetricValue::Histogram { name: n, value, .. } if *n == name => Some(value),
            _ => None,
        })
    }
}

/// The process-wide registry all lazy handles intern into.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes_by_name() {
        let r = Registry::new();
        let a = r.intern_counter("x_total", "x");
        let b = r.intern_counter("x_total", "other help ignored");
        assert!(std::ptr::eq(a, b));
        a.core.add(1);
        assert_eq!(b.core.value(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let r = Registry::new();
        r.intern_counter("z_total", "z").core.add(9);
        r.intern_gauge("a_gauge", "a").core.set(-2);
        let s = r.snapshot();
        let names: Vec<_> = s.metrics.iter().map(|m| m.name()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(s.counter("z_total"), Some(9));
        assert_eq!(s.gauge("a_gauge"), Some(-2));
        assert_eq!(s.counter("missing"), None);
    }
}
