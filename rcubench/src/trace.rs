//! The traced run's instruments: spans recorded in the benchmark's own
//! code around calls into each layer, and before/after deltas of the
//! layers' public counters.

use rcuarray_obs::{bucket_lo, HistogramSnapshot, MetricValue, Snapshot};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` and `request` are 0 when absent.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from every benchmark thread. Threads record into a
/// local [`SpanLog`] and hand it over when they finish, so recording
/// never contends on a lock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn log(&self) -> SpanLog<'_> {
        SpanLog {
            tracer: self,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn absorb(&self, mut spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("a span-recording thread panicked")
            .append(&mut spans);
    }

    /// Spans recorded so far, ordered by start time.
    fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("a span-recording thread panicked")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Durations (ns) of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let spans = self.spans.lock().expect("a span-recording thread panicked");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// A thread's span buffer; hands its spans to the tracer when dropped.
pub struct SpanLog<'t> {
    tracer: &'t Tracer,
    spans: Vec<Span>,
}

impl SpanLog<'_> {
    /// Reserve a span id before the span ends, so children can name it.
    pub fn open(&self) -> u64 {
        self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span whose id was reserved with [`open`](Self::open).
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
    }

    /// Record a leaf span.
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) {
        let id = self.open();
        self.close(id, name, parent, 0, start, end);
    }
}

impl Drop for SpanLog<'_> {
    fn drop(&mut self) {
        self.tracer.absorb(std::mem::take(&mut self.spans));
    }
}

/// The change in the process-wide obs registry between two snapshots:
/// what one phase (workload × scheme) did, never the cumulative total.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsDelta {
    pub counters: BTreeMap<&'static str, u64>,
    pub histograms: BTreeMap<&'static str, HistogramSnapshot>,
}

impl ObsDelta {
    pub fn between(before: &Snapshot, after: &Snapshot) -> ObsDelta {
        let mut d = ObsDelta::default();
        for m in &after.metrics {
            match m {
                MetricValue::Counter { name, value, .. } => {
                    let base = before.counter(name).unwrap_or(0);
                    d.counters.insert(name, value - base);
                }
                MetricValue::Histogram { name, value, .. } => {
                    let base = before.histogram(name).cloned().unwrap_or_default();
                    d.histograms.insert(name, histogram_delta(&base, value));
                }
                MetricValue::Gauge { .. } => {}
            }
        }
        d
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// The delta of two consecutive phases taken together.
    pub fn plus(&self, other: &ObsDelta) -> ObsDelta {
        let mut d = self.clone();
        for (name, v) in &other.counters {
            *d.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in &other.histograms {
            let merged = d.histograms.get(name).cloned().unwrap_or_default().merge(h);
            d.histograms.insert(name, merged);
        }
        d
    }
}

/// Bucket-wise `after - before`. The maximum cannot be scoped from two
/// snapshots, so it becomes the lower bound of the highest bucket the
/// phase touched.
fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let base: BTreeMap<usize, u64> = before.buckets.iter().copied().collect();
    let buckets: Vec<(usize, u64)> = after
        .buckets
        .iter()
        .map(|&(i, n)| (i, n - base.get(&i).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect();
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum.wrapping_sub(before.sum),
        max: buckets.last().map_or(0, |&(i, _)| bucket_lo(i)),
        buckets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use rcuarray::EbrArray;

    #[test]
    fn deltas_of_two_phases_sum_to_the_cumulative_change() {
        let cluster = inputs::cluster();
        let array = EbrArray::<u64>::with_config(&cluster, rcuarray::Config::default());
        let s0 = rcuarray_obs::snapshot();
        for _ in 0..5 {
            array.resize(1024);
        }
        let s1 = rcuarray_obs::snapshot();
        for _ in 0..3 {
            array.resize(1024);
        }
        array.write(0, 1);
        let s2 = rcuarray_obs::snapshot();

        let a = ObsDelta::between(&s0, &s1);
        let b = ObsDelta::between(&s1, &s2);
        let whole = ObsDelta::between(&s0, &s2);
        assert_eq!(a.plus(&b).counters, whole.counters);
        for (name, h) in &whole.histograms {
            let sum = a.plus(&b).histogram(name);
            assert_eq!(
                (sum.count, sum.sum, &sum.buckets),
                (h.count, h.sum, &h.buckets)
            );
        }
        // Each phase sees its own resizes (other tests in this process
        // may resize too, so these are lower bounds).
        assert!(a.counter("rcuarray_resizes_total") >= 5);
        assert!(b.counter("rcuarray_resizes_total") >= 3);
        assert!(a.histogram("rcuarray_resize_ns").count >= 5);
    }

    #[test]
    fn spans_keep_their_parents() {
        let tracer = Tracer::default();
        {
            let mut log = tracer.log();
            let parent = log.open();
            let t0 = Instant::now();
            log.record("child", parent, t0, Instant::now());
            log.close(parent, "parent", 0, 7, t0, Instant::now());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let parent = spans.iter().find(|s| s.name == "parent").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.parent, parent.id);
        assert_eq!(parent.request, 7);
        assert_eq!(tracer.durations("child").len(), 1);
    }
}
