//! SLO telemetry (DESIGN.md §7, §11): every handle lives in the
//! process-wide `rcuarray-obs` registry, so service metrics ride along in
//! `json_snapshot()` / Prometheus exposition next to the array's own.

use rcuarray_obs::{HistogramSnapshot, LazyCounter, LazyGauge, LazyHistogram};

/// Every request submitted to any service in this process (admitted or
/// refused). The denominator of the amortization ratio.
pub(crate) static REQUESTS: LazyCounter = LazyCounter::new(
    "rcuarray_service_requests_total",
    "requests submitted to the serving layer (admitted or refused)",
);

/// Read-side guard pins taken by batch execution. `pins_total <
/// requests_total` is the measured proof that batching amortizes epoch
/// entry — one pin covers a whole coalesced batch.
pub(crate) static PINS: LazyCounter = LazyCounter::new(
    "rcuarray_service_pins_total",
    "read-side guard pins taken by service workers (one per executed batch op)",
);

/// Batches executed (one per non-empty drain of a worker's queue).
pub(crate) static BATCHES: LazyCounter = LazyCounter::new(
    "rcuarray_service_batches_total",
    "coalesced batches executed by service workers",
);

/// Requests dropped at dequeue because they outwaited their deadline.
pub(crate) static SHED: LazyCounter = LazyCounter::new(
    "rcuarray_service_shed_total",
    "requests shed at dequeue after waiting past the configured deadline",
);

/// Requests refused by admission control or reclaim backpressure.
pub(crate) static OVERLOADED: LazyCounter = LazyCounter::new(
    "rcuarray_service_overloaded_total",
    "requests refused: full admission queue or reclaim-layer backpressure",
);

/// Requests whose execution failed (killed read section, comm budget).
pub(crate) static FAILURES: LazyCounter = LazyCounter::new(
    "rcuarray_service_failures_total",
    "requests whose execution failed (fault injection, exhausted comm budget)",
);

/// Client-side waits that timed out before a response arrived.
pub(crate) static TIMEOUTS: LazyCounter = LazyCounter::new(
    "rcuarray_service_timeouts_total",
    "client waits that timed out before the response arrived",
);

/// Aggregate queued-request count across all service workers.
pub(crate) static QUEUE_DEPTH: LazyGauge = LazyGauge::new(
    "rcuarray_service_queue_depth",
    "requests currently sitting in service worker queues",
);

/// Time from admission to dequeue — the SLO component load adds. A
/// worker executes a batch the moment it dequeues it, so this is all of
/// a request's wait before execution; no coalescing window hides in
/// either histogram.
pub(crate) static QUEUE_WAIT_NS: LazyHistogram = LazyHistogram::new(
    "rcuarray_service_queue_wait_ns",
    "per-request queue wait (admission to dequeue) in nanoseconds",
);

/// Time a worker spends executing one batch against the array — the SLO
/// component the data structure itself costs.
pub(crate) static EXECUTE_NS: LazyHistogram = LazyHistogram::new(
    "rcuarray_service_execute_ns",
    "per-batch execution time against the array in nanoseconds",
);

/// A point-in-time summary of the serving layer's SLO metrics
/// (process-wide: counters are shared by every service in the process).
#[derive(Debug, Clone)]
pub struct SloSnapshot {
    /// Requests submitted (admitted or refused).
    pub requests: u64,
    /// Read-side pins taken by batch execution.
    pub pins: u64,
    /// Batches executed.
    pub batches: u64,
    /// Requests shed past their deadline.
    pub shed: u64,
    /// Requests refused (admission or backpressure).
    pub overloaded: u64,
    /// Requests whose execution failed.
    pub failures: u64,
    /// Client waits that timed out.
    pub timeouts: u64,
    /// Requests currently queued.
    pub queue_depth: i64,
    /// Queue-wait latency distribution.
    pub queue_wait: HistogramSnapshot,
    /// Batch-execute latency distribution.
    pub execute: HistogramSnapshot,
}

impl SloSnapshot {
    /// Requests per pin: the amortization factor adaptive batching buys.
    /// Greater than 1.0 means epoch entry is being amortized.
    pub fn amortization(&self) -> f64 {
        if self.pins == 0 {
            return 0.0;
        }
        self.requests as f64 / self.pins as f64
    }

    /// Fraction of submitted requests shed past their deadline.
    pub fn shed_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.shed as f64 / self.requests as f64
    }
}

impl std::fmt::Display for SloSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests {}  pins {}  batches {}  (amortization {:.2} req/pin)",
            self.requests,
            self.pins,
            self.batches,
            self.amortization()
        )?;
        writeln!(
            f,
            "shed {}  overloaded {}  failures {}  timeouts {}  queue depth {}",
            self.shed, self.overloaded, self.failures, self.timeouts, self.queue_depth
        )?;
        writeln!(
            f,
            "queue wait  p50 {} ns  p99 {} ns  max {} ns  ({} samples)",
            self.queue_wait.quantile(0.5),
            self.queue_wait.quantile(0.99),
            self.queue_wait.max,
            self.queue_wait.count
        )?;
        write!(
            f,
            "execute     p50 {} ns  p99 {} ns  max {} ns  ({} batches)",
            self.execute.quantile(0.5),
            self.execute.quantile(0.99),
            self.execute.max,
            self.execute.count
        )
    }
}

/// Snapshot the process-wide serving-layer metrics.
pub fn slo_snapshot() -> SloSnapshot {
    SloSnapshot {
        requests: REQUESTS.value(),
        pins: PINS.value(),
        batches: BATCHES.value(),
        shed: SHED.value(),
        overloaded: OVERLOADED.value(),
        failures: FAILURES.value(),
        timeouts: TIMEOUTS.value(),
        queue_depth: QUEUE_DEPTH.value(),
        queue_wait: QUEUE_WAIT_NS.snapshot(),
        execute: EXECUTE_NS.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortization_and_shed_rate_guard_division_by_zero() {
        let snap = SloSnapshot {
            requests: 0,
            pins: 0,
            batches: 0,
            shed: 0,
            overloaded: 0,
            failures: 0,
            timeouts: 0,
            queue_depth: 0,
            queue_wait: QUEUE_WAIT_NS.snapshot(),
            execute: EXECUTE_NS.snapshot(),
        };
        assert_eq!(snap.amortization(), 0.0);
        assert_eq!(snap.shed_rate(), 0.0);
        // Display must not panic on an empty snapshot.
        let _ = snap.to_string();
    }
}
