#![warn(missing_docs)]

//! # rcuarray-obs — always-on low-overhead telemetry
//!
//! The paper's whole argument is quantitative: EBR reads trail QSBR
//! because of fetch-add contention (Fig. 2), and QSBR pays for its free
//! reads with deferred-reclamation backlog. Comparing the two therefore
//! needs epoch age, retry rates and unreclaimed-memory backlog as
//! *first-class measured quantities* — that is what this crate provides,
//! cheap enough to leave on in every build.
//!
//! ## Model
//!
//! * **Statically declared handles.** Instrumented crates declare
//!   metrics as `static` [`LazyCounter`] / [`LazyGauge`] /
//!   [`LazyHistogram`] values. The first touch interns the metric in the
//!   global [`Registry`]; later touches are a pointer chase.
//! * **Scoped counters.** [`LazyCounter::scoped`] gives an object (a
//!   zone, a domain, an array) its own [`ScopedCounter`]: one `add`
//!   counts the event for the instance and in the process total.
//! * **Sharded counters.** [`Counter`] spreads increments over
//!   cache-line-padded shards picked from a stack-slot address (no
//!   thread-local lookup on the hot path), so hot counters do not
//!   serialize writers on one line.
//! * **Log-bucketed histograms.** [`Histogram`] is HDR-style: 4
//!   sub-buckets per power of two over the full `u64` range, constant
//!   memory, one atomic increment per record.
//! * **One-load disabled path.** [`disable`] turns every metric touch
//!   into a single `Relaxed` load and branch (verified by the
//!   `obs_overhead` microbenchmark and the `obs` CI job).
//!
//! ## Sinks
//!
//! [`prometheus_text`] renders the classic text exposition format;
//! [`json_snapshot`] renders a JSON object. The repo benchmark
//! (`rcubench/`) reads [`snapshot`] deltas for its traced per-layer run.
//!
//! All atomics go through the `rcuarray_analysis` facade, so the sharded
//! core runs under the deterministic checker when built with the `check`
//! feature (see `crates/analysis/tests/obs_harness.rs`).

use rcuarray_analysis::atomic::{AtomicBool, Ordering};

mod counter;
mod expose;
mod gauge;
mod histogram;
mod pad;
mod registry;

pub use counter::{Counter, LazyCounter, ScopedCounter, SHARDS};
pub use gauge::{Gauge, LazyGauge};
pub use histogram::{
    bucket_index, bucket_lo, Histogram, HistogramSnapshot, LazyHistogram, NUM_BUCKETS, SUBS,
    SUB_BITS,
};
pub use registry::{registry, MetricValue, Registry, Snapshot};

/// Global on/off switch. Telemetry is on by default ("always-on"); the
/// disabled path of every handle is this one `Relaxed` load.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether telemetry is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable telemetry (the default).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disable telemetry: every metric touch becomes a single `Relaxed`
/// load; already-recorded values remain readable.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Snapshot every registered metric.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Render all registered metrics in the Prometheus text exposition
/// format (version 0.0.4).
pub fn prometheus_text() -> String {
    expose::to_prometheus(&snapshot())
}

/// Render all registered metrics as a JSON object.
pub fn json_snapshot() -> String {
    expose::to_json(&snapshot())
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Unit tests run in parallel; tests that *toggle* the global
    //! enabled flag take this lock exclusively, tests that *depend* on
    //! it being on take it shared.
    use parking_lot::RwLock;
    pub static FLAG: RwLock<()> = RwLock::new(());
}

#[cfg(test)]
mod tests {
    use super::*;

    static C: LazyCounter = LazyCounter::new("obs_lib_test_total", "lib test counter");
    static G: LazyGauge = LazyGauge::new("obs_lib_test_gauge", "lib test gauge");
    static H: LazyHistogram = LazyHistogram::new("obs_lib_test_hist", "lib test histogram");

    #[test]
    fn end_to_end_snapshot_contains_declared_metrics() {
        let _flag = testutil::FLAG.read();
        enable();
        C.add(3);
        G.set(-7);
        H.record(100);
        let s = snapshot();
        assert!(s
            .metrics
            .iter()
            .any(|m| matches!(m, MetricValue::Counter { name, value, .. }
                if *name == "obs_lib_test_total" && *value >= 3)));
        assert!(s
            .metrics
            .iter()
            .any(|m| matches!(m, MetricValue::Gauge { name, value, .. }
                if *name == "obs_lib_test_gauge" && *value == -7)));
        let text = prometheus_text();
        assert!(text.contains("# TYPE obs_lib_test_total counter"));
        assert!(text.contains("obs_lib_test_hist_bucket"));
        let json = json_snapshot();
        assert!(json.contains("\"obs_lib_test_gauge\""));
    }

    #[test]
    fn disabled_handles_record_nothing() {
        static D: LazyCounter = LazyCounter::new("obs_lib_disabled_total", "disabled test");
        let _flag = testutil::FLAG.write();
        enable();
        D.add(1);
        let before = D.value();
        disable();
        D.add(10);
        assert_eq!(D.value(), before, "disabled add must be dropped");
        enable();
        D.add(1);
        assert_eq!(D.value(), before + 1);
    }
}
