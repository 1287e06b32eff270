//! The idle-path overhead microbenchmark gating the `obs` CI job.
//!
//! With telemetry disabled, a metric touch must cost a single `Relaxed`
//! load and a branch — the contract that makes "always-on" telemetry
//! acceptable inside EBR/QSBR hot paths. This binary measures the
//! per-touch cost of a disabled counter add and a disabled histogram
//! record, and exits non-zero when the counter touch exceeds the
//! threshold (default 1.0 ns; override with `OBS_OVERHEAD_MAX_NS` for
//! pathological CI hosts).
//!
//! Run: `cargo run --release -p rcuarray-obs --bin obs_overhead`

use rcuarray_obs::{LazyCounter, LazyHistogram};
use std::hint::black_box;
use std::time::Instant;

static COUNTER: LazyCounter = LazyCounter::new("obs_overhead_probe_total", "overhead probe");
static HIST: LazyHistogram = LazyHistogram::new("obs_overhead_probe_ns", "overhead probe");

const ITERS: u64 = 100_000_000;

fn time_per_op(f: impl Fn(u64)) -> f64 {
    // One warmup pass settles frequency scaling and faults in the code.
    for i in 0..ITERS / 10 {
        f(black_box(i));
    }
    let start = Instant::now();
    for i in 0..ITERS {
        f(black_box(i));
    }
    start.elapsed().as_nanos() as f64 / ITERS as f64
}

fn main() {
    // Touch the handles once while enabled so interning cost is paid up
    // front, then measure the disabled path only.
    rcuarray_obs::enable();
    COUNTER.add(1);
    HIST.record(1);
    rcuarray_obs::disable();

    let counter_ns = time_per_op(|i| COUNTER.add(i));
    let hist_ns = time_per_op(|i| HIST.record(i));

    let max_ns: f64 = std::env::var("OBS_OVERHEAD_MAX_NS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);

    println!(
        "{{\"disabled_counter_add_ns\": {counter_ns:.4}, \"disabled_histogram_record_ns\": \
         {hist_ns:.4}, \"threshold_ns\": {max_ns}}}"
    );

    if counter_ns > max_ns {
        eprintln!("FAIL: disabled counter touch costs {counter_ns:.4} ns > {max_ns} ns threshold");
        std::process::exit(1);
    }
    println!("OK: disabled metric touch within budget");
}
