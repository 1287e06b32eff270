//! Layer probes of the traced run: short timed loops over one public
//! function each, for layers the workloads only reach through others.

use crate::inputs;
use crate::stats;
use rcuarray_ebr::EpochZone;
use rcuarray_runtime::{task, LocaleId};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Calls per timed repetition of the per-call probes.
const CALLS: u32 = 100_000;
const REPS: usize = 5;

/// Median over `REPS` of the mean cost of one `f()` call, in ns.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                f();
            }
            t.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    stats::median(&reps).expect("REPS > 0")
}

/// `EpochZone::pin` + `unpin` on one zone from two threads at once, ns
/// per pair (the median of both threads' medians).
pub fn ebr_pin_ns() -> f64 {
    let zone = EpochZone::new();
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    per_call_ns(|| {
                        let t = zone.pin();
                        zone.unpin(black_box(t));
                    })
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("pin probe panicked"))
            .collect()
    });
    stats::median(&per_thread).expect("two threads")
}

/// `EpochZone::synchronize` while another thread pins and unpins, µs
/// (median of 2000 calls).
pub fn ebr_synchronize_us() -> f64 {
    let zone = EpochZone::new();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let t = zone.pin();
                zone.unpin(black_box(t));
            }
        });
        let mut samples = stats::Samples::new();
        for _ in 0..2000 {
            let t = Instant::now();
            zone.synchronize();
            samples.push(t.elapsed().as_nanos() as u64);
        }
        stop.store(true, Ordering::Relaxed);
        samples.quantile(0.5).expect("2000 samples") as f64 / 1e3
    })
}

/// `Cluster::get_from(remote, 8)` from locale 0 to locale 1, ns per call.
pub fn runtime_get_ns() -> f64 {
    let cluster = inputs::cluster();
    task::with_locale(LocaleId::ZERO, || {
        per_call_ns(|| cluster.get_from(black_box(LocaleId::new(1)), 8))
    })
}

/// `PrivHandle::get` on a handle the benchmark registers, ns per call.
pub fn runtime_priv_get_ns() -> f64 {
    let cluster = inputs::cluster();
    let (_pid, handle) = cluster
        .privatization()
        .register(cluster.num_locales(), |loc| loc.index() as u64);
    task::with_locale(LocaleId::new(1), || {
        per_call_ns(|| {
            black_box(*black_box(&handle).get());
        })
    })
}
