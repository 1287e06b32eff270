//! A four-locale cluster serving mixed Get/Put/Grow traffic through the
//! request-serving front-end (`rcuarray-service`, DESIGN.md §11).
//!
//! Three kinds of clients hammer the service concurrently:
//!
//! * **readers** issue point `Get`s and coalesced `BatchGet`s;
//! * **writers** issue `Put`s and `BatchPut`s;
//! * one **grower** keeps extending the array under the live load.
//!
//! Every request flows through admission control (bounded per-worker
//! queues — overload answers `Overloaded` with a retry hint instead of
//! wedging) and batching (a woken worker drains what is queued, up to
//! `max_batch` requests, and serves them under a *single* read guard;
//! with six concurrent clients a queue seldom holds just one). The SLO
//! snapshot printed at the end shows the effect: `pins` well below
//! `requests` is the paper's read-side amortization surfaced as a
//! service metric, and the queue-wait vs execute histograms split
//! end-to-end latency into its two halves.
//!
//! ```text
//! cargo run --release --example serve [-- --backend shmem|mesh]
//! ```
//!
//! `--backend` selects the transport the cluster rides (default: the
//! `RCUARRAY_BACKEND` environment variable, else `shmem`).

use rcuarray_repro::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const LOCALES: usize = 4;
const READERS: usize = 4;
const WRITERS: usize = 2;
const OPS_PER_CLIENT: usize = 2_000;
const START_CAPACITY: usize = 4_096;

/// Parse `--backend <shmem|mesh>` from the command line, falling back
/// to `RCUARRAY_BACKEND`, then `shmem`.
fn backend_from_args() -> TransportKind {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--backend" {
            let v = args.next().expect("--backend needs a value");
            return v.parse().unwrap_or_else(|e| panic!("--backend: {e}"));
        }
    }
    TransportKind::from_env()
}

fn main() {
    let backend = backend_from_args();
    let cluster = Cluster::builder()
        .topology(Topology::new(LOCALES, 2))
        .backend(backend)
        .build();
    let array: EbrArray<u64> = EbrArray::new(&cluster);
    array.resize(START_CAPACITY);

    let service = Service::start(
        array,
        ServiceConfig {
            workers_per_locale: 1,
            queue_capacity: 512,
            max_batch: 32,
            deadline: Duration::from_millis(250),
            ..ServiceConfig::default()
        },
    );
    println!(
        "serving on {LOCALES} locales over the {backend} transport \
         ({READERS} readers, {WRITERS} writers, 1 grower)\n"
    );

    let served = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    let capacity = Arc::new(AtomicU64::new(START_CAPACITY as u64));

    std::thread::scope(|s| {
        for r in 0..READERS {
            let client = service.client();
            let capacity = Arc::clone(&capacity);
            let (served, retried) = (&served, &retried);
            s.spawn(move || {
                let mut x = 0x9E37_79B9u64.wrapping_add(r as u64);
                for k in 0..OPS_PER_CLIENT {
                    // xorshift: a cheap deterministic index stream.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let cap = capacity.load(Ordering::Relaxed);
                    let req = if k % 8 == 0 {
                        // One coalesced lookup per eight: a batch rides
                        // the same guard pin as its neighbors.
                        Request::BatchGet {
                            indices: (0..4).map(|i| ((x >> (8 * i)) % cap) as usize).collect(),
                        }
                    } else {
                        Request::Get {
                            idx: (x % cap) as usize,
                        }
                    };
                    // call_with_retry honors Overloaded's retry_after
                    // hint and backs off instead of hammering.
                    match client.call_with_retry(&req) {
                        Ok(_) => served.fetch_add(1, Ordering::Relaxed),
                        Err(_) => retried.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }
        for w in 0..WRITERS {
            let client = service.client();
            let capacity = Arc::clone(&capacity);
            let (served, retried) = (&served, &retried);
            s.spawn(move || {
                let mut x = 0xC0FF_EE00u64.wrapping_add(w as u64);
                for k in 0..OPS_PER_CLIENT {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let cap = capacity.load(Ordering::Relaxed);
                    let req = if k % 8 == 0 {
                        Request::BatchPut {
                            entries: (0..4)
                                .map(|i| ((((x >> (8 * i)) % cap) as usize), x ^ i))
                                .collect(),
                        }
                    } else {
                        Request::Put {
                            idx: (x % cap) as usize,
                            value: x,
                        }
                    };
                    match client.call_with_retry(&req) {
                        Ok(_) => served.fetch_add(1, Ordering::Relaxed),
                        Err(_) => retried.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }
        {
            // The grower: steady capacity extension under live traffic —
            // the paper's resize path exercised through the front door.
            let client = service.client();
            let capacity = Arc::clone(&capacity);
            s.spawn(move || {
                for _ in 0..24 {
                    if let Ok(Response::Grown(cap)) =
                        client.call_with_retry(&Request::Grow { additional: 1_024 })
                    {
                        capacity.store(cap as u64, Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
    });

    let final_cap = service.array().capacity();
    service.shutdown();

    let snap = slo_snapshot();
    println!(
        "clients done: {} served, {} gave up after retries",
        served.load(Ordering::Relaxed),
        retried.load(Ordering::Relaxed)
    );
    println!("array grew to {final_cap} elements under load\n");
    println!("SLO snapshot:\n{snap}");
    println!(
        "\namortization: {} requests rode {} guard pins ({:.1} requests/pin)",
        snap.requests,
        snap.pins,
        snap.amortization()
    );
    assert!(
        snap.pins < snap.requests,
        "batching must pin less than once per request"
    );
}
