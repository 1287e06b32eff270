//! Fault injection: run an RCUArray workload on a cluster that drops
//! messages, downs a locale mid-run, and aborts resizes at named trigger
//! points — then show that every update survived.
//!
//! ```text
//! cargo run --release --example fault_chaos [seed] [-- --backend shmem|mesh]
//! ```
//!
//! The same seed reproduces the same fault schedule (DESIGN.md §5c);
//! the printed fingerprint makes that visible across runs — and across
//! transport backends: it hashes each fault's decision-stream
//! coordinates, which are a pure function of the seed, so swapping
//! shmem for mesh changes delivery timing but not the fingerprint.

use rcuarray_repro::prelude::*;
use std::time::Duration;

fn main() {
    let mut seed = 42u64;
    let mut backend = TransportKind::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => {
                let v = args.next().expect("--backend needs a value");
                backend = v.parse().unwrap_or_else(|e| panic!("--backend: {e}"));
            }
            other => {
                if let Ok(s) = other.parse() {
                    seed = s;
                }
            }
        }
    }

    // 10% of remote GETs/PUTs fail with retryable transient errors, the
    // fourth write-lock acquisition inside resize errors twice, and the
    // 0→2 link's mesh delivery order is perturbed (a per-link rule —
    // observation only, so it cannot disturb the fault schedule; the
    // shmem backend, where send *is* delivery, ignores it).
    let cluster = Cluster::builder()
        .topology(Topology::new(4, 2))
        .backend(backend)
        .fault_plan(
            FaultPlan::new(seed)
                .fail_gets(0.1)
                .fail_puts(0.1)
                .reorder_link(LocaleId::new(0), LocaleId::new(2))
                .trigger("resize.lock", 3, 2, FaultAction::Error),
        )
        .build();
    println!(
        "cluster: {} over the {backend} transport (fault seed {seed})",
        cluster.topology()
    );

    // Small blocks so the 512-element workload spans all four locales.
    let config = Config {
        block_size: 64,
        retry: RetryPolicy::new(8, Duration::from_millis(100)),
        ..Config::default()
    };
    let array: QsbrArray<u64> = QsbrArray::with_config(&cluster, config);

    // Grow in steps so several resizes run under fire; the trigger aborts
    // attempts, the retry loop rolls back and tries again.
    for _ in 0..4 {
        array.resize(1024);
    }
    println!("capacity after 4 faulty resizes: {}", array.capacity());

    // A write/read workload across all locales while faults fire.
    cluster.forall_tasks(|_, _| {
        for i in 0..512 {
            array.write(i, i as u64 + 1);
            assert_eq!(array.read(i), i as u64 + 1);
            array.checkpoint();
        }
    });

    // Down locale 1: reads degrade to the local snapshot instead of
    // failing; writes are recorded as degraded but still land.
    cluster.fault().set_down(LocaleId::new(1), true);
    for i in 0..512 {
        assert_eq!(array.read(i), i as u64 + 1);
    }
    cluster.fault().set_down(LocaleId::new(1), false);

    let s = array.stats();
    println!(
        "injected faults: {} (fingerprint {:#018x})",
        cluster.fault().fault_count(),
        cluster.fault().fingerprint()
    );
    println!(
        "retries={} aborted_resizes={} fallback_reads={} degraded_writes={}",
        s.retries(),
        s.aborted_resizes,
        s.fallback_reads,
        s.degraded_writes
    );
    assert!(
        s.aborted_resizes >= 2,
        "the resize.lock trigger fired twice"
    );
    println!("all 512 updates intact despite faults, aborts and a downed locale");
}
