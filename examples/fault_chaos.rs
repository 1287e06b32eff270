//! Fault injection: run an RCUArray workload on a cluster that drops
//! messages, downs a locale mid-run, and aborts resizes at named trigger
//! points — then show that every update survived.
//!
//! ```text
//! cargo run --release --example fault_chaos [seed]
//! ```
//!
//! The same seed reproduces the same fault schedule (DESIGN.md §5c);
//! the printed fingerprint makes that visible across runs: it hashes
//! each fault's decision-stream coordinates, which are a pure function
//! of the seed.

use rcuarray_repro::prelude::*;
use std::time::Duration;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);

    // 10% of remote GETs/PUTs fail with retryable transient errors, and
    // the fourth write-lock acquisition inside resize errors twice.
    let plan = FaultPlan::new(seed)
        .trigger("resize.lock", 3, 2, FaultAction::Error)
        .fail_gets(0.1)
        .fail_puts(0.1);
    let cluster = Cluster::builder()
        .topology(Topology::new(4, 2))
        .fault_plan(plan)
        .build();
    println!("cluster: {} (fault seed {seed})", cluster.topology());

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
