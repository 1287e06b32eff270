//! Cross-crate integration of the distribution story: block placement,
//! communication locality and cluster-wide lock accounting (§III-D).

use rcuarray_repro::prelude::*;
use std::sync::Arc;

#[test]
fn rcuarray_blocks_round_robin_across_many_resizes() {
    let cluster = Cluster::new(Topology::new(5, 1));
    let a: QsbrArray<u64> = QsbrArray::with_config(&cluster, Config::with_block_size(8));
    // 13 resizes of varying block counts.
    for n in 1..=13usize {
        a.resize(8 * (n % 3 + 1));
    }
    let stats = a.stats();
    assert!(
        stats.block_imbalance() <= 1,
        "round-robin must balance within 1: {:?}",
        stats.blocks_per_locale
    );
    assert_eq!(
        stats.blocks_per_locale.iter().sum::<usize>(),
        stats.num_blocks
    );
    a.checkpoint();
}

#[test]
fn allocation_accounting_attributes_to_home_locales() {
    let cluster = Cluster::new(Topology::new(4, 1));
    let a: QsbrArray<u64> = QsbrArray::with_config(&cluster, Config::with_block_size(16));
    a.resize(16 * 8); // 8 blocks over 4 locales: 2 each
                      // Bytes per cell is the size of the element representation, which is
                      // larger than the payload when instrumentation is compiled in.
    let cell = std::mem::size_of::<<u64 as Element>::Repr>();
    for locale in cluster.locales() {
        assert_eq!(locale.allocations(), 2, "locale {}", locale.id());
        assert_eq!(locale.allocated_bytes(), (2 * 16 * cell) as u64);
    }
    a.checkpoint();
}

#[test]
fn reads_of_local_blocks_stay_local() {
    let cluster = Cluster::new(Topology::new(2, 1));
    let a: QsbrArray<u64> = QsbrArray::with_config(&cluster, Config::with_block_size(8));
    a.resize(32); // blocks: L0, L1, L0, L1
    cluster.comm().reset();
    // From locale 0, read only indices in locale-0 blocks (0..8, 16..24).
    rcuarray_runtime::task::with_locale(LocaleId::ZERO, || {
        for i in (0..8).chain(16..24) {
            let _ = a.read(i);
        }
    });
    let s = cluster.comm_stats();
    assert_eq!(s.gets, 0, "locale-local reads must not GET");
    assert_eq!(s.local_accesses, 16);
    a.checkpoint();
}

#[test]
fn remote_updates_are_puts_of_element_size() {
    let cluster = Cluster::new(Topology::new(2, 1));
    let a: QsbrArray<u64> = QsbrArray::with_config(&cluster, Config::with_block_size(8));
    a.resize(16); // block 0 on L0, block 1 on L1
    cluster.comm().reset();
    rcuarray_runtime::task::with_locale(LocaleId::ZERO, || {
        for i in 8..16 {
            a.write(i, 1); // all in L1's block
        }
    });
    let s = cluster.comm_stats();
    assert_eq!(s.puts, 8);
    assert_eq!(s.bytes_moved, 8 * 8, "u64 elements move 8 bytes each");
    a.checkpoint();
}

#[test]
fn resize_cost_is_dominated_by_writer_not_readers() {
    // §III-D: replication means readers touch node-local metadata only;
    // the resize itself does the cross-locale work.
    let cluster = Cluster::new(Topology::new(4, 1));
    let a: QsbrArray<u64> = QsbrArray::with_config(&cluster, Config::with_block_size(8));
    cluster.comm().reset();
    a.resize(8 * 4);
    let resize_comm = cluster.comm_stats();
    assert!(
        resize_comm.remote_executes >= 3,
        "resize must replicate across locales: {resize_comm:?}"
    );
    a.checkpoint();
}

#[test]
fn sync_array_lock_contention_grows_with_remote_tasks() {
    let cluster = Cluster::new(Topology::new(4, 1));
    let a: SyncArray<u64> = SyncArray::new(&cluster);
    a.resize(64);
    cluster.comm().reset();
    cluster.forall_tasks(|_, _| {
        for i in 0..16 {
            let _ = a.read(i);
        }
    });
    let s = cluster.comm_stats();
    // 3 of 4 locales are remote to the lock; every one of their 16 ops
    // pays a lock round trip (2 puts + 1 get) beyond any element traffic.
    assert!(s.puts >= 3 * 16 * 2, "remote lock traffic missing: {s:?}");
}

#[test]
fn unsafe_array_chunks_match_block_dist_math() {
    let cluster = Cluster::new(Topology::new(3, 1));
    let a: UnsafeArray<u64> = UnsafeArray::new(&cluster);
    a.resize(10);
    let dist = rcuarray_runtime::BlockDist::new(10, 3);
    cluster.comm().reset();
    // Visit each index from its *owning* locale: zero remote traffic.
    for i in 0..10 {
        let owner = dist.locale_of(i);
        rcuarray_runtime::task::with_locale(owner, || {
            let _ = a.read(i);
        });
    }
    assert_eq!(cluster.comm_stats().gets, 0);
    assert_eq!(cluster.comm_stats().local_accesses, 10);
}

#[test]
fn cluster_wide_write_lock_charges_remote_acquirers() {
    let cluster = Cluster::new(Topology::new(2, 1));
    let a: QsbrArray<u64> = QsbrArray::with_config(&cluster, Config::with_block_size(8));
    cluster.comm().reset();
    // Resize from locale 1: write lock homed on locale 0.
    rcuarray_runtime::task::with_locale(LocaleId::new(1), || {
        a.resize(8);
    });
    let s = cluster.comm_stats();
    assert!(s.gets >= 1 && s.puts >= 2, "remote lock round trip: {s:?}");
    a.checkpoint();
}

#[test]
fn latency_model_makes_remote_access_measurably_slower() {
    use std::time::Instant;
    let slow = Cluster::with_latency(Topology::new(2, 1), LatencyModel::SpinNanos(50_000));
    let a: QsbrArray<u64> = QsbrArray::with_config(&slow, Config::with_block_size(8));
    a.resize(16);
    let t_local = {
        let start = Instant::now();
        rcuarray_runtime::task::with_locale(LocaleId::ZERO, || {
            for i in 0..8 {
                let _ = a.read(i); // block 0: local
            }
        });
        start.elapsed()
    };
    let t_remote = {
        let start = Instant::now();
        rcuarray_runtime::task::with_locale(LocaleId::ZERO, || {
            for i in 8..16 {
                let _ = a.read(i); // block 1: remote, 50µs each
            }
        });
        start.elapsed()
    };
    assert!(
        t_remote > t_local * 5,
        "remote {t_remote:?} should dwarf local {t_local:?}"
    );
    a.checkpoint();
}

#[test]
fn arc_cluster_shared_by_all_structures() {
    let cluster = Cluster::new(Topology::new(2, 1));
    let a: QsbrArray<u64> = QsbrArray::with_config(&cluster, Config::with_block_size(8));
    let b: UnsafeArray<u64> = UnsafeArray::new(&cluster);
    let c2: SyncArray<u64> = SyncArray::new(&cluster);
    a.resize(8);
    b.resize(8);
    c2.resize(8);
    assert!(
        Arc::strong_count(&cluster) >= 4,
        "structures share the cluster"
    );
}

#[test]
fn retries_are_charged_to_the_initiating_locale() {
    // Every remote GET fails; the retry budget is spent by whichever
    // locale initiated the access, not the (innocent) block owner.
    let plan = FaultPlan::new(11).fail_gets(1.0);
    let cluster = Cluster::builder()
        .topology(Topology::new(2, 1))
        .fault_plan(plan)
        .build();
    let retry = RetryPolicy::new(3, std::time::Duration::from_secs(5));
    let a: QsbrArray<u64> = QsbrArray::with_config(
        &cluster,
        Config {
            block_size: 8,
            retry,
            ..Config::default()
        },
    );
    a.resize(16); // block 0 homed on L0, block 1 on L1
    rcuarray_runtime::task::with_locale(LocaleId::new(1), || {
        let _ = a.read(0); // remote GET against L0: fails, retried, degrades
    });
    let l1 = cluster.comm().fault_stats_for(LocaleId::new(1));
    let l0 = cluster.comm().fault_stats_for(LocaleId::ZERO);
    assert_eq!(
        l1.retries,
        u64::from(retry.max_retries),
        "initiator pays the whole retry budget: {l1:?}"
    );
    assert_eq!(l0.retries, 0, "the block owner pays nothing: {l0:?}");
    assert_eq!(l1.gets_attempted, l1.gets_failed, "p=1.0: every GET fails");
    assert_eq!(
        l1.gets_attempted,
        u64::from(retry.max_retries) + 1,
        "first attempt + retries are all attributed to the initiator"
    );
    assert_eq!(a.stats().fallback_reads, 1, "the read degraded locally");
    a.checkpoint();
}

#[test]
fn element_refs_retry_and_count_faulted_charges_like_indexed_access() {
    // A GET or PUT through an `ElemRef` rides the array's own charge
    // path: retried per `Config::retry`, and counted as a fallback read /
    // degraded write once the budget is spent.
    let plan = FaultPlan::new(13).fail_gets(1.0).fail_puts(1.0);
    let cluster = Cluster::builder()
        .topology(Topology::new(2, 1))
        .fault_plan(plan)
        .build();
    let retry = RetryPolicy::new(3, std::time::Duration::from_secs(5));
    let a: QsbrArray<u64> = QsbrArray::with_config(
        &cluster,
        Config {
            block_size: 8,
            retry,
            ..Config::default()
        },
    );
    a.resize(16); // block 0 homed on L0
    let l1 = LocaleId::new(1);
    let before = a.stats();
    let retries_before = cluster.comm().fault_stats_for(l1).retries;
    rcuarray_runtime::task::with_locale(l1, || {
        let r = a.get_ref(0);
        let _ = r.get();
        let after_get = a.stats();
        assert_eq!(after_get.fallback_reads, before.fallback_reads + 1);
        assert_eq!(
            cluster.comm().fault_stats_for(l1).retries,
            retries_before + u64::from(retry.max_retries),
            "the GET spends the initiator's whole retry budget"
        );
        r.set(5);
    });
    let after = a.stats();
    assert_eq!(after.fallback_reads, before.fallback_reads + 1);
    assert_eq!(after.degraded_writes, before.degraded_writes + 1);
    assert_eq!(
        cluster.comm().fault_stats_for(l1).retries,
        retries_before + 2 * u64::from(retry.max_retries),
        "the PUT spends a second whole budget"
    );
    assert_eq!(a.read(0), 5, "the degraded store still lands");
    a.checkpoint();
}

#[test]
fn fault_accounting_balances_attempted_against_failed_per_locale() {
    let plan = FaultPlan::new(23).fail_gets(0.3).fail_puts(0.3);
    let cluster = Cluster::builder()
        .topology(Topology::new(3, 1))
        .fault_plan(plan)
        .build();
    let a: QsbrArray<u64> = QsbrArray::with_config(&cluster, Config::with_block_size(8));
    a.resize(24);
    for l in 0..3u32 {
        rcuarray_runtime::task::with_locale(LocaleId::new(l), || {
            for i in 0..24 {
                a.write(i, i as u64);
                let _ = a.read(i);
            }
        });
    }
    // Attempted counters only include fault-checked (plan-enabled) ops,
    // so completed + failed must reconcile exactly per locale.
    let comm = cluster.comm();
    let totals = comm.fault_totals();
    assert!(
        totals.failed() > 0,
        "p=0.3 must inject something: {totals:?}"
    );
    let per: Vec<_> = (0..3u32)
        .map(|l| comm.fault_stats_for(LocaleId::new(l)))
        .collect();
    let sum_attempted: u64 = per
        .iter()
        .map(|s| s.gets_attempted + s.puts_attempted)
        .sum();
    assert_eq!(sum_attempted, totals.gets_attempted + totals.puts_attempted);
    a.checkpoint();
}
