//! Availability acceptance suite (DESIGN.md §15): locale death under
//! replication.
//!
//! The contract under test: with `replication_factor = 2`,
//! a seeded plan that kills one locale mid-workload loses nothing —
//! every acknowledged write stays readable (served from a replica),
//! replicated reads never degrade to `Failed`, gauges return to
//! baseline after repair and heal, and a *second* kill beyond the
//! replication factor degrades the answer without corrupting it.
//!
//! The seed defaults to a fixed value so CI is reproducible; the nightly
//! chaos job loops this suite with `RCU_FAULT_SEED=<n>`.

use rcuarray_repro::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Seed for the fault schedules; override with `RCU_FAULT_SEED`.
fn seed() -> u64 {
    std::env::var("RCU_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn rf2_cluster(plan: FaultPlan) -> Arc<Cluster> {
    Cluster::builder()
        .topology(Topology::new(3, 2))
        .fault_plan(plan)
        .build()
}

fn rf2_cfg() -> Config {
    Config {
        block_size: 8,
        replication_factor: 2,
        retry: RetryPolicy::new(8, Duration::from_secs(5)),
        ..Config::default()
    }
}

/// Kill `l` and let the deadline detector notice: one missed probe
/// suspects, the second downs. Probes run from the calling locale
/// (locale 0 in these tests), which observes every peer but itself.
fn evict(c: &Cluster, l: LocaleId) {
    c.fault().set_down(l, true);
    c.probe_membership();
    c.probe_membership();
    assert!(!c.membership().is_up(l), "detector must mark {l:?} Down");
}

#[test]
fn acked_writes_survive_one_locale_death() {
    let c = rf2_cluster(FaultPlan::new(seed()));
    let a: QsbrArray<u64> = QsbrArray::with_config(&c, rf2_cfg());
    a.resize(24); // blocks 0,1,2 homed on locales 0,1,2
    for i in 0..24 {
        a.write(i, 100 + i as u64); // acknowledged
    }
    evict(&c, LocaleId::new(1));
    // Every acked write stays readable; reads of locale-1 blocks
    // fail over to their replica instead of degrading.
    for i in 0..24 {
        assert_eq!(a.read(i), 100 + i as u64, "lost at {i}");
    }
    let s = a.stats();
    assert!(s.failover_reads > 0, "{s:?}");
    assert_eq!(
        s.fallback_reads, 0,
        "replicated reads must not degrade: {s:?}"
    );
    // Writes mid-death re-route their ack to the live replica.
    for i in 8..16 {
        a.write(i, 200 + i as u64);
    }
    for i in 8..16 {
        assert_eq!(a.read(i), 200 + i as u64, "acked write lost at {i}");
    }
    assert_eq!(
        a.stats().degraded_writes,
        0,
        "one dead locale must lose no acked write"
    );
    a.checkpoint();
}

#[test]
fn gauges_return_to_baseline_after_repair_and_heal() {
    let c = rf2_cluster(FaultPlan::new(seed()));
    let a: QsbrArray<u64> = QsbrArray::with_config(&c, rf2_cfg());
    a.resize(24);
    for i in 0..24 {
        a.write(i, 7 + i as u64);
    }
    evict(&c, LocaleId::new(1));
    // Re-replicate the copies stranded on locale 1 to survivors.
    let repaired = a.repair_replicas();
    assert!(repaired > 0, "under-replicated groups must heal");
    assert!(a.stats().rereplicated_bytes > 0);
    // A second pass finds nothing left to do.
    assert_eq!(a.repair_replicas(), 0, "repair must be idempotent");
    // Replica lag drains to zero at the checkpoint — the gauge is
    // back to baseline.
    a.checkpoint();
    assert_eq!(a.stats().replica_lag_bytes, 0);

    // Heal: the locale answers probes again, rejoins as Rejoining,
    // and catches up (stale snapshot + stale copies) before
    // re-entering views.
    c.fault().set_down(LocaleId::new(1), false);
    a.resize(8); // grow while locale 1 is still out — it misses this
    c.probe_membership();
    assert!(
        !c.membership().is_up(LocaleId::new(1)),
        "a rejoining locale must not re-enter views before catch-up"
    );
    a.rejoin_catch_up(LocaleId::new(1));
    assert!(c.membership().is_up(LocaleId::new(1)));
    assert_eq!(c.membership().view().num_members(), 3);
    // The healed locale serves the post-death state, including the
    // resize it missed.
    rcuarray_runtime::task::with_locale(LocaleId::new(1), || {
        for i in 0..24 {
            assert_eq!(a.read(i), 7 + i as u64, "stale at {i}");
        }
        assert_eq!(a.read(30), 0, "missed resize not caught up");
    });
    a.checkpoint();
    assert_eq!(a.stats().replica_lag_bytes, 0);
}

#[test]
fn second_kill_beyond_rf_degrades_but_never_corrupts() {
    let c = rf2_cluster(FaultPlan::new(seed()));
    let a: EbrArray<u64> = EbrArray::with_config(&c, rf2_cfg());
    a.resize(24);
    for i in 0..24 {
        a.write(i, 40 + i as u64);
    }
    // Two concurrent kills: more than rf - 1 = 1 replica can cover.
    evict(&c, LocaleId::new(1));
    evict(&c, LocaleId::new(2));
    // Blocks whose whole replica set is dead degrade to the
    // locale-local snapshot — served, counted, and *correct*.
    for i in 0..24 {
        assert_eq!(a.read(i), 40 + i as u64, "degraded read corrupted at {i}");
    }
    let s = a.stats();
    assert!(
        s.fallback_reads > 0,
        "beyond-rf loss must be visible as degraded reads: {s:?}"
    );
    // Repair has nowhere to put new copies (one survivor hosts the
    // primaries already); it must skip, not corrupt or panic.
    let _ = a.repair_replicas();
    for i in 0..24 {
        assert_eq!(a.read(i), 40 + i as u64, "repair corrupted {i}");
    }
    a.checkpoint();
}

#[test]
fn replicated_service_reads_never_fail_for_one_dead_locale() {
    let c = rf2_cluster(FaultPlan::new(seed()));
    let a: QsbrArray<u64> = QsbrArray::with_config(&c, rf2_cfg());
    a.resize(24);
    let service = Service::start(a, ServiceConfig::default());
    let client = service.client();
    for i in 0..24usize {
        assert_eq!(
            client.call(Request::Put {
                idx: i,
                value: 500 + i as u64
            }),
            Response::Done { applied: 1 },
            "pre-death put refused"
        );
    }
    evict(&c, LocaleId::new(1));
    let failovers_before = slo_snapshot().failovers;
    // Zero `Response::Failed` for replicated reads with a single dead
    // locale: the availability contract's acceptance bar.
    for i in 0..24usize {
        match client.call(Request::Get { idx: i }) {
            Response::Value(Some(v)) => {
                assert_eq!(v, 500 + i as u64, "lost acked write {i}")
            }
            other => panic!("get {i} degraded: {other:?}"),
        }
    }
    match client.call(Request::BatchGet {
        indices: (8..16).collect(),
    }) {
        Response::Values(vs) => {
            for (off, v) in vs.into_iter().enumerate() {
                assert_eq!(v, Some(500 + (8 + off) as u64));
            }
        }
        other => panic!("batch get degraded: {other:?}"),
    }
    // Writes keep landing too, acked through the surviving pool.
    assert_eq!(
        client.call(Request::Put { idx: 9, value: 999 }),
        Response::Done { applied: 1 }
    );
    assert_eq!(
        client.call(Request::Get { idx: 9 }),
        Response::Value(Some(999))
    );
    assert!(
        slo_snapshot().failovers > failovers_before,
        "re-routes must be visible in the SLO snapshot"
    );
    service.shutdown();
}

#[test]
fn same_seed_kill_schedule_fingerprint_is_bit_stable() {
    let run = |s: u64| {
        let plan = FaultPlan::new(s).fail_gets(0.05).fail_puts(0.05);
        let c = rf2_cluster(plan);
        let a: QsbrArray<u64> = QsbrArray::with_config(&c, rf2_cfg());
        a.resize(24);
        for i in 0..24 {
            a.write(i, i as u64);
        }
        evict(&c, LocaleId::new(1));
        let mut sum = 0u64;
        for i in 0..24 {
            sum += a.read(i);
        }
        assert_eq!(sum, (0..24).sum::<u64>(), "kill schedule lost a write");
        for i in 8..16 {
            a.write(i, i as u64 * 10);
        }
        a.repair_replicas();
        a.checkpoint();
        let links: Vec<LinkStats> = (0..9)
            .map(|i| {
                c.comm()
                    .link_stats(LocaleId::new(i / 3), LocaleId::new(i % 3))
            })
            .collect();
        (
            c.fault().fingerprint(),
            c.fault().fault_count(),
            a.stats().fault,
            (c.comm().total(), c.comm().fault_totals(), links),
        )
    };
    let (fp1, n1, st1, comm1) = run(seed());
    let (fp2, n2, st2, comm2) = run(seed());
    assert!(n1 > 0, "schedule must contain faults");
    assert_eq!(fp1, fp2, "same seed must reproduce the same fault schedule");
    assert_eq!(n1, n2);
    assert_eq!(st1, st2, "fault accounting must replay exactly");
    assert_eq!(comm1, comm2, "comm and link tables must replay exactly");
    let (fp3, ..) = run(seed() ^ 0x9E37_79B9_7F4A_7C15);
    assert_ne!(fp1, fp3, "distinct seeds should diverge");
}

#[test]
fn rf1_preserves_the_old_degradation_contract() {
    // At replication_factor = 1 (the default) nothing of the paper's
    // behavior changes: a dead locale degrades reads to the local
    // snapshot, exactly as before this layer existed.
    let c = Cluster::builder()
        .topology(Topology::new(2, 2))
        .fault_plan(FaultPlan::new(seed()))
        .build();
    let a: QsbrArray<u64> = QsbrArray::with_config(
        &c,
        Config {
            replication_factor: 1,
            ..rf2_cfg()
        },
    );
    a.resize(16);
    for i in 0..16 {
        a.write(i, 100 + i as u64);
    }
    evict(&c, LocaleId::new(1));
    for i in 0..16 {
        assert_eq!(a.read(i), 100 + i as u64);
    }
    let s = a.stats();
    assert!(s.fallback_reads > 0, "{s:?}");
    assert_eq!(s.failover_reads, 0, "rf=1 has no replicas: {s:?}");
    assert_eq!(a.repair_replicas(), 0);
    a.checkpoint();
}
