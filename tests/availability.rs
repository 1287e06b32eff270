//! Availability acceptance suite (DESIGN.md §15): locale death under
//! replication, on both transport backends.
//!
//! The contract under test, per ISSUE 10: with `replication_factor = 2`,
//! a seeded plan that kills one locale mid-workload loses nothing —
//! every acknowledged write stays readable (served from a replica),
//! replicated reads never degrade to `Failed`, gauges return to
//! baseline after repair and heal, and a *second* kill beyond the
//! replication factor degrades the answer without corrupting it.
//!
//! The seed defaults to a fixed value so CI is reproducible; the nightly
//! chaos job loops this suite with `RCU_FAULT_SEED=<n>` across both
//! `RCUARRAY_BACKEND` values.

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

/// Every scenario runs on both transports, whatever `RCUARRAY_BACKEND`
/// says — the availability contract is backend-independent.
fn on_both_backends(f: impl Fn(TransportKind)) {
    for kind in [TransportKind::Shmem, TransportKind::Mesh] {
        f(kind);
    }
}

fn rf2_cluster(kind: TransportKind, plan: FaultPlan) -> Arc<Cluster> {
    Cluster::builder()
        .topology(Topology::new(3, 2))
        .fault_plan(plan)
        .backend(kind)
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
    on_both_backends(|kind| {
        let c = rf2_cluster(kind, FaultPlan::new(seed()));
        let a: QsbrArray<u64> = QsbrArray::with_config(&c, rf2_cfg());
        a.resize(24); // blocks 0,1,2 homed on locales 0,1,2
        for i in 0..24 {
            a.write(i, 100 + i as u64); // acknowledged
        }
        evict(&c, LocaleId::new(1));
        // Every acked write stays readable; reads of locale-1 blocks
        // fail over to their replica instead of degrading.
        for i in 0..24 {
            assert_eq!(a.read(i), 100 + i as u64, "[{}] lost at {i}", kind.name());
        }
        let s = a.stats();
        assert!(s.failover_reads > 0, "[{}] {s:?}", kind.name());
        assert_eq!(
            s.fallback_reads,
            0,
            "[{}] replicated reads must not degrade: {s:?}",
            kind.name()
        );
        // Writes mid-death re-route their ack to the live replica.
        for i in 8..16 {
            a.write(i, 200 + i as u64);
        }
        for i in 8..16 {
            assert_eq!(
                a.read(i),
                200 + i as u64,
                "[{}] acked write lost at {i}",
                kind.name()
            );
        }
        assert_eq!(
            a.stats().degraded_writes,
            0,
            "[{}] one dead locale must lose no acked write",
            kind.name()
        );
        a.checkpoint();
    });
}

#[test]
fn gauges_return_to_baseline_after_repair_and_heal() {
    on_both_backends(|kind| {
        let c = rf2_cluster(kind, FaultPlan::new(seed()));
        let a: QsbrArray<u64> = QsbrArray::with_config(&c, rf2_cfg());
        a.resize(24);
        for i in 0..24 {
            a.write(i, 7 + i as u64);
        }
        evict(&c, LocaleId::new(1));
        // Re-replicate the copies stranded on locale 1 to survivors.
        let repaired = a.repair_replicas();
        assert!(
            repaired > 0,
            "[{}] under-replicated groups must heal",
            kind.name()
        );
        assert!(a.stats().rereplicated_bytes > 0, "[{}]", kind.name());
        // A second pass finds nothing left to do.
        assert_eq!(
            a.repair_replicas(),
            0,
            "[{}] repair must be idempotent",
            kind.name()
        );
        // Replica lag drains to zero at the checkpoint — the gauge is
        // back to baseline.
        a.checkpoint();
        assert_eq!(a.stats().replica_lag_bytes, 0, "[{}]", kind.name());

        // Heal: the locale answers probes again, rejoins as Rejoining,
        // and catches up (stale snapshot + stale copies) before
        // re-entering views.
        c.fault().set_down(LocaleId::new(1), false);
        a.resize(8); // grow while locale 1 is still out — it misses this
        c.probe_membership();
        assert!(
            !c.membership().is_up(LocaleId::new(1)),
            "[{}] a rejoining locale must not re-enter views before catch-up",
            kind.name()
        );
        a.rejoin_catch_up(LocaleId::new(1));
        assert!(c.membership().is_up(LocaleId::new(1)), "[{}]", kind.name());
        assert_eq!(c.membership().view().num_members(), 3, "[{}]", kind.name());
        // The healed locale serves the post-death state, including the
        // resize it missed.
        rcuarray_runtime::task::with_locale(LocaleId::new(1), || {
            for i in 0..24 {
                assert_eq!(a.read(i), 7 + i as u64, "[{}] stale at {i}", kind.name());
            }
            assert_eq!(
                a.read(30),
                0,
                "[{}] missed resize not caught up",
                kind.name()
            );
        });
        a.checkpoint();
        assert_eq!(a.stats().replica_lag_bytes, 0, "[{}]", kind.name());
    });
}

#[test]
fn second_kill_beyond_rf_degrades_but_never_corrupts() {
    on_both_backends(|kind| {
        let c = rf2_cluster(kind, FaultPlan::new(seed()));
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
            assert_eq!(
                a.read(i),
                40 + i as u64,
                "[{}] degraded read corrupted at {i}",
                kind.name()
            );
        }
        let s = a.stats();
        assert!(
            s.fallback_reads > 0,
            "[{}] beyond-rf loss must be visible as degraded reads: {s:?}",
            kind.name()
        );
        // Repair has nowhere to put new copies (one survivor hosts the
        // primaries already); it must skip, not corrupt or panic.
        let _ = a.repair_replicas();
        for i in 0..24 {
            assert_eq!(
                a.read(i),
                40 + i as u64,
                "[{}] repair corrupted {i}",
                kind.name()
            );
        }
        a.checkpoint();
    });
}

#[test]
fn replicated_service_reads_never_fail_for_one_dead_locale() {
    on_both_backends(|kind| {
        let c = rf2_cluster(kind, FaultPlan::new(seed()));
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
                "[{}] pre-death put refused",
                kind.name()
            );
        }
        evict(&c, LocaleId::new(1));
        let failovers_before = slo_snapshot().failovers;
        // Zero `Response::Failed` for replicated reads, single dead
        // locale — the ISSUE 10 acceptance bar.
        for i in 0..24usize {
            match client.call(Request::Get { idx: i }) {
                Response::Value(Some(v)) => {
                    assert_eq!(v, 500 + i as u64, "[{}] lost acked write {i}", kind.name())
                }
                other => panic!("[{}] get {i} degraded: {other:?}", kind.name()),
            }
        }
        match client.call(Request::BatchGet {
            indices: (8..16).collect(),
        }) {
            Response::Values(vs) => {
                for (off, v) in vs.into_iter().enumerate() {
                    assert_eq!(v, Some(500 + (8 + off) as u64), "[{}]", kind.name());
                }
            }
            other => panic!("[{}] batch get degraded: {other:?}", kind.name()),
        }
        // Writes keep landing too, acked through the surviving pool.
        assert_eq!(
            client.call(Request::Put { idx: 9, value: 999 }),
            Response::Done { applied: 1 },
            "[{}]",
            kind.name()
        );
        assert_eq!(
            client.call(Request::Get { idx: 9 }),
            Response::Value(Some(999)),
            "[{}]",
            kind.name()
        );
        assert!(
            slo_snapshot().failovers > failovers_before,
            "[{}] re-routes must be visible in the SLO snapshot",
            kind.name()
        );
        service.shutdown();
    });
}

#[test]
fn same_seed_kill_schedule_fingerprint_is_bit_stable() {
    let run = |s: u64, kind: TransportKind| {
        let plan = FaultPlan::new(s).fail_gets(0.05).fail_puts(0.05);
        let c = rf2_cluster(kind, plan);
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
        (
            c.fault().fingerprint(),
            c.fault().fault_count(),
            a.stats().fault,
        )
    };
    on_both_backends(|kind| {
        let (fp1, n1, st1) = run(seed(), kind);
        let (fp2, n2, st2) = run(seed(), kind);
        assert!(n1 > 0, "[{}] schedule must contain faults", kind.name());
        assert_eq!(
            fp1,
            fp2,
            "[{}] same seed must reproduce the same fault schedule",
            kind.name()
        );
        assert_eq!(n1, n2, "[{}]", kind.name());
        assert_eq!(
            st1,
            st2,
            "[{}] fault accounting must replay exactly",
            kind.name()
        );
        let (fp3, _, _) = run(seed() ^ 0x9E37_79B9_7F4A_7C15, kind);
        assert_ne!(fp1, fp3, "[{}] distinct seeds should diverge", kind.name());
    });
}

#[test]
fn rf1_preserves_the_old_degradation_contract() {
    // At replication_factor = 1 (the default) nothing of the paper's
    // behavior changes: a dead locale degrades reads to the local
    // snapshot, exactly as before this layer existed.
    on_both_backends(|kind| {
        let c = Cluster::builder()
            .topology(Topology::new(2, 2))
            .fault_plan(FaultPlan::new(seed()))
            .backend(kind)
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
            assert_eq!(a.read(i), 100 + i as u64, "[{}]", kind.name());
        }
        let s = a.stats();
        assert!(s.fallback_reads > 0, "[{}] {s:?}", kind.name());
        assert_eq!(
            s.failover_reads,
            0,
            "[{}] rf=1 has no replicas: {s:?}",
            kind.name()
        );
        assert_eq!(a.repair_replicas(), 0, "[{}]", kind.name());
        a.checkpoint();
    });
}
