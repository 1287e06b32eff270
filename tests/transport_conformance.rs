//! Communication-layer conformance suite: the contract every message
//! through `CommLayer::send` honors (DESIGN.md §14).
//!
//! The contract, in order of appearance:
//!
//! * accounting is exact and deterministic: two fresh clusters with the
//!   same seed, fed the same script or workload, read back identical
//!   `CommStats` / `FaultStats` / `LinkStats` and fault fingerprints;
//!   the conservation invariant `attempted = completed + failed` holds
//!   per operation kind, and per-locale bytes are the sum of that
//!   locale's outbound link bytes;
//! * faults surface as `CommError` — a partitioned link *refuses*
//!   promptly instead of hanging;
//! * per-link fault rules (partition, one-way delay, drop-with-retry)
//!   are directed: the reverse link is unaffected;
//! * the serving layer degrades *answers*, not availability, when a
//!   link partitions under it.

use rcuarray_repro::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn l(i: u32) -> LocaleId {
    LocaleId::new(i)
}

fn cluster_on(locales: usize, plan: FaultPlan) -> Arc<Cluster> {
    Cluster::builder()
        .topology(Topology::new(locales, 2))
        .fault_plan(plan)
        .build()
}

/// A fixed message script exercising the whole vocabulary, attributed
/// to several initiating locales. Used by the same-seed determinism
/// tests: two fresh clusters must account it identically.
fn run_script(c: &Cluster) -> Vec<Result<(), CommError>> {
    let msgs: [(u32, u32, CommMessage); 8] = [
        (0, 1, CommMessage::Get { bytes: 64 }),
        (0, 2, CommMessage::Put { bytes: 32 }),
        (1, 0, CommMessage::RemoteExec),
        (1, 2, CommMessage::LockAcquire),
        (1, 2, CommMessage::LockRelease),
        (2, 0, CommMessage::Put { bytes: 24 }),
        (2, 1, CommMessage::Get { bytes: 16 }),
        (0, 1, CommMessage::Put { bytes: 8 }),
    ];
    msgs.iter()
        .map(|&(from, to, msg)| c.comm().send(l(from), l(to), msg))
        .collect()
}

#[test]
fn link_stats_meter_messages_and_bytes_per_directed_link() {
    let c = cluster_on(2, FaultPlan::disabled());
    c.comm()
        .send(l(0), l(1), CommMessage::Put { bytes: 100 })
        .unwrap();
    c.comm().send(l(0), l(1), CommMessage::LockAcquire).unwrap();
    c.comm().record_local(l(0));
    let fwd = c.comm().link_stats(l(0), l(1));
    assert_eq!(fwd.messages, 2, "a lock acquire is one message");
    assert_eq!(fwd.bytes, 116, "100 + 16 (lock round trip)");
    let rev = c.comm().link_stats(l(1), l(0));
    assert_eq!((rev.messages, rev.bytes), (0, 0), "links are directed");
    assert_eq!(
        c.comm().link_stats(l(0), l(0)),
        LinkStats::default(),
        "a local access crosses no link"
    );
}

#[test]
fn locale_bytes_are_the_sum_of_their_link_bytes() {
    let c = cluster_on(3, FaultPlan::disabled());
    assert!(run_script(&c).iter().all(Result::is_ok));
    let mut messages = 0;
    for from in 0..3 {
        let links: Vec<LinkStats> = (0..3)
            .map(|to| c.comm().link_stats(l(from), l(to)))
            .collect();
        assert_eq!(
            c.comm().stats_for(l(from)).bytes_moved,
            links.iter().map(|s| s.bytes).sum::<u64>(),
            "locale {from} bytes vs its outbound links"
        );
        messages += links.iter().map(|s| s.messages).sum::<u64>();
    }
    assert_eq!(messages, 8, "one link message per script entry");
}

#[test]
fn reset_clears_link_and_locale_counters_on_every_backend() {
    let c = cluster_on(3, FaultPlan::disabled());
    assert!(run_script(&c).iter().all(Result::is_ok));
    c.comm().record_local(l(0));
    assert_ne!(c.comm().link_stats(l(0), l(1)), LinkStats::default());
    c.comm().reset();
    assert_eq!(
        c.comm().link_stats(l(0), l(1)),
        LinkStats::default(),
        "link counters must not read stale after a reset"
    );
    assert_eq!(c.comm_stats(), CommStats::default());
}

/// Every counter one locale owns: its comm and fault totals and its
/// outbound link cells.
fn per_locale_accounting(c: &Cluster) -> Vec<(CommStats, FaultStats, Vec<LinkStats>)> {
    (0..c.num_locales() as u32)
        .map(|i| {
            (
                c.comm().stats_for(l(i)),
                c.comm().fault_stats_for(l(i)),
                (0..c.num_locales() as u32)
                    .map(|to| c.comm().link_stats(l(i), l(to)))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn clean_script_accounts_identically_on_every_backend() {
    // Two fresh clusters, one script: the link table is a pure function
    // of the messages sent.
    let run = || {
        let c = cluster_on(3, FaultPlan::disabled());
        let results = run_script(&c);
        assert!(results.iter().all(Result::is_ok), "clean plan");
        (per_locale_accounting(&c), c.fault().fingerprint())
    };
    let first = run();
    assert_eq!(run(), first, "per-locale accounting must replay exactly");
}

#[test]
fn faulty_script_accounts_identically_and_conserves_attempts() {
    // Same seed → same deterministic fault streams on two fresh
    // clusters: outcomes, stats and the event-log fingerprint all agree.
    let run = || {
        let plan = FaultPlan::new(0xFEED).fail_gets(0.4).fail_puts(0.4);
        let c = cluster_on(3, plan);
        let results: Vec<bool> = run_script(&c).iter().map(Result::is_ok).collect();
        let totals = (c.comm().total(), c.comm().fault_totals());
        let f = totals.1;
        assert!(f.failed() > 0, "p=0.4 over the script must fault");
        assert_eq!(
            f.gets_attempted,
            totals.0.gets + f.gets_failed,
            "GET conservation"
        );
        assert_eq!(
            f.puts_attempted,
            totals.0.puts + f.puts_failed,
            "PUT conservation"
        );
        assert_eq!(
            f.ons_attempted,
            totals.0.remote_executes + f.ons_failed,
            "remote-exec conservation"
        );
        (
            results,
            totals,
            per_locale_accounting(&c),
            c.fault().fingerprint(),
        )
    };
    let (results0, totals0, per_locale0, fp0) = run();
    let (results, totals, per_locale, fp) = run();
    assert_eq!(results, results0, "per-message outcomes must match");
    assert_eq!(totals, totals0, "cluster totals must match");
    assert_eq!(per_locale, per_locale0, "per-locale accounting must match");
    assert_eq!(fp, fp0, "fault event fingerprints must match");
}

#[test]
fn workload_stats_match_across_backends() {
    // A real upper-layer workload (remote writes + reads through the
    // array) accounts identically on two fresh same-seed clusters.
    let run = || {
        let c = cluster_on(2, FaultPlan::disabled());
        let a: QsbrArray<u64> = QsbrArray::with_config(&c, Config::with_block_size(8));
        a.resize(32);
        for i in 0..32 {
            a.write(i, i as u64);
        }
        for i in 0..32 {
            assert_eq!(a.read(i), i as u64);
        }
        a.checkpoint();
        (
            c.comm().total(),
            per_locale_accounting(&c),
            c.fault().fingerprint(),
        )
    };
    let first = run();
    assert_eq!(run(), first, "workload accounting must replay exactly");
    assert!(
        first.0.remote_ops() > 0,
        "the workload must actually go remote"
    );
}

#[test]
fn partitioned_link_refuses_promptly_in_one_direction_and_heals() {
    let c = cluster_on(2, FaultPlan::new(7).partition_link(l(0), l(1)));
    let start = Instant::now();
    let err = c
        .comm()
        .send(l(0), l(1), CommMessage::Get { bytes: 8 })
        .unwrap_err();
    assert!(
        matches!(err, CommError::Partitioned { .. }),
        "expected Partitioned, got {err:?}"
    );
    assert!(!err.is_retryable(), "a partition is standing");
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "partition must refuse fast, not block until a timeout"
    );
    // The reverse link is unaffected — partitions are directed.
    c.comm()
        .send(l(1), l(0), CommMessage::Get { bytes: 8 })
        .expect("reverse direction must stay up");
    // Heal at runtime; traffic resumes.
    c.fault().set_link_partitioned(l(0), l(1), false);
    c.comm()
        .send(l(0), l(1), CommMessage::Get { bytes: 8 })
        .expect("healed link must carry traffic again");
}

#[test]
fn one_way_delay_is_asymmetric() {
    let delay = Duration::from_millis(3);
    let c = cluster_on(2, FaultPlan::new(7).delay_link(l(0), l(1), delay));
    let start = Instant::now();
    c.comm()
        .send(l(0), l(1), CommMessage::Put { bytes: 8 })
        .unwrap();
    let slow = start.elapsed();
    assert!(
        slow >= delay,
        "delayed link must pay its extra latency ({slow:?})"
    );
    let start = Instant::now();
    for _ in 0..8 {
        c.comm()
            .send(l(1), l(0), CommMessage::Put { bytes: 8 })
            .unwrap();
    }
    assert!(
        start.elapsed() < delay * 8,
        "the reverse link must not pay the one-way delay"
    );
}

#[test]
fn dropped_link_surfaces_transient_errors_that_retries_absorb() {
    let c = cluster_on(2, FaultPlan::new(11).drop_link(l(0), l(1), 0.5));
    let mut failures = 0u32;
    for _ in 0..64 {
        // Drop-with-retry: each refusal is Transient (retryable);
        // a bounded retry loop always gets through at p=0.5.
        let mut attempts = 0;
        loop {
            match c.comm().send(l(0), l(1), CommMessage::Put { bytes: 8 }) {
                Ok(()) => break,
                Err(e) => {
                    assert!(
                        matches!(e, CommError::Transient { .. }),
                        "drops surface as Transient, got {e:?}"
                    );
                    assert!(e.is_retryable());
                    failures += 1;
                    attempts += 1;
                    assert!(attempts < 100, "p=0.5 cannot fail 100 times");
                }
            }
        }
    }
    assert!(failures > 0, "p=0.5 over 64 sends must drop some");
    let f = c.comm().fault_totals();
    assert_eq!(f.puts_failed, failures as u64);
    assert_eq!(f.puts_attempted, 64 + failures as u64, "conservation");
}

/// Satellite: the serving layer under a partition. Requests whose
/// worker pool sits across the cut get an immediate `Response::Failed`
/// (degraded answer); local requests and the service itself stay fully
/// available, and healing the link restores remote answers.
#[test]
fn service_degrades_answers_not_availability_under_partition() {
    let c = cluster_on(2, FaultPlan::new(5));
    let array: EbrArray<u64> = EbrArray::with_config(&c, Config::with_block_size(8));
    array.resize(16); // block 0 → L0, block 1 → L1
    for i in 0..16 {
        array.write(i, 100 + i as u64);
    }
    let service = Service::start(array, ServiceConfig::default());
    let client = service.client();

    // Healthy: both locales answer.
    assert_eq!(
        client.call(Request::Get { idx: 1 }),
        Response::Value(Some(101))
    );
    assert_eq!(
        client.call(Request::Get { idx: 9 }),
        Response::Value(Some(109))
    );

    c.fault().set_link_partitioned(l(0), l(1), true);
    // The dispatch to L1's worker pool crosses the cut: degraded answer,
    // returned promptly — never a hang.
    let start = Instant::now();
    let denied = client.call(Request::Get { idx: 9 });
    assert_eq!(denied, Response::Failed, "cross-cut request must degrade");
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "degraded answer must be prompt, not a timeout"
    );
    // Availability is intact: locale-0 requests still answer.
    assert_eq!(
        client.call(Request::Get { idx: 1 }),
        Response::Value(Some(101))
    );
    assert_eq!(
        client.call(Request::Put { idx: 2, value: 42 }),
        Response::Done { applied: 1 }
    );
    // Growth replicates blocks across the cut, so it degrades too — but
    // as a prompt retryable answer, not a wedged worker.
    let start = Instant::now();
    let grow = client.call(Request::Grow { additional: 16 });
    assert!(
        grow.is_retryable(),
        "growth across the cut must degrade, got {grow:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(1));

    c.fault().set_link_partitioned(l(0), l(1), false);
    assert_eq!(
        client.call(Request::Get { idx: 9 }),
        Response::Value(Some(109)),
        "healing the link restores remote answers"
    );
    assert!(matches!(
        client.call(Request::Grow { additional: 16 }),
        Response::Grown(n) if n >= 32
    ));
    service.shutdown();
}
