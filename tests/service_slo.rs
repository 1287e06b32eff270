//! SLO acceptance tests for the serving layer (DESIGN.md §11): under a
//! byte-capped reclaim backlog the service answers `Overloaded` instead
//! of wedging; floods shed past the deadline but every ticket resolves;
//! fault injection (`read.kill`, slow locales) degrades answers, never
//! the service; a past-end index fails no in-bounds batch-mate; and
//! the queue-depth gauge returns to baseline once load stops.
//!
//! The SLO counters and gauges are process-wide, so every test holds
//! `SERIAL` — assertions on deltas and baselines need exclusive use.

use rcuarray_repro::prelude::*;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

/// Seed for the probabilistic schedules; override with `RCU_FAULT_SEED`
/// (the nightly chaos job loops this suite over many seeds).
fn seed() -> u64 {
    std::env::var("RCU_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn cluster(locales: usize) -> Arc<Cluster> {
    Cluster::new(Topology::new(locales, 2))
}

fn small_cfg() -> Config {
    Config::with_block_size(8)
}

/// Poll `checkpoint` until the reclaim backlog fully drains.
fn drain<T: Element, S: Scheme>(a: &RcuArray<T, S>) -> bool {
    for _ in 0..1000 {
        a.checkpoint();
        if a.stats().reclaim.pending == 0 {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

/// The tentpole acceptance scenario: a stalled EBR pin drives the
/// byte-capped backlog to its cap while clients keep asking for growth.
/// The service must answer `Response::Overloaded` (not wedge, not
/// panic), keep serving reads throughout, and once the pin drops the
/// backlog and the queue-depth gauge must both return to baseline.
#[test]
fn backpressure_surfaces_as_overloaded_and_service_recovers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cap = 2048u64;
    let c = cluster(2);
    let array: EbrArray<u64> = EbrArray::with_config(
        &c,
        Config {
            pressure: PressureConfig::bounded(cap),
            stall: StallPolicy::after(1, 64),
            ..small_cfg()
        },
    );
    array.resize(8);
    array.write(0, 5);

    let service = Service::start(
        array,
        ServiceConfig {
            // Generous deadline: this test is about refusal, not shedding.
            deadline: Duration::from_secs(5),
            ..ServiceConfig::default()
        },
    );
    let client = service.client();

    std::thread::scope(|s| {
        let (ready_tx, ready_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        s.spawn(|| {
            // Hold a read-side pin open indefinitely: every retirement
            // from the grows below must be evacuated, not freed.
            service.array().with_view(move |v| {
                assert_eq!(v.get(0), 5);
                ready_tx.send(()).unwrap();
                done_rx.recv().unwrap();
            });
        });
        ready_rx.recv().unwrap();

        let mut refusal = None;
        for _ in 0..400 {
            match client.call(Request::Grow { additional: 8 }) {
                Response::Grown(_) => {
                    // Reads keep working while the backlog builds.
                    assert_eq!(
                        client.call(Request::Get { idx: 0 }),
                        Response::Value(Some(5))
                    );
                }
                Response::Overloaded { retry_after } => {
                    refusal = Some(retry_after);
                    break;
                }
                other => panic!("unexpected grow response: {other:?}"),
            }
        }
        let retry_after = refusal.expect("capped backlog never refused growth");
        assert!(retry_after > Duration::ZERO, "retry hint must be usable");

        // Refused growth is not a dead service: reads still answer.
        assert_eq!(
            client.call(Request::Get { idx: 0 }),
            Response::Value(Some(5))
        );

        done_tx.send(()).unwrap();
    });

    // Pin dropped: the evacuated backlog must drain to zero...
    assert!(
        drain(service.array()),
        "backlog failed to drain after the stalled pin released"
    );
    assert_eq!(service.array().stats().reclaim.pending_bytes, 0);
    // ...growth must resume...
    match client.call(Request::Grow { additional: 8 }) {
        Response::Grown(_) => {}
        other => panic!("growth did not resume after recovery: {other:?}"),
    }
    service.shutdown();

    // ...and the gauges are back at baseline with the load gone.
    let snap = slo_snapshot();
    assert_eq!(snap.queue_depth, 0, "queue-depth gauge must return to 0");
    assert!(snap.overloaded >= 1, "the refusal must be counted");
    assert!(
        snap.pins < snap.requests,
        "batch execution must pin less than once per request: {snap}"
    );
}

/// A flood against a tiny admission queue and a nanosecond deadline:
/// requests shed (and possibly refuse) under pressure, but every single
/// ticket resolves — the service never wedges — and the queue-depth
/// gauge returns to zero once the flood stops.
#[test]
fn flood_sheds_past_deadline_but_every_ticket_resolves() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let c = cluster(1);
    let array: QsbrArray<u64> = QsbrArray::with_config(&c, small_cfg());
    array.resize(64);

    let service = Service::start(
        array,
        ServiceConfig {
            queue_capacity: 8,
            // Every admitted request has, by construction, waited
            // longer than this by the time a worker dequeues it.
            deadline: Duration::from_nanos(1),
            ..ServiceConfig::default()
        },
    );
    let client = service.client();
    let shed_before = slo_snapshot().shed;

    let tickets: Vec<_> = (0..500)
        .map(|i| client.submit(Request::Get { idx: i % 64 }))
        .collect();
    let mut resolved = 0usize;
    for t in tickets {
        match t.wait_timeout(Duration::from_secs(10)) {
            Ok(resp) => {
                assert!(
                    matches!(
                        resp,
                        Response::Value(_) | Response::Shed { .. } | Response::Overloaded { .. }
                    ),
                    "unexpected flood response: {resp:?}"
                );
                resolved += 1;
            }
            Err(_) => panic!("a flooded ticket never resolved — the service wedged"),
        }
    }
    assert_eq!(resolved, 500);

    let snap = slo_snapshot();
    assert!(
        snap.shed > shed_before,
        "a nanosecond deadline must shed admitted requests: {snap}"
    );
    service.shutdown();
    assert_eq!(
        slo_snapshot().queue_depth,
        0,
        "queue-depth gauge must return to 0 after the flood"
    );
}

/// Chaos: `read.kill` unwinds the worker's read section mid-batch. The
/// worker's `catch_unwind` turns each kill into `Response::Failed`, the
/// guard's unwind path releases the pin (no wedged reclamation), and the
/// service keeps serving once the trigger exhausts.
#[test]
fn read_kill_fault_degrades_answers_but_service_keeps_serving() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let kills = 3;
    let plan = FaultPlan::new(seed()).trigger("read.kill", 0, kills, FaultAction::Panic);
    let c = Cluster::builder()
        .topology(Topology::new(2, 2))
        .fault_plan(plan)
        .build();
    let array: EbrArray<u64> = EbrArray::with_config(&c, small_cfg());
    array.resize(32);

    let service = Service::start(
        array,
        ServiceConfig {
            deadline: Duration::from_secs(5),
            ..ServiceConfig::default()
        },
    );
    let client = service.client();

    let mut failed = 0usize;
    let mut served = 0usize;
    for i in 0..20 {
        match client.call(Request::Get { idx: i % 32 }) {
            Response::Failed => failed += 1,
            Response::Value(Some(0)) => served += 1,
            other => panic!("unexpected response under read.kill: {other:?}"),
        }
    }
    assert_eq!(
        failed, kills as usize,
        "each armed kill fails exactly one sequential single-request batch"
    );
    assert_eq!(served, 20 - kills as usize, "the service must keep serving");
    assert!(
        service.array().stats().reclaim.guard_panics >= kills,
        "killed read sections must release their guards via unwind"
    );
    // A wedged (leaked) pin would hang this growth forever.
    match client.call(Request::Grow { additional: 8 }) {
        Response::Grown(_) => {}
        other => panic!("growth wedged after killed readers: {other:?}"),
    }
    let snap = slo_snapshot();
    assert!(snap.failures >= kills, "kills must be counted: {snap}");
    service.shutdown();
    assert_eq!(slo_snapshot().queue_depth, 0);
}

/// Chaos: one locale turns slow (every remote charge spins). Batches
/// touching its memory stall long enough that later arrivals blow the
/// deadline and shed; turning the locale healthy again restores normal
/// service, and every ticket resolves throughout.
#[test]
fn slow_locale_causes_sheds_then_service_recovers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plan = FaultPlan::new(seed()).slow_delay(Duration::from_millis(2));
    let c = Cluster::builder()
        .topology(Topology::new(2, 2))
        .fault_plan(plan)
        .build();
    let array: EbrArray<u64> = EbrArray::with_config(&c, small_cfg());
    array.resize(32);

    let service = Service::start(
        array,
        ServiceConfig {
            queue_capacity: 256,
            // Deadline far below the 2ms slow-locale charge, yet well
            // above a healthy queue wait: a worker drains what is queued
            // the moment it wakes, so a lone request waits microseconds.
            deadline: Duration::from_millis(1),
            ..ServiceConfig::default()
        },
    );
    let client = service.client();
    let shed_before = slo_snapshot().shed;

    c.fault().set_slow(LocaleId::new(1), true);
    // Route through the locale-0 pool (first index 0) but touch memory
    // homed on the slow locale (index 9, block 1): every executing batch
    // pays the 2ms remote charge, so queued successors outwait the
    // 1ms deadline and shed.
    let tickets: Vec<_> = (0..64)
        .map(|_| {
            client.submit(Request::BatchGet {
                indices: vec![0, 9],
            })
        })
        .collect();
    for t in tickets {
        assert!(
            t.wait_timeout(Duration::from_secs(10)).is_ok(),
            "a ticket never resolved under the slow locale"
        );
    }
    assert!(
        slo_snapshot().shed > shed_before,
        "a slow locale must shed deadline-blown requests"
    );

    // Healthy again: reads answer normally. The 1ms deadline can still
    // shed an unlucky probe on scheduler jitter, so retry a few times.
    c.fault().set_slow(LocaleId::new(1), false);
    let recovered =
        (0..50).any(|_| client.call(Request::Get { idx: 9 }) == Response::Value(Some(0)));
    assert!(recovered, "service must recover once the locale is healthy");
    service.shutdown();
    assert_eq!(slo_snapshot().queue_depth, 0);
}

/// A client index past the end costs a request only its own element.
/// The client submits `Get`/`Put` on index 0 and on an index past
/// `capacity()` back to back into the one worker's queue, so they often
/// share a batch. Bounds are decided inside the batch's pinned snapshot,
/// so the index-0 requests are always served and the past-end ones answer
/// `Value(None)` / `applied: 0` instead of failing the batch.
#[test]
fn past_end_requests_never_fail_their_batch_mates() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const ROUNDS: u64 = 500;
    let c = cluster(1);
    let array: EbrArray<u64> = EbrArray::with_config(&c, small_cfg());
    array.resize(64);
    let past = array.capacity() + 8;
    let service = Service::start(
        array,
        ServiceConfig {
            workers_per_locale: 1,
            deadline: Duration::from_secs(5),
            ..ServiceConfig::default()
        },
    );
    let client = service.client();
    let before = slo_snapshot();
    for i in 0..ROUNDS {
        let tickets = [
            client.submit(Request::Get { idx: 0 }),
            client.submit(Request::Get { idx: past }),
            client.submit(Request::Put { idx: 0, value: i }),
            client.submit(Request::Put {
                idx: past,
                value: i,
            }),
        ];
        let [near_get, far_get, near_put, far_put] = tickets.map(|t| t.wait());
        assert!(matches!(near_get, Response::Value(Some(_))), "{near_get:?}");
        assert_eq!(far_get, Response::Value(None));
        assert_eq!(near_put, Response::Done { applied: 1 });
        assert_eq!(far_put, Response::Done { applied: 0 });
    }
    let after = slo_snapshot();
    // Every two requests adjacent in the queue pair an in-bounds index
    // with a past-end one, so fewer batches than requests means some
    // batch held both.
    assert!(
        after.batches - before.batches < after.requests - before.requests,
        "no batch held two requests: the shared-batch case went untested"
    );
    service.shutdown();
}
