//! `serve`: a rate-paced open loop against `Service` with the default
//! `ServiceConfig`, over a 2^14-element `EbrArray` (128 KiB, fits in L2).
//! One thread submits 90 % `Get` / 10 % `Put` on a fixed schedule; one
//! collector thread waits on the tickets in order. Latency runs from each
//! request's due time, so a generator stall counts against the service.

use crate::inputs::{self, Oracle, Rng, WRITE_BIT};
use crate::stats::Samples;
use crate::trace::{ObsDelta, Tracer};
use rcuarray::{EbrArray, EbrScheme};
use rcuarray_runtime::{task, LocaleId};
use rcuarray_service::{Client, Request, Response, Service, ServiceConfig, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const LEN: usize = 1 << 14;
/// Far below saturation: each worker sees a request every ~0.5 ms, so
/// most batches hold one request and the 200 µs coalescing delay
/// dominates.
pub const LIGHT_RATE: f64 = 4_000.0;
/// Well into batching (each worker coalesces ~10 requests per 200 µs),
/// yet low enough that a worker's 256-slot queue outlasts one 4 ms
/// scheduler tick without the CPU. Near saturation (~700k/s on a 2-core
/// host) any tick-long preemption of a worker overflows its queue, so
/// most runs would refuse requests.
pub const HEAVY_RATE: f64 = 100_000.0;
/// Requests per window of the windowed p99 (ten requests beyond each
/// window's p99).
pub const WINDOW: usize = 1000;
/// How long a refused request is offered again, and the pause between
/// offers. The window is the service's own deadline.
const RETRY_WINDOW: Duration = Duration::from_millis(50);
const RETRY_PAUSE: Duration = Duration::from_micros(100);
/// A ticket not resolved this long after the rung ends counts as lost.
const RESOLVE_TIMEOUT: Duration = Duration::from_secs(5);
/// In a traced rung, one request in this many gets spans.
const TRACE_EVERY: u64 = 16;

pub struct Setup {
    pub service: Service<u64, EbrScheme>,
    pub oracle: Oracle,
    seed: u64,
}

/// Cluster and array creation, growth and fill, and `Service::start`.
pub fn setup(seed: u64, oracle: Oracle) -> Setup {
    let cluster = inputs::cluster();
    let array = EbrArray::<u64>::with_config(&cluster, rcuarray::Config::default());
    inputs::grow_and_fill(&array, LEN, oracle);
    Setup {
        service: Service::start(array, ServiceConfig::default()),
        oracle,
        seed,
    }
}

/// What one rung of offered load produced.
#[derive(Debug, Default)]
pub struct Rung {
    /// Due time to response, per request; failed requests are `u64::MAX`.
    pub latency_ns: Samples,
    /// How late the generator submitted each request.
    pub lag_ns: Samples,
    /// Spans around `Client::submit` (traced rungs only).
    pub submit_ns: Samples,
    pub submitted: u64,
    /// Requests answered `Shed` or `Failed`, still `Overloaded` at the end
    /// of their retry window, or never answered.
    pub failed: u64,
    /// Answers that were wrong: a `Get` not returning the oracle value, a
    /// `Put` not acknowledged as one applied store, or a ticket resolved
    /// with a response of the wrong kind.
    pub wrong: u64,
    pub obs: ObsDelta,
}

impl Rung {
    /// The median over `WINDOW`-request windows of each window's p99.
    pub fn p99(&self) -> u64 {
        self.latency_ns
            .windowed_quantile(0.99, WINDOW)
            .unwrap_or(u64::MAX)
    }
}

#[derive(Debug, Default)]
pub struct Out {
    pub light: Rung,
    pub heavy: Rung,
}

/// The light rung, then the heavy rung.
pub fn run(setup: &Setup, budget: Duration, tracer: Option<&Tracer>) -> Out {
    Out {
        light: rung(setup, LIGHT_RATE, budget.mul_f64(0.7), 1, tracer),
        heavy: rung(setup, HEAVY_RATE, budget.mul_f64(0.3), 2, tracer),
    }
}

/// One rung: `rate` requests per second for `dur`, from stream `stream`.
pub fn rung(setup: &Setup, rate: f64, dur: Duration, stream: u64, tracer: Option<&Tracer>) -> Rung {
    let n = ((rate * dur.as_secs_f64()) as usize).max(1);
    let ops = inputs::op_stream(&mut Rng::new(setup.seed, 300 + stream), n, LEN as u64);
    let client = setup.service.client();
    let oracle = setup.oracle;
    let period_ns = 1e9 / rate;
    let before = rcuarray_obs::snapshot();
    let (tx, rx) = mpsc::channel::<(u64, Instant, u32, Ticket<u64>)>();
    let mut out = Rung {
        submitted: n as u64,
        lag_ns: Samples::with_capacity(n),
        ..Rung::default()
    };
    std::thread::scope(|s| {
        let client = &client;
        let collector = s.spawn(move || collect(client, rx, oracle, n, tracer));
        task::with_locale(LocaleId::ZERO, || {
            let mut log = tracer.map(Tracer::log);
            let t0 = Instant::now() + Duration::from_micros(500);
            for (k, &e) in ops.iter().enumerate() {
                let due = t0 + Duration::from_nanos((k as f64 * period_ns) as u64);
                let mut now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                    now = Instant::now();
                }
                out.lag_ns.push((now - due).as_nanos() as u64);
                let req = request(e, oracle);
                let ticket = match log.as_mut() {
                    Some(log) if (k as u64).is_multiple_of(TRACE_EVERY) => {
                        let ticket = client.submit(req);
                        let end = Instant::now();
                        out.submit_ns.push((end - now).as_nanos() as u64);
                        let id = log.open();
                        log.close(id, "service.submit", 0, k as u64 + 1, now, end);
                        ticket
                    }
                    _ => client.submit(req),
                };
                tx.send((k as u64, due, e, ticket))
                    .expect("collector thread ended early");
            }
            drop(tx);
        });
        let c = collector.join().expect("collector thread panicked");
        out.latency_ns = c.latency_ns;
        out.failed = c.failed;
        out.wrong = c.wrong;
    });
    out.obs = ObsDelta::between(&before, &rcuarray_obs::snapshot());
    out
}

fn request(e: u32, oracle: Oracle) -> Request<u64> {
    let idx = (e & !WRITE_BIT) as usize;
    if e & WRITE_BIT != 0 {
        Request::Put {
            idx,
            value: oracle.value(idx),
        }
    } else {
        Request::Get { idx }
    }
}

struct Collected {
    latency_ns: Samples,
    failed: u64,
    wrong: u64,
}

/// Wait on every ticket in submission order and check each answer.
/// Each ticket is consumed by its one `wait`, and the count of tickets
/// seen must equal the count submitted: every ticket resolves exactly once.
fn collect(
    client: &Client<u64, EbrScheme>,
    rx: mpsc::Receiver<(u64, Instant, u32, Ticket<u64>)>,
    oracle: Oracle,
    expected: usize,
    tracer: Option<&Tracer>,
) -> Collected {
    let mut log = tracer.map(Tracer::log);
    let mut c = Collected {
        latency_ns: Samples::with_capacity(expected),
        failed: 0,
        wrong: 0,
    };
    for (k, due, e, ticket) in rx {
        let idx = (e & !WRITE_BIT) as usize;
        let mut answer = ticket.wait_timeout(RESOLVE_TIMEOUT);
        // A full queue refuses; a client honouring the refusal offers the
        // request again until it is admitted or its retry window closes.
        // The window opens when the collector reaches the ticket, so a
        // collector still busy with an earlier refusal costs latency, not
        // the request.
        let refused_at = Instant::now();
        while let Ok(Response::Overloaded { .. }) = answer {
            if refused_at.elapsed() > RETRY_WINDOW {
                break;
            }
            std::thread::sleep(RETRY_PAUSE);
            answer = client
                .submit(request(e, oracle))
                .wait_timeout(RESOLVE_TIMEOUT);
        }
        let lat = match answer {
            Ok(resp) => {
                let done = Instant::now();
                if let Some(log) = log.as_mut().filter(|_| k.is_multiple_of(TRACE_EVERY)) {
                    let id = log.open();
                    log.close(id, "service.request", 0, k + 1, due, done);
                }
                match (resp, e & WRITE_BIT != 0) {
                    (Response::Value(Some(v)), false) if v == oracle.value(idx) => {
                        (done - due).as_nanos() as u64
                    }
                    (Response::Done { applied: 1 }, true) => (done - due).as_nanos() as u64,
                    (Response::Overloaded { .. } | Response::Shed { .. } | Response::Failed, _) => {
                        c.failed += 1;
                        u64::MAX
                    }
                    _ => {
                        c.wrong += 1;
                        u64::MAX
                    }
                }
            }
            Err(_) => {
                c.failed += 1;
                u64::MAX
            }
        };
        c.latency_ns.push(lat);
    }
    let n = c.latency_ns.len();
    if n != expected {
        c.wrong += expected.abs_diff(n) as u64;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_answer_is_right_at_light_load() {
        let setup = setup(3, Oracle::new(3));
        let r = rung(&setup, 5_000.0, Duration::from_millis(100), 1, None);
        assert_eq!(r.submitted, 500);
        assert_eq!(r.latency_ns.len(), 500);
        assert_eq!((r.wrong, r.failed), (0, 0));
        assert!(r.p99() < u64::MAX);
    }

    #[test]
    fn a_wrong_expected_value_fails_the_check() {
        let mut setup = setup(4, Oracle::new(4));
        setup.oracle = Oracle::new(5);
        let r = rung(&setup, 5_000.0, Duration::from_millis(100), 1, None);
        // Puts are still acknowledged; Gets of unwritten slots are wrong.
        assert!(r.wrong > 300, "wrong answers: {}", r.wrong);
    }
}
