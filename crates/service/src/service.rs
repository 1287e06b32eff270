//! The service core: per-locale worker pools, bounded admission queues,
//! batch execution of whatever a worker finds queued (DESIGN.md §11).

use crate::client::Client;
use crate::metrics;
use crate::queue::{BoundedQueue, PopResult};
use crate::request::{Request, Response};
use crate::ticket::{Ticket, TicketSlot};
use rcuarray::{Element, RcuArray, Scheme};
use rcuarray_analysis::atomic::{AtomicUsize, Ordering};
use rcuarray_analysis::thread::{self, JoinHandle};
use rcuarray_runtime::{task, CommError, CommMessage, LocaleId};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads per locale (each with its own bounded queue).
    pub workers_per_locale: usize,
    /// Hard capacity of each worker's admission queue; a full queue
    /// refuses with [`Response::Overloaded`].
    pub queue_capacity: usize,
    /// The most requests a worker takes from its queue at once. A woken
    /// worker drains what is queued, up to this many, and executes it
    /// as one batch; it never waits for more to arrive.
    pub max_batch: usize,
    /// Requests that wait in queue longer than this are shed at dequeue
    /// with [`Response::Shed`] instead of being executed.
    pub deadline: Duration,
    /// The `retry_after` hint attached to [`Response::Overloaded`].
    pub retry_after: Duration,
    /// How long an idle worker parks between queue polls; each wakeup
    /// also runs a `checkpoint()` so idle workers never gate reclamation.
    pub idle_park: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers_per_locale: 1,
            queue_capacity: 256,
            max_batch: 32,
            deadline: Duration::from_millis(50),
            retry_after: Duration::from_millis(1),
            idle_park: Duration::from_millis(5),
        }
    }
}

impl ServiceConfig {
    fn validate(&self) {
        assert!(
            self.workers_per_locale >= 1,
            "need at least one worker per locale"
        );
        assert!(self.queue_capacity >= 1, "need queue capacity >= 1");
        assert!(self.max_batch >= 1, "need max_batch >= 1");
    }
}

/// One queued request: the ask, where to answer, and when it was
/// admitted (for queue-wait accounting and deadline shedding).
pub(crate) struct Envelope<T: Element> {
    req: Request<T>,
    slot: Arc<TicketSlot<T>>,
    enqueued: Instant,
}

/// Shared state between the service handle, its clients, and workers.
pub(crate) struct Core<T: Element, S: Scheme> {
    pub(crate) array: RcuArray<T, S>,
    cfg: ServiceConfig,
    /// One bounded queue per worker, indexed `locale * workers_per_locale + w`.
    queues: Vec<BoundedQueue<Envelope<T>>>,
    /// Round-robin spreader across a locale's worker pool.
    rr: AtomicUsize,
    num_locales: usize,
}

impl<T: Element, S: Scheme> Core<T, S> {
    pub(crate) fn new(array: RcuArray<T, S>, cfg: ServiceConfig) -> Arc<Self> {
        cfg.validate();
        let num_locales = array.cluster().num_locales();
        let queues = (0..num_locales * cfg.workers_per_locale)
            .map(|_| BoundedQueue::with_capacity(cfg.queue_capacity))
            .collect();
        Arc::new(Core {
            array,
            cfg,
            queues,
            rr: AtomicUsize::new(0),
            num_locales,
        })
    }

    /// The locale whose worker pool owns `idx`: block-cyclic, matching
    /// the array's own block placement so a worker mostly touches blocks
    /// homed on its locale.
    fn locale_of(&self, idx: usize) -> usize {
        (idx / self.array.config().block_size) % self.num_locales
    }

    fn queue_for(&self, req: &Request<T>) -> usize {
        let locale = match req {
            Request::Get { idx } | Request::Put { idx, .. } => self.locale_of(*idx),
            Request::BatchGet { indices } => indices.first().map_or(0, |&i| self.locale_of(i)),
            Request::BatchPut { entries } => entries.first().map_or(0, |&(i, _)| self.locale_of(i)),
            // Growth is a whole-array operation; serialize it through
            // locale 0's pool so concurrent grows queue behind each other.
            Request::Grow { .. } => 0,
            Request::Scan { range } => self.locale_of(range.start),
        };
        let spread = self.rr.fetch_add(1, Ordering::SeqCst) % self.cfg.workers_per_locale;
        locale * self.cfg.workers_per_locale + spread
    }

    /// Deliver the hand-off active message for queue `qi`: `Some(qi)`
    /// when the queue's home locale accepts it, `None` when the link
    /// refuses (the request then degrades to `Failed`). The comm send
    /// doubles as the liveness probe — a partitioned link refuses
    /// *here*, never hangs.
    fn route(&self, qi: usize) -> Option<usize> {
        let home = LocaleId::new((qi / self.cfg.workers_per_locale) as u32);
        self.array
            .cluster()
            .send_to(home, CommMessage::RemoteExec)
            .ok()
            .map(|()| qi)
    }

    /// Admit `req` or refuse it. Always returns a ticket; a refused
    /// request's ticket is already completed with
    /// [`Response::Overloaded`] (full queue) or [`Response::Failed`]
    /// (no reachable worker pool).
    pub(crate) fn submit(&self, req: Request<T>) -> Ticket<T> {
        metrics::REQUESTS.inc();
        let (ticket, slot) = Ticket::new();
        // Handing the request to another locale's worker pool is an
        // active message through the comm layer. A dead link degrades
        // the answer (`Failed`) rather than availability — the client
        // gets an immediate error, never a hang.
        let qi = match self.route(self.queue_for(&req)) {
            Some(qi) => qi,
            None => {
                metrics::FAILURES.inc();
                slot.complete(Response::Failed);
                return ticket;
            }
        };
        let env = Envelope {
            req,
            slot,
            enqueued: Instant::now(),
        };
        match self.queues[qi].try_push(env) {
            Ok(()) => metrics::QUEUE_DEPTH.add(1),
            Err(env) => {
                metrics::OVERLOADED.inc();
                env.slot.complete(Response::Overloaded {
                    retry_after: self.cfg.retry_after,
                });
            }
        }
        ticket
    }

    /// One worker-loop step on queue `qi`: park until work is queued,
    /// take what is queued (up to `max_batch`), execute it as one batch.
    /// Returns `false` once the queue is closed and drained. Factored out
    /// of [`worker_loop`] so tests can single-step a worker without a
    /// thread.
    pub(crate) fn poll_once(&self, qi: usize) -> bool {
        let mut batch = Vec::new();
        match self.queues[qi].pop_batch(self.cfg.max_batch, self.cfg.idle_park, &mut batch) {
            PopResult::Closed => return false,
            PopResult::TimedOut => {
                // Idle: announce quiescence so this worker never gates
                // reclamation of blocks retired by resizes elsewhere.
                self.array.checkpoint();
                return true;
            }
            PopResult::Item(n) => metrics::QUEUE_DEPTH.add(-(n as i64)),
        }
        self.execute(batch);
        self.array.checkpoint();
        true
    }

    /// Execute one batch: shed expired requests, then fold the
    /// survivors' reads into one `read_many` call and their writes into
    /// one `write_many` call — a single guard pin each, which is the
    /// amortization `pins_total < requests_total` measures.
    fn execute(&self, batch: Vec<Envelope<T>>) {
        metrics::BATCHES.inc();
        let t0 = Instant::now();

        // Bounds are decided inside the pinned snapshot (`read_many`,
        // `write_many` and `read_range` answer for indices past the view
        // instead of panicking), so a client index past the end costs
        // that request its element but never fails its batch-mates.

        // How a ticket's response maps back onto the batch read plan.
        enum Reads {
            One(usize),
            Many(Range<usize>),
        }

        let mut read_plan: Vec<usize> = Vec::new();
        let mut read_acks: Vec<(Arc<TicketSlot<T>>, Reads)> = Vec::new();
        let mut write_plan: Vec<(usize, T)> = Vec::new();
        let mut write_acks: Vec<(Arc<TicketSlot<T>>, Range<usize>)> = Vec::new();
        let mut grows: Vec<(Arc<TicketSlot<T>>, usize)> = Vec::new();
        let mut scans: Vec<(Arc<TicketSlot<T>>, Range<usize>)> = Vec::new();

        for env in batch {
            let waited = env.enqueued.elapsed();
            metrics::QUEUE_WAIT_NS.record(waited.as_nanos() as u64);
            if is_expired(waited, self.cfg.deadline) {
                metrics::SHED.inc();
                env.slot.complete(Response::Shed { waited });
                continue;
            }
            match env.req {
                Request::Get { idx } => {
                    read_acks.push((env.slot, Reads::One(read_plan.len())));
                    read_plan.push(idx);
                }
                Request::BatchGet { indices } => {
                    let start = read_plan.len();
                    read_plan.extend(indices);
                    read_acks.push((env.slot, Reads::Many(start..read_plan.len())));
                }
                Request::Put { idx, value } => {
                    write_acks.push((env.slot, write_plan.len()..write_plan.len() + 1));
                    write_plan.push((idx, value));
                }
                Request::BatchPut { entries } => {
                    let start = write_plan.len();
                    write_plan.extend(entries);
                    write_acks.push((env.slot, start..write_plan.len()));
                }
                Request::Grow { additional } => grows.push((env.slot, additional)),
                Request::Scan { range } => scans.push((env.slot, range)),
            }
        }

        // Reads: one pin for every Get/BatchGet in the batch.
        if !read_acks.is_empty() {
            if !read_plan.is_empty() {
                metrics::PINS.inc();
            }
            let values = catch_unwind(AssertUnwindSafe(|| self.array.read_many(&read_plan))).ok();
            for (slot, shape) in read_acks {
                let resp = match (&values, shape) {
                    (Some(vals), Reads::One(p)) => Response::Value(vals[p]),
                    (Some(vals), Reads::Many(r)) => Response::Values(vals[r].to_vec()),
                    (None, _) => {
                        metrics::FAILURES.inc();
                        Response::Failed
                    }
                };
                slot.complete(resp);
            }
        }

        // Writes: one pin for every Put/BatchPut in the batch.
        if !write_acks.is_empty() {
            if !write_plan.is_empty() {
                metrics::PINS.inc();
            }
            let landed = catch_unwind(AssertUnwindSafe(|| self.array.write_many(&write_plan))).ok();
            for (slot, r) in write_acks {
                let resp = match &landed {
                    Some(landed) => Response::Done {
                        applied: landed[r].iter().filter(|&&l| l).count(),
                    },
                    None => {
                        metrics::FAILURES.inc();
                        Response::Failed
                    }
                };
                slot.complete(resp);
            }
        }

        // Grows: the pressure-sensitive path. A byte-capped reclaim
        // backlog refuses with `Backpressure`, which we surface as
        // `Overloaded` — reclamation debt propagates to the caller.
        for (slot, additional) in grows {
            let resp = match catch_unwind(AssertUnwindSafe(|| self.array.try_resize(additional))) {
                Ok(Ok(new_cap)) => Response::Grown(new_cap),
                Ok(Err(CommError::Backpressure { .. })) => {
                    metrics::OVERLOADED.inc();
                    Response::Overloaded {
                        retry_after: self.cfg.retry_after,
                    }
                }
                Ok(Err(_)) | Err(_) => {
                    metrics::FAILURES.inc();
                    Response::Failed
                }
            };
            slot.complete(resp);
        }

        // Scans: one pin each (`read_range` pins once internally and
        // stops at the end of its view; the rest of the range is `None`).
        for (slot, range) in scans {
            metrics::PINS.inc();
            let resp = match catch_unwind(AssertUnwindSafe(|| self.array.read_range(range.clone())))
            {
                Ok(vals) => {
                    let mut out: Vec<Option<T>> = vals.into_iter().map(Some).collect();
                    out.resize(range.len(), None);
                    Response::Values(out)
                }
                Err(_) => {
                    metrics::FAILURES.inc();
                    Response::Failed
                }
            };
            slot.complete(resp);
        }

        metrics::EXECUTE_NS.record(t0.elapsed().as_nanos() as u64);
    }
}

/// Deadline-based shedding: a request that already waited past its
/// deadline is dropped at dequeue — executing it would burn capacity on
/// an answer the caller has given up on.
fn is_expired(waited: Duration, deadline: Duration) -> bool {
    waited > deadline
}

fn worker_loop<T: Element, S: Scheme>(core: Arc<Core<T, S>>, qi: usize) {
    while core.poll_once(qi) {}
    // Final quiesce so a parked epoch from this worker can't outlive it.
    core.array.checkpoint();
}

/// An in-process request-serving front-end over one [`RcuArray`].
///
/// `start` spawns `workers_per_locale` worker threads per cluster
/// locale, each pinned to its locale (`task::with_locale`) and draining
/// its own bounded queue. Dropping the service (or calling
/// [`shutdown`](Service::shutdown)) closes the queues and joins the
/// workers; queued requests are drained first.
pub struct Service<T: Element, S: Scheme> {
    core: Arc<Core<T, S>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Element, S: Scheme> Service<T, S> {
    /// Take ownership of `array` and start serving it.
    pub fn start(array: RcuArray<T, S>, cfg: ServiceConfig) -> Self {
        let core = Core::new(array, cfg);
        let mut workers = Vec::with_capacity(core.queues.len());
        for locale in 0..core.num_locales {
            for w in 0..cfg.workers_per_locale {
                let qi = locale * cfg.workers_per_locale + w;
                let core = Arc::clone(&core);
                let home = LocaleId::new(locale as u32);
                workers.push(thread::spawn(move || {
                    task::with_locale(home, || worker_loop(core, qi))
                }));
            }
        }
        Service { core, workers }
    }

    /// A client handle for submitting requests (cheap to clone).
    pub fn client(&self) -> Client<T, S> {
        Client::new(Arc::clone(&self.core))
    }

    /// The served array (e.g. for direct inspection in tests).
    pub fn array(&self) -> &RcuArray<T, S> {
        &self.core.array
    }

    /// Submit one request directly, without a client handle.
    pub fn submit(&self, req: Request<T>) -> Ticket<T> {
        self.core.submit(req)
    }

    fn stop(&mut self) {
        for q in &self.core.queues {
            q.close();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Close the admission queues, drain what's left, and join workers.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl<T: Element, S: Scheme> Drop for Service<T, S> {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray::{Config, EbrArray, QsbrArray};
    use rcuarray_analysis::sync::Mutex;
    use rcuarray_runtime::{Cluster, Topology};

    // The SLO counters are process-wide; tests asserting exact deltas
    // must not interleave with other tests that bump the same counters.
    static METRICS_LOCK: Mutex<()> = Mutex::new(());

    fn small_array(locales: usize) -> EbrArray<u64> {
        let cluster = Cluster::new(Topology::new(locales, 2));
        let array = EbrArray::with_config(&cluster, Config::with_block_size(8));
        array.resize(8 * locales * 2);
        array
    }

    #[test]
    fn roundtrip_all_request_kinds() {
        let _serial = METRICS_LOCK.lock();
        let service = Service::start(small_array(2), ServiceConfig::default());
        let client = service.client();
        let cap = service.array().capacity();

        assert_eq!(
            client.call(Request::Put { idx: 3, value: 30 }),
            Response::Done { applied: 1 }
        );
        assert_eq!(
            client.call(Request::Get { idx: 3 }),
            Response::Value(Some(30))
        );
        assert_eq!(
            client.call(Request::Get { idx: cap + 1 }),
            Response::Value(None),
            "out-of-bounds get answers None, it does not kill the worker"
        );
        assert_eq!(
            client.call(Request::BatchPut {
                entries: vec![(0, 1), (9, 2), (cap + 5, 3)]
            }),
            Response::Done { applied: 2 }
        );
        assert_eq!(
            client.call(Request::BatchGet {
                indices: vec![0, 9, cap + 5]
            }),
            Response::Values(vec![Some(1), Some(2), None])
        );
        assert_eq!(
            client.call(Request::Scan { range: 8..12 }),
            Response::Values(vec![Some(0), Some(2), Some(0), Some(0)])
        );
        assert_eq!(
            client.call(Request::Scan {
                range: cap - 2..cap + 2
            }),
            Response::Values(vec![Some(0), Some(0), None, None]),
            "a scan past capacity is clamped, not an error"
        );
        match client.call(Request::Grow { additional: 8 }) {
            Response::Grown(new_cap) => assert!(new_cap >= cap + 8),
            other => panic!("grow failed: {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn full_queue_refuses_with_overloaded() {
        let _serial = METRICS_LOCK.lock();
        // No workers: build the core directly so nothing drains.
        let core = Core::new(
            small_array(1),
            ServiceConfig {
                queue_capacity: 2,
                ..ServiceConfig::default()
            },
        );
        let before = metrics::OVERLOADED.value();
        let mut tickets = Vec::new();
        for i in 0..3 {
            tickets.push(core.submit(Request::Get { idx: i }));
        }
        let last = tickets.pop().unwrap();
        assert!(
            matches!(last.try_wait(), Some(Response::Overloaded { .. })),
            "third push into a capacity-2 queue must refuse immediately"
        );
        assert_eq!(metrics::OVERLOADED.value(), before + 1);
        // Undo the depth the two admitted-but-never-drained requests added.
        metrics::QUEUE_DEPTH.add(-2);
    }

    #[test]
    fn expired_requests_are_shed_at_dequeue() {
        let _serial = METRICS_LOCK.lock();
        let core = Core::new(
            small_array(1),
            ServiceConfig {
                deadline: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
        );
        let before = metrics::SHED.value();
        let ticket = core.submit(Request::Get { idx: 0 });
        std::thread::sleep(Duration::from_millis(5));
        assert!(core.poll_once(0), "queue is open, poll must continue");
        match ticket.wait() {
            Response::Shed { waited } => assert!(waited >= Duration::from_millis(1)),
            other => panic!("expected a shed, got {other:?}"),
        }
        assert_eq!(metrics::SHED.value(), before + 1);
    }

    #[test]
    fn batch_of_gets_pins_once() {
        let _serial = METRICS_LOCK.lock();
        let core = Core::new(
            small_array(1),
            ServiceConfig {
                deadline: Duration::from_secs(60),
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<_> = (0..8)
            .map(|i| core.submit(Request::Get { idx: i }))
            .collect();
        let pins_before = metrics::PINS.value();
        let reqs_before = metrics::REQUESTS.value();
        assert!(core.poll_once(0));
        assert_eq!(
            metrics::PINS.value(),
            pins_before + 1,
            "eight queued gets must share one guard pin"
        );
        assert!(metrics::PINS.value() < reqs_before);
        for t in tickets {
            assert!(matches!(
                t.wait(),
                Response::Value(Some(_)) | Response::Value(None)
            ));
        }
    }

    #[test]
    fn a_backlog_drains_in_max_batch_sized_batches() {
        let _serial = METRICS_LOCK.lock();
        let cfg = ServiceConfig {
            queue_capacity: 64,
            deadline: Duration::from_secs(60),
            ..ServiceConfig::default()
        };
        assert_eq!(cfg.max_batch, 32);
        let core = Core::new(small_array(1), cfg);
        let tickets: Vec<_> = (0..40)
            .map(|i| core.submit(Request::Get { idx: i % 16 }))
            .collect();
        let batches_before = metrics::BATCHES.value();
        let pins_before = metrics::PINS.value();
        let answered = |ts: &[Ticket<u64>]| -> Vec<bool> {
            ts.iter()
                .map(|t| match t.try_wait() {
                    Some(resp) => {
                        assert_eq!(resp, Response::Value(Some(0)));
                        true
                    }
                    None => false,
                })
                .collect()
        };
        assert!(core.poll_once(0));
        assert_eq!(metrics::PINS.value(), pins_before + 1, "32 gets, one pin");
        assert_eq!(
            answered(&tickets),
            [vec![true; 32], vec![false; 8]].concat(),
            "the first poll takes exactly max_batch requests, in FIFO order"
        );
        assert!(core.poll_once(0));
        assert_eq!(metrics::PINS.value(), pins_before + 2, "8 gets, one pin");
        assert_eq!(answered(&tickets[32..]), vec![true; 8]);
        assert_eq!(metrics::BATCHES.value(), batches_before + 2);
    }

    #[test]
    fn expiry_is_strict() {
        let d = Duration::from_millis(5);
        assert!(!is_expired(d, d), "exactly at the deadline still runs");
        assert!(is_expired(d + Duration::from_nanos(1), d));
    }

    #[test]
    fn qsbr_service_roundtrips_too() {
        let _serial = METRICS_LOCK.lock();
        let cluster = Cluster::new(Topology::new(2, 2));
        let array = QsbrArray::<u64>::with_config(&cluster, Config::with_block_size(8));
        array.resize(32);
        let service = Service::start(array, ServiceConfig::default());
        let client = service.client();
        assert_eq!(
            client.call(Request::Put { idx: 1, value: 11 }),
            Response::Done { applied: 1 }
        );
        assert_eq!(
            client.call(Request::Get { idx: 1 }),
            Response::Value(Some(11))
        );
        service.shutdown();
    }
}
