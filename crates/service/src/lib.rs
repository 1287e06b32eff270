#![warn(missing_docs)]

//! # rcuarray-service — a request-serving front-end over `RcuArray`
//!
//! The ROADMAP's north star is a system *serving* heavy traffic, not one
//! driven directly from bench threads. This crate is that front-end: an
//! in-process service accepting [`Request`]s from many concurrent client
//! sessions and dispatching them to per-locale worker pools over the
//! simulated runtime. Three pillars (DESIGN.md §11):
//!
//! 1. **Adaptive batching.** A woken worker drains what is queued, up
//!    to [`ServiceConfig::max_batch`] requests, without waiting for
//!    more, and executes the whole batch under a *single* read guard via
//!    `RcuArray::read_many` / `write_many`. The paper's own bottleneck
//!    (EBR's seq-cst fetch-add on every read, PAPER.md §1) is exactly the
//!    cost this amortizes: the `rcuarray_service_pins_total` /
//!    `rcuarray_service_requests_total` counter ratio is the measured
//!    amortization factor.
//! 2. **Admission control.** Every worker queue is bounded
//!    ([`BoundedQueue`] — lint rule 8 forbids unbounded queues in this
//!    crate, so admission control cannot be bypassed by construction).
//!    A full queue refuses with [`Response::Overloaded`]; requests that
//!    wait past [`ServiceConfig::deadline`] are shed before execution;
//!    and `Err(Backpressure)` from the reclaim layer (a byte-capped
//!    defer backlog refusing growth) surfaces as
//!    [`Response::Overloaded`] with a `retry_after` hint consumed by the
//!    client-side retry loop — reclamation debt propagates to callers
//!    instead of ballooning.
//! 3. **SLO observability.** Histograms split queue-wait from execute
//!    latency, a gauge tracks aggregate queue depth, and counters tally
//!    sheds / overloads / failures — all in the process-wide
//!    `rcuarray-obs` registry, summarized by [`SloSnapshot`].
//!
//! ```
//! use rcuarray::{Config, EbrArray};
//! use rcuarray_runtime::Cluster;
//! use rcuarray_service::{Request, Response, Service, ServiceConfig};
//!
//! let cluster = Cluster::with_locales(2);
//! let array = EbrArray::<u64>::with_config(&cluster, Config::default());
//! array.resize(1024);
//! let service = Service::start(array, ServiceConfig::default());
//! let client = service.client();
//! assert!(matches!(
//!     client.call(Request::Put { idx: 7, value: 42 }),
//!     Response::Done { applied: 1 }
//! ));
//! assert_eq!(client.call(Request::Get { idx: 7 }), Response::Value(Some(42)));
//! service.shutdown();
//! ```

mod client;
mod metrics;
mod queue;
mod request;
mod service;
mod ticket;

pub use client::Client;
pub use metrics::{slo_snapshot, SloSnapshot};
pub use queue::{BoundedQueue, PopResult};
pub use request::{Request, Response};
pub use service::{Service, ServiceConfig};
pub use ticket::Ticket;
