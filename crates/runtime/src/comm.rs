//! Communication facade: PUT/GET/remote-execute accounting, fault
//! injection and latency, over a pluggable [`Transport`].
//!
//! On the paper's Cray XC-50, inter-node traffic rides the Aries network;
//! Chapel compiles remote accesses into PUT/GET operations "behind the
//! scenes, and so both readers and updaters are completely oblivious of all
//! communication" (paper §III-D, footnote 10). The simulation preserves two
//! observable properties of that network:
//!
//! 1. **Accounting** — every crossing is counted per *initiating* locale, so
//!    tests and the harness can assert locality claims (e.g. that RCUArray
//!    reads touch mostly node-local metadata).
//! 2. **Cost** — an optional [`LatencyModel`] makes remote operations spend
//!    real time, so benchmark rankings reflect the remote/local asymmetry.
//!
//! Since the transport refactor, `CommLayer` is a *facade*: callers hand it
//! a typed [`CommMessage`], it lowers the message to wire operations
//! ([`CommMessage::wire_ops`]), runs the fault plan on each, and only then
//! asks the configured [`Transport`] backend to move the bytes. Fault
//! checks, counters and latency all live here — **not** in the backends —
//! which is what guarantees identical `CommStats`/`FaultStats`/`LinkStats`
//! on shmem and mesh for the same workload.
//!
//! Every communication event is counted exactly once, in one table of
//! cache-line-padded cells indexed by directed link `(from, to)`: a
//! completed remote operation bumps its link's op-kind count and bytes,
//! a local access bumps the diagonal cell `(l, l)`. Per-locale
//! ([`stats_for`](CommLayer::stats_for)), cluster
//! ([`total`](CommLayer::total)) and per-link
//! ([`link_stats`](CommLayer::link_stats)) views are sums over that table
//! at read time.

use crate::fault::{CommError, FaultPlan, OpKind};
use crate::locale::LocaleId;
use crate::transport::{
    CommMessage, MeshConfig, MeshTransport, ShmemTransport, Transport, TransportKind,
};
use rcuarray_obs::LazyCounter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// Telemetry (DESIGN.md §7): the cold-path fault totals across every
// `CommLayer` in the process. Traffic itself is counted only in the
// per-cluster link table below.
static OBS_RETRIES: LazyCounter = LazyCounter::new(
    "rcuarray_comm_retries_total",
    "retry attempts charged by the retry policy",
);
static OBS_FAULTS: LazyCounter = LazyCounter::new(
    "rcuarray_comm_faults_injected_total",
    "remote operations charged as failed (fault plan or transport refusal)",
);

/// How much a remote operation should cost in wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyModel {
    /// Remote operations cost nothing extra (unit tests, fast CI).
    #[default]
    None,
    /// Spin for a fixed number of nanoseconds per remote operation.
    ///
    /// A busy-wait is used instead of `thread::sleep` because sleeps on
    /// commodity OSes have ~50µs+ granularity, far above network latencies
    /// (an Aries GET is on the order of 1-2µs).
    SpinNanos(u64),
    /// Spin `base + per_kb * ceil(bytes/1024)` nanoseconds: a simple
    /// bandwidth-plus-latency model for bulk transfers.
    Linear {
        /// Fixed per-operation latency in nanoseconds.
        base_nanos: u64,
        /// Additional nanoseconds per KiB moved.
        per_kb_nanos: u64,
    },
}

impl LatencyModel {
    /// The delay charged to a remote operation moving `bytes` bytes.
    #[inline]
    pub fn delay_for(&self, bytes: usize) -> Duration {
        match *self {
            LatencyModel::None => Duration::ZERO,
            LatencyModel::SpinNanos(ns) => Duration::from_nanos(ns),
            LatencyModel::Linear {
                base_nanos,
                per_kb_nanos,
            } => {
                let kb = bytes.div_ceil(1024) as u64;
                Duration::from_nanos(base_nanos + per_kb_nanos * kb)
            }
        }
    }

    #[inline]
    fn apply(&self, bytes: usize) {
        let d = self.delay_for(bytes);
        if d.is_zero() {
            return;
        }
        spin_for(d);
    }
}

/// Busy-wait for `d`. Public so benches can calibrate against it.
#[inline]
pub fn spin_for(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

const CACHE_LINE: usize = 64;

/// The counters of one directed link `(from, to)`, padded to a cache line.
/// Off-diagonal cells count completed remote operations initiated by
/// `from` against `to`; the diagonal cell `(l, l)` counts only `local`.
#[repr(align(64))]
#[derive(Debug, Default)]
struct LinkCell {
    gets: AtomicU64,
    puts: AtomicU64,
    ons: AtomicU64,
    bytes: AtomicU64,
    /// Wire operations past the first of a multi-op message, so that
    /// `messages = gets + puts + ons - extra_ops`.
    extra_ops: AtomicU64,
    local: AtomicU64,
}

// Make sure padding actually happened; counters being false-shared would
// poison every measurement in the workspace.
const _: () = assert!(std::mem::align_of::<LinkCell>() >= CACHE_LINE);

impl LinkCell {
    fn stats(&self) -> CommStats {
        CommStats {
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            remote_executes: self.ons.load(Ordering::Relaxed),
            local_accesses: self.local.load(Ordering::Relaxed),
            bytes_moved: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for c in [
            &self.gets,
            &self.puts,
            &self.ons,
            &self.bytes,
            &self.extra_ops,
            &self.local,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// One locale's fault-path counters (attempt/failure/retry bookkeeping),
/// padded like [`LinkCell`]. Kept separate so the healthy fast path
/// touches one cache line, not two.
#[repr(align(64))]
#[derive(Debug, Default)]
struct FaultCounters {
    gets_attempted: AtomicU64,
    puts_attempted: AtomicU64,
    ons_attempted: AtomicU64,
    gets_failed: AtomicU64,
    puts_failed: AtomicU64,
    ons_failed: AtomicU64,
    retries: AtomicU64,
}

const _: () = assert!(std::mem::align_of::<FaultCounters>() >= CACHE_LINE);

/// Snapshot of one locale's (or the whole cluster's) fault accounting.
///
/// `attempted = completed + failed` per kind, where the completed counts
/// are the corresponding [`CommStats`] fields — the split tests use to
/// assert that faults and retries are charged to the *initiating* locale.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// GETs attempted (completed + failed).
    pub gets_attempted: u64,
    /// PUTs attempted (completed + failed).
    pub puts_attempted: u64,
    /// Remote executions attempted (completed + failed).
    pub ons_attempted: u64,
    /// GETs that failed with a [`CommError`].
    pub gets_failed: u64,
    /// PUTs that failed with a [`CommError`].
    pub puts_failed: u64,
    /// Remote executions that failed with a [`CommError`].
    pub ons_failed: u64,
    /// Retry attempts charged through a
    /// [`RetryPolicy`](crate::fault::RetryPolicy).
    pub retries: u64,
}

impl FaultStats {
    /// Total operations that failed.
    pub fn failed(&self) -> u64 {
        self.gets_failed + self.puts_failed + self.ons_failed
    }

    /// Total operations attempted.
    pub fn attempted(&self) -> u64 {
        self.gets_attempted + self.puts_attempted + self.ons_attempted
    }
}

impl std::ops::Add for FaultStats {
    type Output = FaultStats;
    fn add(self, rhs: FaultStats) -> FaultStats {
        FaultStats {
            gets_attempted: self.gets_attempted + rhs.gets_attempted,
            puts_attempted: self.puts_attempted + rhs.puts_attempted,
            ons_attempted: self.ons_attempted + rhs.ons_attempted,
            gets_failed: self.gets_failed + rhs.gets_failed,
            puts_failed: self.puts_failed + rhs.puts_failed,
            ons_failed: self.ons_failed + rhs.ons_failed,
            retries: self.retries + rhs.retries,
        }
    }
}

/// Aggregated communication statistics (a snapshot; counters keep moving).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// GET operations initiated (reads of remote memory).
    pub gets: u64,
    /// PUT operations initiated (writes to remote memory).
    pub puts: u64,
    /// Remote `on`-block executions.
    pub remote_executes: u64,
    /// Accesses that stayed node-local.
    pub local_accesses: u64,
    /// Total bytes crossing locale boundaries.
    pub bytes_moved: u64,
}

impl CommStats {
    /// Total remote operations of any kind.
    pub fn remote_ops(&self) -> u64 {
        self.gets + self.puts + self.remote_executes
    }

    /// Fraction of memory accesses that stayed local, in `[0, 1]`.
    /// Returns 1.0 when there were no accesses at all.
    pub fn locality(&self) -> f64 {
        let total = self.gets + self.puts + self.local_accesses;
        if total == 0 {
            1.0
        } else {
            self.local_accesses as f64 / total as f64
        }
    }
}

impl std::ops::Add for CommStats {
    type Output = CommStats;
    fn add(self, rhs: CommStats) -> CommStats {
        CommStats {
            gets: self.gets + rhs.gets,
            puts: self.puts + rhs.puts,
            remote_executes: self.remote_executes + rhs.remote_executes,
            local_accesses: self.local_accesses + rhs.local_accesses,
            bytes_moved: self.bytes_moved + rhs.bytes_moved,
        }
    }
}

/// Per-link transmission totals (a snapshot; counters keep moving).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages transmitted over the link.
    pub messages: u64,
    /// Payload bytes transmitted over the link.
    pub bytes: u64,
}

/// The cluster's communication fabric: fault plan + accounting + latency
/// in front of a pluggable [`Transport`] backend.
#[derive(Debug)]
pub struct CommLayer {
    num_locales: usize,
    /// The link table, indexed `from * num_locales + to`.
    links: Box<[LinkCell]>,
    fault_counters: Box<[FaultCounters]>,
    latency: LatencyModel,
    fault: FaultPlan,
    transport: Box<dyn Transport>,
}

impl CommLayer {
    /// A fault-free shmem layer (unit tests of comm-adjacent code).
    #[cfg(test)]
    pub(crate) fn new(num_locales: usize, latency: LatencyModel) -> Self {
        Self::with_transport(
            num_locales,
            latency,
            FaultPlan::disabled(),
            TransportKind::Shmem,
            MeshConfig::default(),
        )
    }

    pub(crate) fn with_transport(
        num_locales: usize,
        latency: LatencyModel,
        fault: FaultPlan,
        kind: TransportKind,
        mesh: MeshConfig,
    ) -> Self {
        let transport: Box<dyn Transport> = match kind {
            TransportKind::Shmem => Box::new(ShmemTransport::new(num_locales)),
            // The mesh learns which links reorder at construction: the
            // rules shape dispatcher behaviour, not per-send checks.
            TransportKind::Mesh => Box::new(MeshTransport::new(
                num_locales,
                mesh,
                &fault.reorder_links(),
            )),
        };
        CommLayer {
            num_locales,
            links: (0..num_locales * num_locales)
                .map(|_| LinkCell::default())
                .collect(),
            fault_counters: (0..num_locales).map(|_| FaultCounters::default()).collect(),
            latency,
            fault,
            transport,
        }
    }

    /// The active latency model.
    #[inline]
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }

    /// The installed fault plan (disabled unless the cluster was built with
    /// one).
    #[inline]
    pub fn fault(&self) -> &FaultPlan {
        &self.fault
    }

    /// The transport backend carrying this cluster's cross-locale bytes.
    #[inline]
    pub fn transport(&self) -> &dyn Transport {
        &*self.transport
    }

    /// Send one typed message from `from` to `to`: the single front door
    /// for all cross-locale traffic.
    ///
    /// The message lowers to wire operations; each is fault-checked and
    /// charged to the *initiating* locale. Every wire operation is checked
    /// (consuming its fault-plan stream) even after an earlier one failed,
    /// but a message with any failed operation is **not** transmitted —
    /// `attempted = completed + failed` conservation holds per kind, and
    /// partial delivery never happens. On success the transport moves the
    /// message, the completed counters and bytes are charged to the
    /// `(from, to)` link, and latency is applied per wire operation. A
    /// multi-op message still counts as one link message.
    pub fn send(&self, from: LocaleId, to: LocaleId, msg: CommMessage) -> Result<(), CommError> {
        debug_assert_ne!(from, to, "local accesses use record_local");
        let ops = msg.wire_ops();
        let mut first_err = None;
        for &(op, _) in ops.as_slice() {
            if let Err(e) = self.fault.check(from, to, op) {
                self.charge_failed(from, op);
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if let Err(e) = self.transport.transmit(from, to, &msg) {
            // The backend refused (e.g. a mesh link stayed full past its
            // deadline): the whole message failed, charge every wire op.
            for &(op, _) in ops.as_slice() {
                self.charge_failed(from, op);
            }
            return Err(e);
        }
        for &(op, bytes) in ops.as_slice() {
            self.charge_completed(from, to, op, bytes);
        }
        let extra = ops.as_slice().len() as u64 - 1;
        if extra > 0 {
            self.link(from, to)
                .extra_ops
                .fetch_add(extra, Ordering::Relaxed);
        }
        Ok(())
    }

    #[inline]
    fn link(&self, from: LocaleId, to: LocaleId) -> &LinkCell {
        &self.links[from.index() * self.num_locales + to.index()]
    }

    /// The per-locale fault cells for one operation kind:
    /// `(attempted, failed)`.
    #[inline]
    fn fault_cells(&self, from: LocaleId, op: OpKind) -> (&AtomicU64, &AtomicU64) {
        let fc = &self.fault_counters[from.index()];
        match op {
            OpKind::Get => (&fc.gets_attempted, &fc.gets_failed),
            OpKind::Put => (&fc.puts_attempted, &fc.puts_failed),
            OpKind::RemoteExec => (&fc.ons_attempted, &fc.ons_failed),
        }
    }

    #[cold]
    fn charge_failed(&self, from: LocaleId, op: OpKind) {
        let (attempted, failed) = self.fault_cells(from, op);
        attempted.fetch_add(1, Ordering::Relaxed);
        failed.fetch_add(1, Ordering::Relaxed);
        OBS_FAULTS.inc();
    }

    #[inline]
    fn charge_completed(&self, from: LocaleId, to: LocaleId, op: OpKind, bytes: usize) {
        if self.fault.is_enabled() {
            self.fault_cells(from, op).0.fetch_add(1, Ordering::Relaxed);
        }
        let c = self.link(from, to);
        match op {
            OpKind::Get => {
                c.gets.fetch_add(1, Ordering::Relaxed);
                c.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
            OpKind::Put => {
                c.puts.fetch_add(1, Ordering::Relaxed);
                c.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            }
            OpKind::RemoteExec => {
                c.ons.fetch_add(1, Ordering::Relaxed);
            }
        }
        // An active message (bytes = 0) still costs roughly one small
        // transfer each way: apply(0) charges the base latency.
        self.latency.apply(bytes);
    }

    /// Record a GET of `bytes` bytes initiated by `from` against memory on
    /// `to`, and charge its latency. Fails when the fault plan says so;
    /// a failed operation is charged to `from` as attempted-but-failed and
    /// moves no bytes.
    ///
    /// Runtime-internal shorthand for [`send`](Self::send) with
    /// [`CommMessage::Get`]; code outside `crates/runtime` must speak
    /// `send` (lint rule `raw-comm`).
    #[inline]
    pub fn record_get(&self, from: LocaleId, to: LocaleId, bytes: usize) -> Result<(), CommError> {
        self.send(from, to, CommMessage::Get { bytes })
    }

    /// Record a PUT of `bytes` bytes initiated by `from` into memory on
    /// `to`, and charge its latency. Fault semantics as
    /// [`record_get`](Self::record_get).
    #[inline]
    pub fn record_put(&self, from: LocaleId, to: LocaleId, bytes: usize) -> Result<(), CommError> {
        self.send(from, to, CommMessage::Put { bytes })
    }

    /// Record a remote `on`-block execution from `from` to `to`. Fault
    /// semantics as [`record_get`](Self::record_get).
    #[inline]
    pub fn record_on(&self, from: LocaleId, to: LocaleId) -> Result<(), CommError> {
        self.send(from, to, CommMessage::RemoteExec)
    }

    /// Charge one retry attempt to `locale` (called by
    /// [`RetryPolicy::run`](crate::fault::RetryPolicy::run)).
    #[inline]
    pub fn record_retry(&self, locale: LocaleId) {
        self.fault_counters[locale.index()]
            .retries
            .fetch_add(1, Ordering::Relaxed);
        OBS_RETRIES.inc();
    }

    /// Record an access that stayed on `locale`.
    #[inline]
    pub fn record_local(&self, locale: LocaleId) {
        self.link(locale, locale)
            .local
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of one locale's counters: the sum over the links it
    /// initiated on.
    pub fn stats_for(&self, locale: LocaleId) -> CommStats {
        let start = locale.index() * self.num_locales;
        self.links[start..start + self.num_locales]
            .iter()
            .map(LinkCell::stats)
            .fold(CommStats::default(), |a, b| a + b)
    }

    /// Snapshot summed over all locales.
    pub fn total(&self) -> CommStats {
        self.links
            .iter()
            .map(LinkCell::stats)
            .fold(CommStats::default(), |a, b| a + b)
    }

    /// Transmission totals for the directed link `from → to`.
    pub fn link_stats(&self, from: LocaleId, to: LocaleId) -> LinkStats {
        let c = self.link(from, to);
        let s = c.stats();
        LinkStats {
            messages: s
                .remote_ops()
                .saturating_sub(c.extra_ops.load(Ordering::Relaxed)),
            bytes: s.bytes_moved,
        }
    }

    /// Snapshot of one locale's fault accounting.
    pub fn fault_stats_for(&self, locale: LocaleId) -> FaultStats {
        let c = &self.fault_counters[locale.index()];
        FaultStats {
            gets_attempted: c.gets_attempted.load(Ordering::Relaxed),
            puts_attempted: c.puts_attempted.load(Ordering::Relaxed),
            ons_attempted: c.ons_attempted.load(Ordering::Relaxed),
            gets_failed: c.gets_failed.load(Ordering::Relaxed),
            puts_failed: c.puts_failed.load(Ordering::Relaxed),
            ons_failed: c.ons_failed.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
        }
    }

    /// Fault accounting summed over all locales.
    pub fn fault_totals(&self) -> FaultStats {
        (0..self.fault_counters.len())
            .map(|i| self.fault_stats_for(LocaleId::new(i as u32)))
            .fold(FaultStats::default(), |a, b| a + b)
    }

    /// Reset every counter to zero (between benchmark phases).
    pub fn reset(&self) {
        for c in self.links.iter() {
            c.reset();
        }
        for c in self.fault_counters.iter() {
            c.gets_attempted.store(0, Ordering::Relaxed);
            c.puts_attempted.store(0, Ordering::Relaxed);
            c.ons_attempted.store(0, Ordering::Relaxed);
            c.gets_failed.store(0, Ordering::Relaxed);
            c.puts_failed.store(0, Ordering::Relaxed);
            c.ons_failed.store(0, Ordering::Relaxed);
            c.retries.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(n: usize) -> CommLayer {
        CommLayer::new(n, LatencyModel::None)
    }

    #[test]
    fn counters_attribute_to_initiator() {
        let c = layer(3);
        c.record_get(LocaleId::new(1), LocaleId::new(2), 8).unwrap();
        c.record_put(LocaleId::new(1), LocaleId::new(0), 16)
            .unwrap();
        c.record_on(LocaleId::new(2), LocaleId::new(0)).unwrap();
        let l1 = c.stats_for(LocaleId::new(1));
        assert_eq!(l1.gets, 1);
        assert_eq!(l1.puts, 1);
        assert_eq!(l1.bytes_moved, 24);
        let l2 = c.stats_for(LocaleId::new(2));
        assert_eq!(l2.remote_executes, 1);
        let l0 = c.stats_for(LocaleId::new(0));
        assert_eq!(l0, CommStats::default());
    }

    #[test]
    fn total_sums_all_locales() {
        let c = layer(2);
        c.record_get(LocaleId::new(0), LocaleId::new(1), 4).unwrap();
        c.record_get(LocaleId::new(1), LocaleId::new(0), 4).unwrap();
        c.record_local(LocaleId::new(0));
        let t = c.total();
        assert_eq!(t.gets, 2);
        assert_eq!(t.local_accesses, 1);
        assert_eq!(t.remote_ops(), 2);
    }

    #[test]
    fn locality_fraction() {
        let c = layer(2);
        for _ in 0..3 {
            c.record_local(LocaleId::new(0));
        }
        c.record_get(LocaleId::new(0), LocaleId::new(1), 1).unwrap();
        assert!((c.total().locality() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn locality_with_no_traffic_is_one() {
        assert_eq!(layer(1).total().locality(), 1.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = layer(2);
        c.record_get(LocaleId::new(0), LocaleId::new(1), 4).unwrap();
        c.record_local(LocaleId::new(1));
        c.reset();
        assert_eq!(c.total(), CommStats::default());
    }

    #[test]
    fn latency_model_delays() {
        let m = LatencyModel::SpinNanos(500);
        assert_eq!(m.delay_for(0), Duration::from_nanos(500));
        let lin = LatencyModel::Linear {
            base_nanos: 100,
            per_kb_nanos: 10,
        };
        assert_eq!(lin.delay_for(0), Duration::from_nanos(100));
        assert_eq!(lin.delay_for(1), Duration::from_nanos(110));
        assert_eq!(lin.delay_for(2048), Duration::from_nanos(120));
        assert_eq!(LatencyModel::None.delay_for(1 << 20), Duration::ZERO);
    }

    #[test]
    fn spin_for_actually_waits() {
        let start = Instant::now();
        spin_for(Duration::from_micros(200));
        assert!(start.elapsed() >= Duration::from_micros(200));
    }

    #[test]
    fn send_lowers_composite_messages_to_wire_ops() {
        let c = layer(2);
        let (a, b) = (LocaleId::new(0), LocaleId::new(1));
        c.send(a, b, CommMessage::LockAcquire).unwrap();
        let s = c.stats_for(a);
        assert_eq!(s.gets, 1, "lock acquire reads the lock word");
        assert_eq!(s.puts, 1, "…and writes it back");
        assert_eq!(s.bytes_moved, 16);
        c.send(a, b, CommMessage::LockRelease).unwrap();
        assert_eq!(c.stats_for(a).puts, 2);
        assert_eq!(c.stats_for(a).bytes_moved, 24);
        c.send(
            a,
            b,
            CommMessage::Collective {
                kind: crate::transport::CollectiveKind::Reduce,
                bytes: 32,
            },
        )
        .unwrap();
        assert_eq!(c.stats_for(a).gets, 2, "a reduce leg is a GET");
    }

    #[test]
    fn stats_are_identical_across_backends() {
        let run = |kind: TransportKind| {
            let c = CommLayer::with_transport(
                3,
                LatencyModel::None,
                FaultPlan::disabled(),
                kind,
                MeshConfig::default(),
            );
            assert_eq!(c.transport().kind(), kind);
            let (a, b, z) = (LocaleId::new(0), LocaleId::new(1), LocaleId::new(2));
            c.send(a, b, CommMessage::Get { bytes: 64 }).unwrap();
            c.send(b, z, CommMessage::Put { bytes: 8 }).unwrap();
            c.send(z, a, CommMessage::RemoteExec).unwrap();
            c.send(a, z, CommMessage::LockAcquire).unwrap();
            c.record_local(a);
            (c.total(), c.fault_totals())
        };
        let shmem = run(TransportKind::Shmem);
        let mesh = run(TransportKind::Mesh);
        assert_eq!(shmem, mesh, "the facade owns accounting, not the backend");
        assert_eq!(shmem.0.gets, 2);
        assert_eq!(shmem.0.puts, 2);
        assert_eq!(shmem.0.remote_executes, 1);
        assert_eq!(shmem.0.bytes_moved, 64 + 8 + 16);
    }

    #[test]
    fn stats_add() {
        let a = CommStats {
            gets: 1,
            puts: 2,
            remote_executes: 3,
            local_accesses: 4,
            bytes_moved: 5,
        };
        let b = a;
        let s = a + b;
        assert_eq!(s.gets, 2);
        assert_eq!(s.puts, 4);
        assert_eq!(s.remote_executes, 6);
        assert_eq!(s.local_accesses, 8);
        assert_eq!(s.bytes_moved, 10);
    }
}
