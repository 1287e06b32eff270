#![warn(missing_docs)]

//! # rcuarray-runtime — a simulated Chapel-like multi-locale runtime
//!
//! The RCUArray paper (Jenkins, IPDPSW 2018) implements its array in the
//! Chapel language and evaluates it on a 32-node Cray XC-50. The algorithms
//! depend on a small set of runtime services rather than on Chapel itself:
//!
//! * **locales** — logical nodes of a cluster, each with its own memory;
//! * **tasks** — lightweight threads that always know which locale they are
//!   executing on, plus the `coforall loc in Locales do on loc` idiom that
//!   runs a task on every locale in parallel;
//! * **privatization** — one shallow copy of an object per locale, reachable
//!   through a privatization id (`Pid`) without communication;
//! * **communication** — implicit PUT/GET when a task touches memory that
//!   lives on another locale, and remote-execution (`on` blocks);
//! * **cluster-wide locks**.
//!
//! This crate provides all of those as an in-process simulation. Locales are
//! logical; tasks are OS threads carrying a thread-local locale context; all
//! cross-locale traffic goes through an instrumented [`comm::CommLayer`]
//! which counts PUTs/GETs/remote-executions per locale pair and can inject a
//! configurable latency so that remote accesses cost more than local ones —
//! the property the paper's evaluation exercises.
//!
//! Nothing in this crate knows about RCU; it is a pure substrate. See the
//! `rcuarray` crate for the paper's contribution built on top of it.
//!
//! ## Quick tour
//!
//! ```
//! use rcuarray_runtime::{Cluster, Topology};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let cluster = Cluster::new(Topology::new(4, 2));
//! let hits = AtomicUsize::new(0);
//! // Run one task on every locale, in parallel.
//! cluster.coforall_locales(|loc| {
//!     assert_eq!(rcuarray_runtime::task::current_locale(), loc);
//!     hits.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 4);
//! ```

pub mod comm;
pub mod dist;
pub mod fault;
pub mod global_lock;
pub mod locale;
pub mod privatization;
pub mod task;
pub mod topology;

pub use comm::{CommLayer, CommMessage, CommStats, FaultStats, LatencyModel, LinkStats};
pub use dist::{BlockDist, RoundRobinCounter};
pub use fault::{CommError, FaultAction, FaultEvent, FaultPlan, OpKind, RetryPolicy};
pub use global_lock::{GlobalLock, GlobalLockGuard};
pub use locale::{Locale, LocaleId};
pub use privatization::{Pid, PrivHandle, PrivTable};
pub use task::{current_locale, TaskScope};
pub use topology::Topology;

use std::sync::Arc;

/// A simulated cluster: the root object of the runtime.
///
/// A `Cluster` owns the topology (how many locales, how many tasks per
/// locale the evaluation should spawn), the communication layer, the
/// privatization table and the per-locale bookkeeping. It is always shared
/// behind an [`Arc`]; every distributed data structure in this workspace
/// holds a clone.
pub struct Cluster {
    topology: Topology,
    locales: Box<[Locale]>,
    comm: CommLayer,
    privatization: PrivTable,
}

/// Step-by-step construction of a [`Cluster`]: topology, latency model
/// and fault plan. Obtained from [`Cluster::builder`].
#[derive(Debug, Default)]
pub struct ClusterBuilder {
    topology: Option<Topology>,
    latency: LatencyModel,
    fault_plan: FaultPlan,
}

/// The transport a cluster's communication rides: shared memory plus the
/// [`CommLayer`] link table, the only one there is. Kept only because the
/// `rcubench` benchmark still names it in [`ClusterBuilder::backend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Shared memory: every locale's memory is one address space.
    #[default]
    Shmem,
}

impl ClusterBuilder {
    /// Set the topology (locales × tasks per locale).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Shorthand: `n` locales, one task per locale.
    pub fn locales(mut self, n: usize) -> Self {
        self.topology = Some(Topology::new(n, 1));
        self
    }

    /// Slow remote accesses down by `latency`.
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Install a fault plan; without this call the cluster is fault-free.
    pub fn fault_plan(mut self, plan: fault::FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Changes nothing: [`TransportKind::Shmem`] is the one transport.
    /// Kept only because the `rcubench` benchmark still calls it.
    pub fn backend(self, _: TransportKind) -> Self {
        self
    }

    /// Build the cluster. Defaults: 1 locale, no latency, no faults.
    pub fn build(self) -> Arc<Cluster> {
        let topology = self.topology.unwrap_or_else(|| Topology::new(1, 1));
        let n = topology.num_locales();
        assert!(
            n <= fault::MAX_FAULT_LOCALES,
            "fault tracking supports at most {} locales",
            fault::MAX_FAULT_LOCALES
        );
        let locales = (0..n)
            .map(|i| Locale::new(LocaleId::new(i as u32)))
            .collect();
        Arc::new(Cluster {
            locales,
            comm: CommLayer::new(n, self.latency, self.fault_plan),
            privatization: PrivTable::new(),
            topology,
        })
    }
}

impl Cluster {
    /// Start building a cluster (topology / latency / fault plan).
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Create a cluster with the given topology and no injected
    /// communication latency.
    pub fn new(topology: Topology) -> Arc<Self> {
        Self::with_latency(topology, LatencyModel::None)
    }

    /// Create a cluster whose remote accesses are slowed by `latency`.
    pub fn with_latency(topology: Topology, latency: LatencyModel) -> Arc<Self> {
        Self::builder().topology(topology).latency(latency).build()
    }

    /// Convenience constructor: `n` locales, one task per locale.
    pub fn with_locales(n: usize) -> Arc<Self> {
        Self::new(Topology::new(n, 1))
    }

    /// The cluster topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of locales in the cluster.
    #[inline]
    pub fn num_locales(&self) -> usize {
        self.topology.num_locales()
    }

    /// All locales, in id order.
    #[inline]
    pub fn locales(&self) -> &[Locale] {
        &self.locales
    }

    /// One locale by id. Panics if out of range.
    #[inline]
    pub fn locale(&self, id: LocaleId) -> &Locale {
        &self.locales[id.index()]
    }

    /// The communication layer (counters + latency injection).
    #[inline]
    pub fn comm(&self) -> &CommLayer {
        &self.comm
    }

    /// The privatization table.
    #[inline]
    pub fn privatization(&self) -> &PrivTable {
        &self.privatization
    }

    /// The installed fault plan (disabled unless built with one).
    #[inline]
    pub fn fault(&self) -> &FaultPlan {
        self.comm.fault()
    }

    /// Send one typed message from the current task's locale to `target`
    /// through the comm facade. A message to the task's own locale is a
    /// no-op (nothing crosses a link, nothing is charged).
    ///
    /// This is the front door the upper layers use for composite traffic
    /// (lock acquisition, service dispatch); plain data
    /// movement usually reads better as
    /// [`try_get_from`](Self::try_get_from)/[`try_put_to`](Self::try_put_to).
    #[inline]
    pub fn send_to(&self, target: LocaleId, msg: CommMessage) -> Result<(), CommError> {
        let from = task::current_locale();
        if from == target {
            return Ok(());
        }
        self.comm.send(from, target, msg)
    }

    /// Charge a `bytes`-byte transfer between two locales, initiated by
    /// `from` (a third-party copy, e.g. the `UnsafeArray` baseline's
    /// deep-copy resize moving an element from its old home to its new
    /// one). Equal endpoints are a no-op.
    #[inline]
    pub fn copy_between(
        &self,
        from: LocaleId,
        to: LocaleId,
        bytes: usize,
    ) -> Result<(), CommError> {
        if from == to {
            return Ok(());
        }
        self.comm.send(from, to, CommMessage::Put { bytes })
    }

    /// Execute `f` "on" locale `target`, like Chapel's `on` statement.
    ///
    /// The closure runs on the current OS thread, but the task-local locale
    /// context is switched to `target` for its duration and a
    /// remote-execution is recorded (and delayed, under a latency model)
    /// when `target` differs from the calling task's locale.
    ///
    /// This path is fault-oblivious: an injected failure is charged to the
    /// accounting but the execution proceeds (legacy callers predate the
    /// fault layer). Fault-aware code uses [`try_on`](Self::try_on).
    pub fn on<R>(&self, target: LocaleId, f: impl FnOnce() -> R) -> R {
        let from = task::current_locale();
        if from != target {
            let _ = self.comm.record_on(from, target);
        }
        task::with_locale(target, f)
    }

    /// Fallible [`on`](Self::on): when the fault plan fails the remote
    /// execution, `f` does not run and the error is returned.
    pub fn try_on<R>(&self, target: LocaleId, f: impl FnOnce() -> R) -> Result<R, CommError> {
        let from = task::current_locale();
        if from != target {
            self.comm.record_on(from, target)?;
        }
        Ok(task::with_locale(target, f))
    }

    /// Run `f(locale)` once per locale, in parallel, waiting for all tasks —
    /// Chapel's `coforall loc in Locales do on loc`.
    pub fn coforall_locales<F>(&self, f: F)
    where
        F: Fn(LocaleId) + Sync,
    {
        let n = self.num_locales();
        if n == 1 {
            // Degenerate cluster: run inline, as Chapel's compiler also
            // elides the task spawn for a single-iteration coforall.
            task::with_locale(LocaleId::ZERO, || f(LocaleId::ZERO));
            return;
        }
        std::thread::scope(|s| {
            for i in 0..n {
                let loc = LocaleId::new(i as u32);
                let f = &f;
                s.spawn(move || task::with_locale(loc, || f(loc)));
            }
        });
    }

    /// Spawn `tasks_per_locale` tasks on every locale (the benchmark shape
    /// used throughout the paper's evaluation: "44 tasks per locale") and
    /// wait for all of them. `f` receives `(locale, task index on locale)`.
    pub fn forall_tasks<F>(&self, f: F)
    where
        F: Fn(LocaleId, usize) + Sync,
    {
        let per = self.topology.tasks_per_locale();
        self.spawn_tasks(per, f);
    }

    /// Spawn exactly `per_locale` tasks on every locale and wait for all.
    pub fn spawn_tasks<F>(&self, per_locale: usize, f: F)
    where
        F: Fn(LocaleId, usize) + Sync,
    {
        let n = self.num_locales();
        std::thread::scope(|s| {
            for i in 0..n {
                for t in 0..per_locale {
                    let loc = LocaleId::new(i as u32);
                    let f = &f;
                    s.spawn(move || task::with_locale(loc, || f(loc, t)));
                }
            }
        });
    }

    /// Record (and delay) a GET of `bytes` bytes by the current task from
    /// memory homed on `owner`. No-op accounting-wise when local.
    ///
    /// Fault-oblivious (failures are charged but swallowed); fault-aware
    /// code uses [`try_get_from`](Self::try_get_from).
    #[inline]
    pub fn get_from(&self, owner: LocaleId, bytes: usize) {
        let _ = self.try_get_from(owner, bytes);
    }

    /// Record (and delay) a PUT of `bytes` bytes by the current task into
    /// memory homed on `owner`. No-op accounting-wise when local.
    ///
    /// Fault-oblivious (failures are charged but swallowed); fault-aware
    /// code uses [`try_put_to`](Self::try_put_to).
    #[inline]
    pub fn put_to(&self, owner: LocaleId, bytes: usize) {
        let _ = self.try_put_to(owner, bytes);
    }

    /// Fallible [`get_from`](Self::get_from): fails when the fault plan
    /// drops the GET. Local accesses never fail.
    #[inline]
    pub fn try_get_from(&self, owner: LocaleId, bytes: usize) -> Result<(), CommError> {
        let from = task::current_locale();
        if from != owner {
            self.comm.record_get(from, owner, bytes)
        } else {
            self.comm.record_local(from);
            Ok(())
        }
    }

    /// Fallible [`put_to`](Self::put_to): fails when the fault plan drops
    /// the PUT. Local accesses never fail.
    #[inline]
    pub fn try_put_to(&self, owner: LocaleId, bytes: usize) -> Result<(), CommError> {
        let from = task::current_locale();
        if from != owner {
            self.comm.record_put(from, owner, bytes)
        } else {
            self.comm.record_local(from);
            Ok(())
        }
    }

    /// Aggregate communication statistics across all locales.
    pub fn comm_stats(&self) -> CommStats {
        self.comm.total()
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("topology", &self.topology)
            .field("comm", &self.comm.total())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn cluster_reports_topology() {
        let c = Cluster::new(Topology::new(8, 4));
        assert_eq!(c.num_locales(), 8);
        assert_eq!(c.topology().tasks_per_locale(), 4);
        assert_eq!(c.locales().len(), 8);
    }

    #[test]
    fn coforall_visits_every_locale_once() {
        let c = Cluster::with_locales(6);
        let seen: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
        c.coforall_locales(|loc| {
            seen[loc.index()].fetch_add(1, Ordering::Relaxed);
        });
        for s in &seen {
            assert_eq!(s.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn forall_tasks_spawns_tasks_per_locale() {
        let c = Cluster::new(Topology::new(3, 5));
        let count = AtomicUsize::new(0);
        c.forall_tasks(|_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn on_switches_locale_context_and_counts_remote_execute() {
        let c = Cluster::with_locales(4);
        task::with_locale(LocaleId::new(0), || {
            c.on(LocaleId::new(3), || {
                assert_eq!(current_locale(), LocaleId::new(3));
            });
            assert_eq!(current_locale(), LocaleId::new(0));
        });
        assert_eq!(c.comm_stats().remote_executes, 1);
    }

    #[test]
    fn on_same_locale_is_not_remote() {
        let c = Cluster::with_locales(2);
        task::with_locale(LocaleId::new(1), || {
            c.on(LocaleId::new(1), || {});
        });
        assert_eq!(c.comm_stats().remote_executes, 0);
    }

    #[test]
    fn get_put_accounting_distinguishes_local_and_remote() {
        let c = Cluster::with_locales(2);
        task::with_locale(LocaleId::new(0), || {
            c.get_from(LocaleId::new(1), 8);
            c.put_to(LocaleId::new(1), 8);
            c.get_from(LocaleId::new(0), 8);
        });
        let s = c.comm_stats();
        assert_eq!(s.gets, 1);
        assert_eq!(s.puts, 1);
        assert_eq!(s.local_accesses, 1);
        assert_eq!(s.bytes_moved, 16);
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let d = Cluster::builder().build();
        assert_eq!(d.num_locales(), 1);
        assert!(!d.fault().is_enabled());
        let c = Cluster::builder()
            .locales(3)
            .latency(LatencyModel::SpinNanos(1))
            .fault_plan(FaultPlan::new(11).fail_gets(1.0))
            .build();
        assert_eq!(c.num_locales(), 3);
        assert_eq!(c.comm().latency_model(), LatencyModel::SpinNanos(1));
        assert!(c.fault().is_enabled());
    }

    #[test]
    fn try_ops_fail_under_full_fault_plan_and_legacy_ops_swallow() {
        let c = Cluster::builder()
            .locales(2)
            .fault_plan(FaultPlan::new(2).fail_all(1.0))
            .build();
        task::with_locale(LocaleId::ZERO, || {
            let other = LocaleId::new(1);
            assert!(c.try_get_from(other, 8).is_err());
            assert!(c.try_put_to(other, 8).is_err());
            assert!(c.try_on(other, || unreachable!("must not run")).is_err());
            // Local traffic never faults.
            assert!(c.try_get_from(LocaleId::ZERO, 8).is_ok());
            // Legacy paths complete, charging the failure to the initiator.
            c.get_from(other, 8);
            c.put_to(other, 8);
            let mut ran = false;
            c.on(other, || ran = true);
            assert!(ran, "fault-oblivious on still executes");
        });
        let f = c.comm().fault_stats_for(LocaleId::ZERO);
        assert_eq!(f.gets_failed, 2);
        assert_eq!(f.puts_failed, 2);
        assert_eq!(f.ons_failed, 2);
        assert_eq!(c.comm_stats().remote_ops(), 0, "nothing completed");
    }

    #[test]
    fn nested_on_restores_context() {
        let c = Cluster::with_locales(3);
        task::with_locale(LocaleId::new(0), || {
            c.on(LocaleId::new(1), || {
                c.on(LocaleId::new(2), || {
                    assert_eq!(current_locale(), LocaleId::new(2));
                });
                assert_eq!(current_locale(), LocaleId::new(1));
            });
            assert_eq!(current_locale(), LocaleId::new(0));
        });
    }
}
