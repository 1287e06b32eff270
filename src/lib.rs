#![warn(missing_docs)]

//! # rcuarray-repro — workspace facade
//!
//! This crate re-exports the workspace's public surface so the examples
//! under `examples/` and the integration tests under `tests/` have one
//! import root. Library users should depend on the individual crates:
//!
//! * [`rcuarray`] — the paper's contribution: the parallel-safe
//!   distributed resizable array (`EbrArray`, `QsbrArray`).
//! * [`rcuarray_runtime`] — the simulated multi-locale runtime substrate.
//! * [`rcuarray_ebr`] / [`rcuarray_qsbr`] — the two reclamation schemes.
//! * [`rcuarray_reclaim`] — the `Reclaim` trait every scheme implements,
//!   and `RcuPtr`, the generic RCU cell decoupled from the array.
//! * [`rcuarray_baselines`] — the paper's two non-RCU comparators,
//!   `UnsafeArray` (ChapelArray) and `SyncArray`.
//! * [`rcuarray_service`] — the request-serving front-end (adaptive
//!   batching, admission control, SLO telemetry).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure.

pub use rcuarray;
pub use rcuarray_baselines;
pub use rcuarray_ebr;
pub use rcuarray_obs;
pub use rcuarray_qsbr;
pub use rcuarray_reclaim;
pub use rcuarray_runtime;
pub use rcuarray_service;

/// Convenience prelude for examples and tests.
pub mod prelude {
    pub use rcuarray::{
        Backpressure, Config, EbrArray, ElemRef, Element, LeakArray, PressureConfig, QsbrArray,
        RcuArray, ReclaimStats, Scheme, DEFAULT_BLOCK_SIZE,
    };
    pub use rcuarray_baselines::{SyncArray, UnsafeArray};
    pub use rcuarray_ebr::{EpochGuard, EpochZone};
    pub use rcuarray_qsbr::QsbrDomain;
    pub use rcuarray_reclaim::{RcuPtr, Reclaim};
    pub use rcuarray_runtime::{
        current_locale, Cluster, CommError, CommMessage, CommStats, FaultAction, FaultPlan,
        FaultStats, LatencyModel, LinkStats, LocaleId, OpKind, RetryPolicy, Topology,
    };
    pub use rcuarray_service::{
        slo_snapshot, Client, Request, Response, Service, ServiceConfig, SloSnapshot,
    };
}
