#![warn(missing_docs)]

//! # rcuarray-qsbr — runtime-level Quiescent-State-Based Reclamation
//!
//! This crate implements the QSBR scheme of §III-B of *RCUArray* (Jenkins,
//! IPDPSW 2018): a general-purpose memory-reclamation service the paper
//! embeds in *Chapel's runtime* (which, unlike Chapel code, has access to
//! thread-local storage). It is "decoupled from RCU … extended to make use
//! of epochs in a manner similar to EBR" and "can be used to perform
//! memory reclamation on arbitrary data".
//!
//! ## The scheme (Algorithm 2)
//!
//! * A global, monotonically increasing **`StateEpoch`** denotes the state
//!   of the entire system.
//! * Every participating thread owns a record with an **observed epoch**
//!   and a LIFO **defer list**, all records reachable through a registry
//!   (`TLSList`).
//! * [`QsbrDomain::defer`] (`QSBR_Defer`): bump the `StateEpoch` from `e`
//!   to `e+1`, observe `e+1`, and push the retired object onto the calling
//!   thread's defer list tagged with that *safe epoch*.
//! * [`QsbrDomain::checkpoint`] (`QSBR_Checkpoint`): observe the current
//!   `StateEpoch` — a promise of quiescence of any earlier state — compute
//!   the minimum observed epoch over all threads, then split the defer
//!   list and reclaim every entry whose safe epoch is `<=` that minimum.
//!
//! Because each thread reclaims from its *own* list, reclamation is
//! parallel and lock-free on the defer path (paper: "memory reclamation
//! can be performed in a parallel-safe manner … traversed to determine
//! which objects are safe for memory reclamation in a lockless manner").
//!
//! Reads of QSBR-protected data cost **nothing**: no barriers, no
//! announcements. The price is the contract — a thread must not hold
//! references to protected data across its own checkpoint, defer, park, or
//! registration, and checkpoints must be placed by the application
//! ("strategic placement of checkpoints is required"). Figure 4 of the
//! paper, reproduced by `examples/paper_figures.rs`, measures exactly how
//! checkpoint frequency trades throughput against reclamation latency.
//!
//! ## Park / unpark
//!
//! The paper notes "support for parking and unparking of threads which
//! occurs when a thread is idle" — a parked thread cleans its own defer
//! list, notifies its quiescence, and stops participating in the minimum.
//! [`QsbrDomain::park`]/[`QsbrDomain::unpark`] implement that, and thread
//! exit hands any undeleted defer entries to a domain-wide orphan list so
//! nothing leaks.
//!
//! ## Robustness (DESIGN.md §9)
//!
//! A participant that stops checkpointing gates reclamation forever in
//! the classic protocol. With a [`StallPolicy`] installed
//! ([`QsbrDomain::set_stall_policy`]), a reclaiming checkpoint that sees
//! the minimum trail the state epoch past the policy's lag threshold
//! *quarantines* the straggler: its defer chain is orphaned and it stops
//! participating in the minimum (force-park semantics — the domain
//! asserts a stalled thread holds no protected references, the same
//! contract `park` states). The quarantined thread rejoins automatically
//! at its next defer or checkpoint. A [`PressureConfig`]
//! ([`QsbrDomain::set_pressure`]) additionally bounds the defer backlog
//! in bytes through the unified trait's `try_retire` path.
//!
//! ## Example
//!
//! ```
//! use rcuarray_qsbr::QsbrDomain;
//! use std::sync::Arc;
//!
//! let domain = Arc::new(QsbrDomain::new());
//! // Retire an object: freed at some later checkpoint, once every
//! // participating thread has observed a newer state.
//! let big = vec![0u8; 1024];
//! domain.defer(move || drop(big));
//! // This thread is the only participant, so its own checkpoint suffices.
//! domain.checkpoint();
//! assert_eq!(domain.stats().reclaimed, 1);
//! ```

pub mod defer_list;
pub mod domain;
pub mod reclaim;
pub mod record;
pub mod registry;
pub mod state;

pub use defer_list::{DeferChain, DeferList};
pub use domain::{DomainStats, QsbrDomain};
pub use record::{DeferGuard, ThreadRecord};
pub use registry::Registry;
pub use state::StateEpoch;

// The unified reclamation vocabulary, re-exported so QSBR consumers need
// only this crate.
pub use rcuarray_reclaim::{
    Backpressure, PressureConfig, Reclaim, ReclaimStats, Retired, StallPolicy,
};
