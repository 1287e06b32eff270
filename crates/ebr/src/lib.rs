#![warn(missing_docs)]

//! # rcuarray-ebr — TLS-free Epoch-Based Reclamation
//!
//! This crate implements the novel extension to Epoch-Based Reclamation
//! presented in §III-A of *RCUArray* (Jenkins, IPDPSW 2018): an EBR scheme
//! that "functions without the requirement for either Task-Local or
//! Thread-Local storage, as the Chapel language currently lacks a notion of
//! either".
//!
//! ## The scheme
//!
//! Classic EBR gives each thread a private epoch slot; writers scan the
//! slots. Without TLS, readers cannot broadcast individually, so they do so
//! *collectively*: a zone keeps
//!
//! * `GlobalEpoch` — an atomic, monotonically increasing counter, and
//! * `EpochReaders` — exactly **two** shared counters, indexed by the
//!   *parity* of the epoch a reader observed.
//!
//! A reader performs a *read–increment–verify* loop ([`EpochZone::pin`],
//! Algorithm 1 lines 9–17): read the epoch, increment the counter of its
//! parity, then re-read the epoch. If the epoch moved in between, the
//! reader undoes its increment and retries; otherwise it has linearized and
//! may access the protected pointer until it un-pins. A writer
//! ([`EpochZone::advance`] + [`EpochZone::wait_for_readers`], lines 5–8)
//! bumps the epoch from `e` to `e+1` and waits for the `e`-parity counter
//! to drain before reclaiming the snapshot readers of `e` might hold.
//!
//! Two counters suffice even across integer overflow because only two
//! snapshots can be live at once (single writer) and consecutive epochs
//! always differ in parity — including at the wrap from the maximum epoch
//! back to `0` (paper Lemma 2; property-tested in this crate).
//!
//! ## Cost model
//!
//! The collective counters are also why the paper measures EBRArray at
//! 2–40% of an unsynchronized array's read throughput: every read performs
//! two sequentially-consistent read-modify-writes on *shared* cache lines.
//! [`OrderingMode`] keeps that ordering swappable only so the model
//! checker can be shown a deliberately relaxed (broken) zone.
//!
//! ## Example
//!
//! ```
//! use rcuarray_ebr::{EpochZone, RcuPtr};
//! use std::sync::Arc;
//!
//! let cell = RcuPtr::new(vec![1, 2, 3], Arc::new(EpochZone::new()));
//! // Readers may run at any time, including during a write.
//! let sum: i32 = cell.read(|v| v.iter().sum());
//! assert_eq!(sum, 6);
//! // A writer clones, mutates the clone, publishes, and reclaims the old
//! // value after all readers of it have evacuated.
//! cell.update(|old| {
//!     let mut new = old.clone();
//!     new.push(4);
//!     new
//! });
//! assert_eq!(cell.read(|v| v.len()), 4);
//! ```

pub mod backoff;
pub mod epoch;
pub mod guard;
pub mod ordering;
pub mod reclaim;

pub use backoff::Backoff;
pub use epoch::{EpochZone, ZoneStats};
pub use guard::EpochGuard;
pub use ordering::OrderingMode;

// The unified reclamation vocabulary and the RCU cell, re-exported so EBR
// consumers need only this crate.
pub use rcuarray_reclaim::{Backpressure, PressureConfig, RcuPtr, Reclaim, ReclaimStats, Retired};
