#![warn(missing_docs)]

//! # rcuarray-baselines — every comparator from the paper's evaluation
//!
//! The RCUArray paper measures EBR and QSBR against two non-RCU
//! baselines. Both are implemented here, from scratch, on the same
//! simulated runtime so comparisons are apples-to-apples:
//!
//! * [`UnsafeArray`] — the paper's *ChapelArray*: an unsynchronized array
//!   over Chapel's standard `BlockDist` (contiguous chunk per locale).
//!   Reads/updates are raw; a resize deep-copies every element into a
//!   larger allocation and is **not** safe to run concurrently with
//!   anything (the very problem RCUArray solves).
//! * [`SyncArray`] — the paper's *SyncArray*: "a safer variant … that uses
//!   mutual exclusion via sync variables". Every operation, including
//!   reads, takes a cluster-wide full/empty lock.

pub mod sync_array;
pub mod unsafe_array;

pub use sync_array::SyncArray;
pub use unsafe_array::UnsafeArray;
