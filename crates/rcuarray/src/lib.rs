#![warn(missing_docs)]

//! # rcuarray — RCUArray: an RCU-like parallel-safe distributed resizable array
//!
//! A from-scratch Rust reproduction of *RCUArray: An RCU-like
//! Parallel-Safe Distributed Resizable Array* (Louis Jenkins, IPDPSW
//! 2018). RCUArray is a block-allocated array distributed across the
//! locales of a (simulated) cluster that allows **read and update
//! operations to occur concurrently with a resize** via Read-Copy-Update.
//!
//! ## How it works
//!
//! * Metadata — the *snapshot*, an ordered list of block pointers — is
//!   privatized per locale and protected by RCU: readers access it
//!   wait-free, a resizing writer clones it, appends new blocks, publishes
//!   the clone, and reclaims the old version once no reader can hold it.
//! * Element storage — fixed-size *blocks* dealt round-robin across
//!   locales — is **recycled** between snapshots: the old snapshot is a
//!   prefix of the new one, so references into the array survive resizes
//!   and updates made through them are never lost (paper Lemma 6).
//! * Reclamation of old snapshots is pluggable at the type level
//!   ([`Scheme`], generalizing the paper's `isQSBR` parameter into a
//!   factory for [`Reclaim`] engines): [`EbrArray`] uses the paper's
//!   novel TLS-free epoch-based scheme (crate `rcuarray-ebr`);
//!   [`QsbrArray`] uses runtime-style quiescent-state-based reclamation
//!   (crate `rcuarray-qsbr`) and gives readers *zero* synchronization
//!   overhead at the price of explicit [`RcuArray::checkpoint`] calls;
//!   [`LeakArray`] never reclaims — the
//!   `UnsafeArray` upper bound through the identical code path, for
//!   measurement only.
//!
//! ## Quickstart
//!
//! ```
//! use rcuarray::{Config, QsbrArray};
//! use rcuarray_runtime::{Cluster, Topology};
//!
//! // A simulated cluster: 4 locales, 2 tasks each.
//! let cluster = Cluster::new(Topology::new(4, 2));
//! let array: QsbrArray<u64> = QsbrArray::with_config(&cluster, Config::with_block_size(64));
//!
//! // Resizes are parallel-safe: readers/updaters never block on them.
//! array.resize(256);
//! array.write(17, 42);
//! assert_eq!(array.read(17), 42);
//!
//! // References survive resizes; updates through them are never lost.
//! let r = array.get_ref(17);
//! array.resize(256);
//! r.set(43);
//! assert_eq!(array.read(17), 43);
//!
//! // QSBR: quiesce this thread so old snapshots can be reclaimed.
//! array.checkpoint();
//! ```

pub mod array;
pub mod block;
pub mod config;
pub mod elem_ref;
pub mod element;
pub mod handle;
pub mod iter;
pub mod placement;
pub mod scheme;
pub mod snapshot;
pub mod stats;

pub use array::{EbrArray, LeakArray, QsbrArray, RcuArray, SnapshotView};
pub use block::{Block, BlockRef, BlockRegistry};
pub use config::{Config, DEFAULT_BLOCK_SIZE};
pub use elem_ref::ElemRef;
pub use element::Element;
pub use iter::Iter;
pub use placement::{BlockGroup, PlacementMap, PlacementPlan};
pub use scheme::{EbrScheme, LeakScheme, QsbrScheme, Scheme};
pub use snapshot::Snapshot;
pub use stats::ArrayStats;

// The unified reclamation vocabulary, re-exported so scheme-generic code
// (and out-of-crate `Scheme` implementations) need only this crate.
pub use rcuarray_reclaim::{
    Backpressure, PressureConfig, Reclaim, ReclaimStats, Retired, StallPolicy,
};

// Fault-injection vocabulary, re-exported so applications handling
// `try_resize` errors or configuring retries need only this crate.
pub use rcuarray_runtime::{CommError, FaultPlan, RetryPolicy};
