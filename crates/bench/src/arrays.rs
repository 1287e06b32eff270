//! One object-safe facade over every array variant the harness compares.
//!
//! Names follow the paper's figures: `EBRArray`, `QSBRArray`,
//! `ChapelArray` (the unsynchronized `UnsafeArray` baseline) and
//! `SyncArray`, plus the additional comparators this reproduction
//! implements (`RwLockArray`, `HazardArray`, `LockFreeVector`).

use rcuarray::{AmortizedArray, Config, EbrArray, LeakArray, QsbrArray};
use rcuarray_baselines::{HazardArray, LockFreeVector, RwLockArray, SyncArray, UnsafeArray};
use rcuarray_ebr::OrderingMode;
use rcuarray_runtime::Cluster;
use std::sync::Arc;

/// Which array variant to construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayKind {
    /// RCUArray under the TLS-free EBR scheme.
    Ebr,
    /// RCUArray under runtime QSBR.
    Qsbr,
    /// RCUArray under QSBR with a bounded per-checkpoint drain.
    Amortized,
    /// RCUArray that never reclaims: the structural upper bound through
    /// the identical code path.
    Leak,
    /// The unsynchronized Chapel block-distributed baseline.
    Chapel,
    /// The sync-variable mutual exclusion baseline.
    Sync,
    /// Reader-writer-lock comparator (§I motivation).
    RwLock,
    /// RCUArray under hazard pointers (§I motivation).
    Hazard,
    /// Dechev et al. lock-free vector (§II related work).
    LockFreeVec,
}

impl ArrayKind {
    /// The four variants the paper's figures plot.
    pub const PAPER: [ArrayKind; 4] = [
        ArrayKind::Ebr,
        ArrayKind::Qsbr,
        ArrayKind::Chapel,
        ArrayKind::Sync,
    ];

    /// The four RCUArray reclamation schemes (one `RcuArray` code path,
    /// four `Scheme` instantiations).
    pub const SCHEMES: [ArrayKind; 4] = [
        ArrayKind::Ebr,
        ArrayKind::Qsbr,
        ArrayKind::Amortized,
        ArrayKind::Leak,
    ];

    /// Every variant the harness knows.
    pub const ALL: [ArrayKind; 9] = [
        ArrayKind::Ebr,
        ArrayKind::Qsbr,
        ArrayKind::Amortized,
        ArrayKind::Leak,
        ArrayKind::Chapel,
        ArrayKind::Sync,
        ArrayKind::RwLock,
        ArrayKind::Hazard,
        ArrayKind::LockFreeVec,
    ];

    /// Figure-legend name.
    pub fn label(self) -> &'static str {
        match self {
            ArrayKind::Ebr => "EBRArray",
            ArrayKind::Qsbr => "QSBRArray",
            ArrayKind::Amortized => "AmortizedArray",
            ArrayKind::Leak => "LeakArray",
            ArrayKind::Chapel => "ChapelArray",
            ArrayKind::Sync => "SyncArray",
            ArrayKind::RwLock => "RwLockArray",
            ArrayKind::Hazard => "HazardArray",
            ArrayKind::LockFreeVec => "LockFreeVec",
        }
    }

    /// Parse a legend name / short alias.
    pub fn parse(s: &str) -> Option<ArrayKind> {
        Some(match s.to_ascii_lowercase().as_str() {
            "ebr" | "ebrarray" => ArrayKind::Ebr,
            "qsbr" | "qsbrarray" => ArrayKind::Qsbr,
            "amortized" | "amortizedarray" => ArrayKind::Amortized,
            "leak" | "leakarray" => ArrayKind::Leak,
            "chapel" | "chapelarray" | "unsafe" => ArrayKind::Chapel,
            "sync" | "syncarray" => ArrayKind::Sync,
            "rwlock" | "rwlockarray" => ArrayKind::RwLock,
            "hazard" | "hazardarray" => ArrayKind::Hazard,
            "lockfree" | "lockfreevec" | "vector" => ArrayKind::LockFreeVec,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ArrayKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Object-safe operations the runners drive. Element type is fixed to
/// `u64`, matching the word-sized updates of the paper's benchmarks.
pub trait BenchArray: Send + Sync {
    /// Legend name.
    fn name(&self) -> &'static str;
    /// Read element `idx`.
    fn read(&self, idx: usize) -> u64;
    /// Update element `idx`.
    fn write(&self, idx: usize, v: u64);
    /// Grow by `additional` elements; returns new capacity.
    fn resize(&self, additional: usize) -> usize;
    /// Current capacity.
    fn capacity(&self) -> usize;
    /// Quiescence announcement (QSBR checkpoint; no-op elsewhere).
    fn checkpoint(&self);
}

macro_rules! forward_bench_array {
    ($ty:ty, $name:expr, |$self_:ident| $ckpt:block) => {
        impl BenchArray for $ty {
            fn name(&self) -> &'static str {
                $name
            }
            fn read(&self, idx: usize) -> u64 {
                <$ty>::read(self, idx)
            }
            fn write(&self, idx: usize, v: u64) {
                <$ty>::write(self, idx, v)
            }
            fn resize(&self, additional: usize) -> usize {
                <$ty>::resize(self, additional)
            }
            fn capacity(&self) -> usize {
                <$ty>::capacity(self)
            }
            fn checkpoint(&self) {
                let $self_ = self;
                $ckpt
            }
        }
    };
}

forward_bench_array!(EbrArray<u64>, "EBRArray", |_s| {});
forward_bench_array!(QsbrArray<u64>, "QSBRArray", |s| {
    s.checkpoint();
});
forward_bench_array!(AmortizedArray<u64>, "AmortizedArray", |s| {
    s.checkpoint();
});
forward_bench_array!(LeakArray<u64>, "LeakArray", |_s| {});
forward_bench_array!(UnsafeArray<u64>, "ChapelArray", |_s| {});
forward_bench_array!(SyncArray<u64>, "SyncArray", |_s| {});
forward_bench_array!(RwLockArray<u64>, "RwLockArray", |_s| {});
forward_bench_array!(HazardArray<u64>, "HazardArray", |_s| {});

impl BenchArray for LockFreeVector<u64> {
    fn name(&self) -> &'static str {
        "LockFreeVec"
    }
    fn read(&self, idx: usize) -> u64 {
        LockFreeVector::read(self, idx)
    }
    fn write(&self, idx: usize, v: u64) {
        LockFreeVector::write(self, idx, v)
    }
    fn resize(&self, additional: usize) -> usize {
        self.extend_default(additional);
        self.len()
    }
    fn capacity(&self) -> usize {
        self.len()
    }
    fn checkpoint(&self) {}
}

/// Construct a variant over `cluster` with the paper's block size and
/// communication accounting enabled.
pub fn make_array(
    kind: ArrayKind,
    cluster: &Arc<Cluster>,
    block_size: usize,
) -> Box<dyn BenchArray> {
    make_array_config(kind, cluster, block_size, true, OrderingMode::SeqCst)
}

/// Construct a variant with full control over accounting and (for EBR)
/// the protocol ordering.
pub fn make_array_config(
    kind: ArrayKind,
    cluster: &Arc<Cluster>,
    block_size: usize,
    account_comm: bool,
    ordering: OrderingMode,
) -> Box<dyn BenchArray> {
    let config = Config {
        block_size,
        account_comm,
        ordering,
        ..Config::default()
    };
    match kind {
        ArrayKind::Ebr => Box::new(EbrArray::<u64>::with_config(cluster, config)),
        ArrayKind::Qsbr => Box::new(QsbrArray::<u64>::with_config(cluster, config)),
        ArrayKind::Amortized => Box::new(AmortizedArray::<u64>::with_config(cluster, config)),
        ArrayKind::Leak => Box::new(LeakArray::<u64>::with_config(cluster, config)),
        ArrayKind::Chapel => Box::new(UnsafeArray::<u64>::with_accounting(cluster, account_comm)),
        ArrayKind::Sync => Box::new(SyncArray::<u64>::with_accounting(cluster, account_comm)),
        ArrayKind::RwLock => Box::new(RwLockArray::<u64>::with_accounting(cluster, account_comm)),
        ArrayKind::Hazard => Box::new(HazardArray::<u64>::with_config(cluster, config)),
        ArrayKind::LockFreeVec => Box::new(LockFreeVector::<u64>::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray_runtime::Topology;

    #[test]
    fn every_kind_constructs_and_round_trips() {
        let cluster = Cluster::new(Topology::new(2, 1));
        for kind in ArrayKind::ALL {
            let a = make_array_config(kind, &cluster, 8, false, OrderingMode::SeqCst);
            assert_eq!(a.name(), kind.label());
            let cap = a.resize(16);
            assert!(cap >= 16, "{kind}: capacity {cap}");
            a.write(3, 99);
            assert_eq!(a.read(3), 99, "{kind}");
            a.checkpoint();
        }
    }

    #[test]
    fn parse_round_trips_labels() {
        for kind in ArrayKind::ALL {
            assert_eq!(ArrayKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(ArrayKind::parse("qsbr"), Some(ArrayKind::Qsbr));
        assert_eq!(ArrayKind::parse("nope"), None);
    }

    #[test]
    fn paper_set_is_the_figure_legend() {
        let labels: Vec<&str> = ArrayKind::PAPER.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            ["EBRArray", "QSBRArray", "ChapelArray", "SyncArray"]
        );
    }
}
