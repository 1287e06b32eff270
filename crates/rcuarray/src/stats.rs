//! Aggregate array instrumentation.

use rcuarray_reclaim::ReclaimStats;
use rcuarray_runtime::{CommStats, FaultStats};

/// A snapshot of an array's counters, aggregated across locales.
#[derive(Debug, Clone, Default)]
pub struct ArrayStats {
    /// Capacity in elements.
    pub capacity: usize,
    /// Blocks allocated.
    pub num_blocks: usize,
    /// Blocks homed per locale (index = locale id). Round-robin
    /// distribution keeps these within one of each other.
    pub blocks_per_locale: Vec<usize>,
    /// Resize operations performed.
    pub resizes: u64,
    /// Resize attempts that aborted (fault, timeout or panic) and were
    /// rolled back; always zero on a healthy cluster.
    pub aborted_resizes: u64,
    /// Reads whose communication charge failed even after retries and
    /// were served from the locale-local snapshot instead.
    pub fallback_reads: u64,
    /// Writes whose communication charge failed even after retries; the
    /// store still landed in the (simulated shared-memory) block.
    pub degraded_writes: u64,
    /// Reads served from a replica block because the primary's home
    /// locale was not `Up` in the membership view (always zero at
    /// `replication_factor = 1`).
    pub failover_reads: u64,
    /// Bytes copied to restore replication after locale loss (repair)
    /// or to refresh a rejoining locale's stale copies (catch-up).
    pub rereplicated_bytes: u64,
    /// Deferred replica-write charge (bytes) not yet drained by a
    /// checkpoint — the bounded replica lag of DESIGN.md §15.
    pub replica_lag_bytes: u64,
    /// Reclamation counters in the scheme-neutral vocabulary, folded over
    /// every locale's engine with [`ReclaimStats::merge`]: per-locale
    /// engines (EBR zones, leak counters) sum; clones of one shared
    /// domain (QSBR) report the domain's numbers once.
    pub reclaim: ReclaimStats,
    /// Cluster communication counters at the time of the call.
    pub comm: CommStats,
    /// Cluster fault accounting (attempted/failed/retried) at the time of
    /// the call; all zeros without an enabled fault plan.
    pub fault: FaultStats,
}

impl ArrayStats {
    /// Max-min spread of the per-locale block distribution; round-robin
    /// guarantees `<= 1`.
    pub fn block_imbalance(&self) -> usize {
        let max = self.blocks_per_locale.iter().copied().max().unwrap_or(0);
        let min = self.blocks_per_locale.iter().copied().min().unwrap_or(0);
        max - min
    }

    /// Retry attempts charged across the cluster.
    pub fn retries(&self) -> u64 {
        self.fault.retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_of_balanced_histogram() {
        let s = ArrayStats {
            blocks_per_locale: vec![3, 3, 2],
            ..ArrayStats::default()
        };
        assert_eq!(s.block_imbalance(), 1);
    }

    #[test]
    fn imbalance_of_empty_histogram_is_zero() {
        assert_eq!(ArrayStats::default().block_imbalance(), 0);
    }
}
