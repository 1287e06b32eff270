//! Array configuration: block size, retry policy,
//! reclamation robustness, replication.

use rcuarray_reclaim::{PressureConfig, StallPolicy};
use rcuarray_runtime::RetryPolicy;

/// The paper's benchmarks resize "in increments of 1024" with blocks of
/// that size; this is the default `BlockSize`.
pub const DEFAULT_BLOCK_SIZE: usize = 1024;

/// Construction-time knobs for an `RcuArray`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Elements per block (`BlockSize` in Listing 1).
    pub block_size: usize,
    /// How fault-injected communication failures are retried (consulted by
    /// `read`/`write`/`resize` only when the cluster's fault plan is
    /// enabled; a healthy cluster never enters the retry path).
    pub retry: RetryPolicy,
    /// Memory bound on the reclamation backlog (DESIGN.md §9). Unbounded
    /// by default; with a bound installed, resizes past the high
    /// watermark help reclaim, and past the byte cap they refuse with
    /// `CommError::Backpressure` instead of growing the backlog.
    pub pressure: PressureConfig,
    /// Stalled-reader detection (DESIGN.md §9). Disabled by default;
    /// with a policy installed, a reader that lags the reclamation
    /// protocol beyond the bound is quarantined (QSBR) or routed
    /// around via evacuation (EBR) so it cannot wedge reclamation.
    pub stall: StallPolicy,
    /// Copies of every block, including the primary (DESIGN.md §15).
    /// `1` (the default) reproduces the paper exactly: one home locale
    /// per block and no replica traffic. `k > 1` places each block on a
    /// primary plus `k - 1` replica locales: writes fan out to replicas
    /// (primary-ack, replica charges drained at checkpoints), reads
    /// fail over to a replica while the primary is `Down`, and the
    /// array survives the loss of up to `k - 1` locales without losing
    /// acknowledged writes. Must not exceed the cluster's locale count
    /// (checked at array construction).
    pub replication_factor: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            block_size: DEFAULT_BLOCK_SIZE,
            retry: RetryPolicy::default(),
            pressure: PressureConfig::unbounded(),
            stall: StallPolicy::disabled(),
            replication_factor: 1,
        }
    }
}

impl Config {
    /// Default configuration with a custom block size.
    pub fn with_block_size(block_size: usize) -> Self {
        Config {
            block_size,
            ..Config::default()
        }
    }

    /// Validate invariants (positive block size, sound backlog bound,
    /// at least one copy of every block).
    pub fn validate(&self) {
        assert!(self.block_size > 0, "block_size must be positive");
        self.pressure.validate();
        assert!(
            self.replication_factor >= 1,
            "replication_factor counts every copy including the primary; \
             0 would place blocks nowhere"
        );
    }

    /// Round an element count up to a whole number of blocks, in elements.
    /// The paper covers "only expansion by multiples of BlockSize"
    /// (footnote 12); this library rounds other requests up.
    ///
    /// # Panics
    /// Panics with "capacity overflow" when the rounded count exceeds
    /// `usize::MAX`, in every build profile (the `Vec::reserve`
    /// convention).
    pub fn round_up_to_blocks(&self, elements: usize) -> usize {
        elements
            .div_ceil(self.block_size)
            .checked_mul(self.block_size)
            .expect("capacity overflow")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = Config::default();
        assert_eq!(c.block_size, 1024);
        assert!(!c.pressure.is_bounded(), "unbounded backlog by default");
        assert!(!c.stall.detects_lag(), "stall detection off by default");
        c.validate();
    }

    #[test]
    #[should_panic(expected = "watermark")]
    fn inverted_pressure_watermark_rejected() {
        let c = Config {
            pressure: PressureConfig {
                max_backlog_bytes: 100,
                high_watermark: 200,
            },
            ..Config::default()
        };
        c.validate();
    }

    #[test]
    fn default_replication_is_one_and_zero_is_rejected() {
        assert_eq!(Config::default().replication_factor, 1);
        let c = Config {
            replication_factor: 0,
            ..Config::default()
        };
        let died = std::panic::catch_unwind(move || c.validate());
        assert!(died.is_err(), "rf=0 must fail validation");
    }

    #[test]
    fn round_up() {
        let c = Config::with_block_size(100);
        assert_eq!(c.round_up_to_blocks(0), 0);
        assert_eq!(c.round_up_to_blocks(1), 100);
        assert_eq!(c.round_up_to_blocks(100), 100);
        assert_eq!(c.round_up_to_blocks(101), 200);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_size_rejected() {
        Config::with_block_size(0).validate();
    }
}
