//! Array configuration: block size, retry policy and the reclamation
//! backlog bound.

use rcuarray_reclaim::PressureConfig;
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
    /// `CommError::Backpressure` instead of growing the backlog. QSBR and
    /// the leak scheme honour it; EBR ignores it, because it frees every
    /// retirement synchronously and so never has a backlog.
    pub pressure: PressureConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            block_size: DEFAULT_BLOCK_SIZE,
            retry: RetryPolicy::default(),
            pressure: PressureConfig::unbounded(),
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

    /// Validate invariants (positive block size, sound backlog bound).
    pub fn validate(&self) {
        assert!(self.block_size > 0, "block_size must be positive");
        self.pressure.validate();
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
