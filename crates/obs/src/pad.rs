//! Cache-line padding and the TLS-free shard pick shared by the sharded
//! metric cores: the shard comes from a stack-slot address, so the hot
//! path needs no thread-local lookup.

use rcuarray_analysis::atomic::AtomicU64;

/// A cache-line-padded atomic counter cell: one shard per line, so
/// concurrent increments on different shards never false-share.
#[repr(align(64))]
#[derive(Default, Debug)]
pub struct Padded(pub AtomicU64);

impl Padded {
    /// A zeroed padded cell.
    pub const fn new() -> Self {
        Padded(AtomicU64::new(0))
    }
}

/// Pick a shard without TLS: hash a stack-slot address. Same-thread calls
/// land on the same shard (stack addresses within a call are stable to
/// page granularity); distinct threads' stacks differ by at least a page,
/// so they spread. `shards` must be a power of two.
#[inline]
pub fn shard_index(shards: usize) -> usize {
    let probe = 0u8;
    let addr = &probe as *const u8 as usize;
    // Page-align first: slots within one frame share a shard.
    (addr >> 12) & (shards - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_index_in_range_and_stable() {
        let a = shard_index(8);
        let b = shard_index(8);
        assert!(a < 8);
        assert_eq!(a, b, "same thread must hash to the same shard");
    }
}
