//! Memory-ordering modes for the `EpochReaders` protocol.
//!
//! The paper's protocol is sequentially consistent throughout: §V-B
//! blames "the contention and sequential consistency memory ordering of
//! the Fetch-And-Add and Fetch-And-Sub atomic operations on the
//! EpochReaders counters" for EBRArray's read cost, and that is the only
//! ordering an array runs. The enum exists as a seeded-mutation seam:
//! `EpochZone::with_mode(OrderingMode::Relaxed)` builds a deliberately
//! under-synchronized zone that the `ebr_modes` checker suite must catch.

use rcuarray_analysis::atomic::Ordering;

/// Which memory orderings the read–increment–verify protocol uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingMode {
    /// The paper's configuration: every protocol operation is
    /// sequentially consistent. Correct on all architectures.
    #[default]
    SeqCst,
    /// All protocol operations relaxed.
    ///
    /// **Mutation-only.** This under-synchronized mode is not correct (a
    /// writer may miss a reader's announcement); it exists so the model
    /// checker has a known-broken protocol to find. The zone's debug
    /// assertions stay active under it.
    Relaxed,
}

impl OrderingMode {
    /// Ordering for the reader-counter increment (Algorithm 1 line 12).
    #[inline]
    pub fn rmw(self) -> Ordering {
        match self {
            OrderingMode::SeqCst => Ordering::SeqCst,
            OrderingMode::Relaxed => Ordering::Relaxed,
        }
    }

    /// Ordering for epoch loads (lines 10 and 13).
    #[inline]
    pub fn load(self) -> Ordering {
        match self {
            OrderingMode::SeqCst => Ordering::SeqCst,
            OrderingMode::Relaxed => Ordering::Relaxed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_seqcst() {
        assert_eq!(OrderingMode::default(), OrderingMode::SeqCst);
    }

    #[test]
    fn seqcst_maps_to_seqcst() {
        let m = OrderingMode::SeqCst;
        assert_eq!(m.rmw(), Ordering::SeqCst);
        assert_eq!(m.load(), Ordering::SeqCst);
    }

    #[test]
    fn relaxed_maps_to_relaxed() {
        let m = OrderingMode::Relaxed;
        assert_eq!(m.rmw(), Ordering::Relaxed);
        assert_eq!(m.load(), Ordering::Relaxed);
    }
}
