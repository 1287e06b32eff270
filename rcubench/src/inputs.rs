//! Seeded inputs: every index and request stream the benchmark feeds the
//! program is generated here from `--seed`, before any timing starts.

use rcuarray::{RcuArray, Scheme};
use rcuarray_runtime::{task, Cluster, LocaleId, Topology, TransportKind};
use std::sync::Arc;

/// Bit 31 of a stream entry marks a write; the low 31 bits pick the index.
pub const WRITE_BIT: u32 = 1 << 31;

/// Share of array operations (and service requests) that write.
pub const WRITE_PERCENT: u64 = 10;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of the generator family for `seed`: distinct
    /// streams of one seed are independent, and the same pair always
    /// yields the same values.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` for `n <= 2^32`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }
}

/// `len` stream entries: uniform indices below `bound` (at most 2^31),
/// `WRITE_PERCENT` of them flagged as writes.
pub fn op_stream(rng: &mut Rng, len: usize, bound: u64) -> Vec<u32> {
    assert!(bound <= 1 << 31, "indices must fit below the write bit");
    (0..len)
        .map(|_| {
            let idx = rng.below(bound) as u32;
            let write = rng.below(100) < WRITE_PERCENT;
            idx | if write { WRITE_BIT } else { 0 }
        })
        .collect()
}

/// The value every element must hold: the set-up fills `value(idx)` and
/// every write stores `value(idx)` again, so any read that returns
/// something else is a wrong answer. Never zero, so a fresh (zeroed)
/// block cannot pass for a written element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oracle {
    salt: u64,
}

impl Oracle {
    pub fn new(seed: u64) -> Self {
        Oracle {
            salt: Rng::new(seed, u64::MAX).next_u64(),
        }
    }

    #[inline]
    pub fn value(self, idx: usize) -> u64 {
        (idx as u64 ^ self.salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
    }
}

/// The cluster every workload runs on: two locales, one task each, the
/// shared-memory backend and no injected latency — the defaults a user
/// gets, with the backend pinned so an environment variable cannot
/// switch it under the benchmark.
pub fn cluster() -> Arc<Cluster> {
    Cluster::builder()
        .topology(Topology::new(2, 1))
        .backend(TransportKind::Shmem)
        .build()
}

/// Grow `array` by `len` elements and fill them with `oracle` values.
///
/// Runs on a scoped thread: a QSBR read registers the calling thread, and
/// a registered thread that never checkpoints again would hold back
/// reclamation for the rest of the run. The thread's exit unregisters it.
pub fn grow_and_fill<S: Scheme>(array: &RcuArray<u64, S>, len: usize, oracle: Oracle) {
    std::thread::scope(|s| {
        s.spawn(|| {
            task::with_locale(LocaleId::ZERO, || {
                let start = array.capacity();
                array.resize(len);
                let bs = array.config().block_size;
                let mut buf = Vec::with_capacity(bs);
                for base in (start..start + len).step_by(bs) {
                    buf.clear();
                    buf.extend((base..(base + bs).min(start + len)).map(|i| oracle.value(i)));
                    array.write_slice(base, &buf);
                }
                array.checkpoint();
            })
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = op_stream(&mut Rng::new(7, 1), 1000, 1 << 22);
        let b = op_stream(&mut Rng::new(7, 1), 1000, 1 << 22);
        let c = op_stream(&mut Rng::new(8, 1), 1000, 1 << 22);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let writes = a.iter().filter(|&&e| e & WRITE_BIT != 0).count();
        assert!(
            (50..150).contains(&writes),
            "about 10% writes, got {writes}"
        );
        assert!(a.iter().all(|&e| (e & !WRITE_BIT) < 1 << 22));
    }

    #[test]
    fn oracle_values_are_never_zero() {
        let o = Oracle::new(3);
        assert!((0..10_000).all(|i| o.value(i) != 0));
        assert_ne!(Oracle::new(3).value(5), Oracle::new(4).value(5));
    }
}
