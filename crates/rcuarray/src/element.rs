//! Element storage: the [`Element`] trait maps a plain value type onto an
//! atomic in-memory representation.
//!
//! The paper's benchmarks perform plain assignments into the array from
//! many tasks at once; Chapel leaves racy plain stores defined enough for
//! a benchmark, Rust does not. To keep the paper's key performance
//! property — *"updates … share the same performance as reads"*: one load
//! or one store per operation, no locks, no CAS — elements are stored in
//! their atomic representation and accessed with `Relaxed` loads/stores.
//! A racy benchmark then has well-defined (if unordered) behaviour, and
//! the cost per access stays a single memory instruction.
//!
//! Implemented for all integer primitives, `usize`/`isize`, `bool`, `f32`
//! and `f64` (floats round-trip through their bit patterns).

use rcuarray_analysis::atomic::{
    AtomicBool, AtomicI16, AtomicI32, AtomicI64, AtomicI8, AtomicIsize, AtomicU16, AtomicU32,
    AtomicU64, AtomicU8, AtomicUsize, Ordering,
};

/// A value type storable in an `RcuArray`.
///
/// `Repr` is the in-memory cell; loads and stores are `Relaxed`: element
/// accesses carry no synchronization of their own (snapshot publication
/// does the ordering, exactly as in the paper where element PUT/GET are
/// plain network operations).
pub trait Element: Copy + Default + Send + Sync + 'static {
    /// Atomic in-memory representation of one element.
    type Repr: Send + Sync + 'static;

    /// A cell holding `v`.
    fn new_repr(v: Self) -> Self::Repr;

    /// Read the cell.
    fn load(r: &Self::Repr) -> Self;

    /// Overwrite the cell.
    fn store(r: &Self::Repr, v: Self);

    /// Atomically replace `current` with `new` if the cell still holds
    /// `current` (bitwise comparison for floats). Returns `Ok(current)`
    /// on success and `Err(actual)` on failure.
    ///
    /// Element CAS is *not* used by RCUArray's reads and updates (they
    /// are single loads/stores, per the paper's cost model); it backs
    /// [`ElemRef::compare_exchange`](crate::ElemRef::compare_exchange)
    /// and the lossless read-modify-write
    /// [`ElemRef::fetch_update`](crate::ElemRef::fetch_update).
    fn compare_exchange(r: &Self::Repr, current: Self, new: Self) -> Result<Self, Self>;

    /// Size in bytes moved per element access (for communication
    /// accounting).
    #[inline]
    fn byte_size() -> usize {
        std::mem::size_of::<Self>()
    }
}

macro_rules! impl_element_int {
    ($($ty:ty => $atomic:ty),* $(,)?) => {$(
        impl Element for $ty {
            type Repr = $atomic;

            #[inline]
            fn new_repr(v: Self) -> Self::Repr {
                <$atomic>::new(v)
            }

            #[inline]
            fn load(r: &Self::Repr) -> Self {
                r.load(Ordering::Relaxed)
            }

            #[inline]
            fn store(r: &Self::Repr, v: Self) {
                r.store(v, Ordering::Relaxed)
            }

            #[inline]
            fn compare_exchange(r: &Self::Repr, current: Self, new: Self) -> Result<Self, Self> {
                r.compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
            }
        }
    )*};
}

impl_element_int! {
    u8 => AtomicU8,
    u16 => AtomicU16,
    u32 => AtomicU32,
    u64 => AtomicU64,
    usize => AtomicUsize,
    i8 => AtomicI8,
    i16 => AtomicI16,
    i32 => AtomicI32,
    i64 => AtomicI64,
    isize => AtomicIsize,
    bool => AtomicBool,
}

impl Element for f32 {
    type Repr = AtomicU32;

    #[inline]
    fn new_repr(v: Self) -> Self::Repr {
        AtomicU32::new(v.to_bits())
    }

    #[inline]
    fn load(r: &Self::Repr) -> Self {
        f32::from_bits(r.load(Ordering::Relaxed))
    }

    #[inline]
    fn store(r: &Self::Repr, v: Self) {
        r.store(v.to_bits(), Ordering::Relaxed)
    }

    #[inline]
    fn compare_exchange(r: &Self::Repr, current: Self, new: Self) -> Result<Self, Self> {
        r.compare_exchange(
            current.to_bits(),
            new.to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        )
        .map(f32::from_bits)
        .map_err(f32::from_bits)
    }
}

impl Element for f64 {
    type Repr = AtomicU64;

    #[inline]
    fn new_repr(v: Self) -> Self::Repr {
        AtomicU64::new(v.to_bits())
    }

    #[inline]
    fn load(r: &Self::Repr) -> Self {
        f64::from_bits(r.load(Ordering::Relaxed))
    }

    #[inline]
    fn store(r: &Self::Repr, v: Self) {
        r.store(v.to_bits(), Ordering::Relaxed)
    }

    #[inline]
    fn compare_exchange(r: &Self::Repr, current: Self, new: Self) -> Result<Self, Self> {
        r.compare_exchange(
            current.to_bits(),
            new.to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        )
        .map(f64::from_bits)
        .map_err(f64::from_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Element + PartialEq + std::fmt::Debug>(vals: &[T]) {
        for &v in vals {
            let cell = T::new_repr(v);
            assert_eq!(T::load(&cell), v);
            let cell2 = T::new_repr(T::default());
            T::store(&cell2, v);
            assert_eq!(T::load(&cell2), v);
        }
    }

    #[test]
    fn integers_round_trip() {
        round_trip(&[0u64, 1, u64::MAX]);
        round_trip(&[0i64, -1, i64::MIN, i64::MAX]);
        round_trip(&[0u8, 255]);
        round_trip(&[0i8, -128, 127]);
        round_trip(&[0u16, u16::MAX]);
        round_trip(&[0i16, i16::MIN]);
        round_trip(&[0u32, u32::MAX]);
        round_trip(&[0i32, i32::MIN]);
        round_trip(&[0usize, usize::MAX]);
        round_trip(&[0isize, isize::MIN]);
    }

    #[test]
    fn bools_round_trip() {
        round_trip(&[true, false]);
    }

    #[test]
    fn floats_round_trip_including_specials() {
        round_trip(&[0.0f32, -0.0, 1.5, f32::MIN, f32::MAX, f32::INFINITY]);
        round_trip(&[0.0f64, -0.0, 2.25, f64::MIN, f64::MAX, f64::NEG_INFINITY]);
        // NaN: bit pattern must survive even though NaN != NaN.
        let nan = f64::NAN;
        let cell = f64::new_repr(nan);
        assert!(f64::load(&cell).is_nan());
    }

    #[test]
    fn float_cas_compares_nan_by_bit_pattern() {
        // CAS on floats is bitwise (module docs): a cell holding NaN *can*
        // be claimed by passing the same NaN as `current`, even though
        // NaN != NaN under IEEE comparison.
        let cell = f64::new_repr(f64::NAN);
        let won = f64::compare_exchange(&cell, f64::NAN, 1.0);
        assert!(won.is_ok(), "identical NaN bit patterns must match");
        assert_eq!(f64::load(&cell), 1.0);

        // A NaN with a *different* payload is a different bit pattern and
        // must not match, and the reported actual must round-trip the
        // stored payload exactly.
        let payload = f32::from_bits(f32::NAN.to_bits() ^ 1);
        let cell = f32::new_repr(payload);
        let lost = f32::compare_exchange(&cell, f32::NAN, 2.0);
        let actual = lost.expect_err("differing NaN payloads must not match");
        assert_eq!(actual.to_bits(), payload.to_bits());
        assert_eq!(f32::load(&cell).to_bits(), payload.to_bits());
    }

    #[test]
    fn float_cas_distinguishes_negative_zero() {
        // IEEE says 0.0 == -0.0, but their bit patterns differ; bitwise
        // CAS must treat them as distinct values...
        let cell = f64::new_repr(-0.0);
        let lost = f64::compare_exchange(&cell, 0.0, 3.0);
        let actual = lost.expect_err("+0.0 must not claim a -0.0 cell");
        assert!(actual.is_sign_negative());
        assert_eq!(f64::load(&cell).to_bits(), (-0.0f64).to_bits());

        // ...and the exact-sign zero must succeed, for both widths.
        assert!(f64::compare_exchange(&cell, -0.0, 4.0).is_ok());
        assert_eq!(f64::load(&cell), 4.0);
        let cell = f32::new_repr(0.0);
        assert!(f32::compare_exchange(&cell, -0.0, 5.0).is_err());
        assert!(f32::compare_exchange(&cell, 0.0, 5.0).is_ok());
        assert_eq!(f32::load(&cell), 5.0);
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(u8::byte_size(), 1);
        assert_eq!(u64::byte_size(), 8);
        assert_eq!(f32::byte_size(), 4);
        assert_eq!(bool::byte_size(), 1);
    }

    #[test]
    fn default_is_zeroish() {
        assert_eq!(u64::load(&u64::new_repr(u64::default())), 0);
        assert!(!bool::load(&bool::new_repr(bool::default())));
        assert_eq!(f64::load(&f64::new_repr(f64::default())), 0.0);
    }

    #[test]
    fn concurrent_relaxed_stores_are_defined() {
        let cell = std::sync::Arc::new(u64::new_repr(0));
        std::thread::scope(|s| {
            for t in 1..=4u64 {
                let cell = std::sync::Arc::clone(&cell);
                s.spawn(move || {
                    for _ in 0..1000 {
                        u64::store(&cell, t);
                    }
                });
            }
        });
        let v = u64::load(&cell);
        assert!(
            (1..=4).contains(&v),
            "final value must be one of the writes"
        );
    }
}
