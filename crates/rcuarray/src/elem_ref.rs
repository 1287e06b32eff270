//! Escaping element references: the return value of the paper's `Index`.
//!
//! §III-C: "the λ can return a reference to the desired portion of the
//! array to be written to later … This indirection not only comes with
//! very little cost to performance, it also allows updates to share the
//! same performance as reads."
//!
//! An [`ElemRef`] stays valid across concurrent resizes because blocks are
//! recycled, never freed (Lemma 6): an assignment made through a reference
//! obtained from an *old* snapshot lands in a block the *new* snapshot
//! shares, so the update is never lost.

use crate::array::Charger;
use crate::element::Element;
use rcuarray_runtime::LocaleId;

/// A reference to one element of an `RcuArray`, usable for both reads and
/// updates, surviving concurrent resizes.
///
/// Borrow-tied to the array handle it came from, which keeps the block
/// registry (and thus the cell) alive. Accesses are charged through the
/// array's own comm path, so under a fault plan they are retried and
/// counted (fallback reads, degraded writes) exactly like
/// `RcuArray::read`/`write`.
pub struct ElemRef<'a, T: Element> {
    cell: &'a T::Repr,
    home: LocaleId,
    charge: &'a Charger,
}

impl<'a, T: Element> ElemRef<'a, T> {
    pub(crate) fn new(cell: &'a T::Repr, home: LocaleId, charge: &'a Charger) -> Self {
        ElemRef { cell, home, charge }
    }

    /// The locale the underlying block is homed on.
    #[inline]
    pub fn home(&self) -> LocaleId {
        self.home
    }

    /// Read the element (a GET when the block is remote).
    #[inline]
    pub fn get(&self) -> T {
        self.charge.get(self.home, T::byte_size());
        T::load(self.cell)
    }

    /// Update the element (a PUT when the block is remote).
    #[inline]
    pub fn set(&self, v: T) {
        self.charge.put(self.home, T::byte_size());
        T::store(self.cell, v);
    }

    /// Read-modify-write through the reference. Not atomic as a whole —
    /// exactly like an assignment through a Chapel `ref` — but each half
    /// is a well-defined atomic access.
    #[inline]
    pub fn update(&self, f: impl FnOnce(T) -> T) {
        self.set(f(self.get()));
    }

    /// Atomic compare-exchange through the reference (counted as one GET
    /// plus one PUT when remote, like a network RMW). Not used by the
    /// array's reads and updates; [`fetch_update`](Self::fetch_update)
    /// loops on it.
    #[inline]
    pub fn compare_exchange(&self, current: T, new: T) -> Result<T, T> {
        self.charge.get(self.home, T::byte_size());
        self.charge.put(self.home, T::byte_size());
        T::compare_exchange(self.cell, current, new)
    }

    /// *Atomic* read-modify-write: retries `f` under a compare-exchange
    /// loop until it applies cleanly. Unlike [`update`](Self::update),
    /// concurrent `fetch_update`s never lose increments. Returns the
    /// previous value.
    pub fn fetch_update(&self, mut f: impl FnMut(T) -> T) -> T
    where
        T: PartialEq,
    {
        let mut cur = self.get();
        loop {
            match self.compare_exchange(cur, f(cur)) {
                Ok(prev) => return prev,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl<T: Element + std::fmt::Debug> std::fmt::Debug for ElemRef<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElemRef")
            .field("home", &self.home)
            .field("value", &T::load(self.cell))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcuarray_runtime::{task, Cluster, RetryPolicy, Topology};
    use std::sync::Arc;

    fn charger(cluster: &Arc<Cluster>) -> Charger {
        Charger::new(cluster, RetryPolicy::default())
    }

    /// A charger on a one-locale cluster: every access is local.
    fn local() -> Charger {
        charger(&Cluster::with_locales(1))
    }

    #[test]
    fn get_set_round_trip_on_the_home_locale() {
        let cell = u64::new_repr(5);
        let local = local();
        let r: ElemRef<u64> = ElemRef::new(&cell, LocaleId::ZERO, &local);
        assert_eq!(r.get(), 5);
        r.set(9);
        assert_eq!(r.get(), 9);
        r.update(|v| v * 2);
        assert_eq!(r.get(), 18);
        assert_eq!(r.home(), LocaleId::ZERO);
    }

    #[test]
    fn compare_exchange_and_fetch_update() {
        let cell = u64::new_repr(10);
        let local = local();
        let r: ElemRef<u64> = ElemRef::new(&cell, LocaleId::ZERO, &local);
        assert_eq!(r.compare_exchange(10, 11), Ok(10));
        assert_eq!(r.compare_exchange(10, 12), Err(11));
        assert_eq!(r.fetch_update(|v| v + 5), 11);
        assert_eq!(r.get(), 16);
    }

    #[test]
    fn concurrent_fetch_updates_lose_nothing() {
        let cell = u64::new_repr(0);
        let local = local();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (cell, local) = (&cell, &local);
                s.spawn(move || {
                    let r: ElemRef<u64> = ElemRef::new(cell, LocaleId::ZERO, local);
                    for _ in 0..1000 {
                        r.fetch_update(|v| v + 1);
                    }
                });
            }
        });
        assert_eq!(u64::load(&cell), 4000, "atomic RMW must not lose bumps");
    }

    #[test]
    fn remote_access_is_charged() {
        let cluster = Cluster::new(Topology::new(2, 1));
        let charge = charger(&cluster);
        let cell = u32::new_repr(0);
        let r: ElemRef<u32> = ElemRef::new(&cell, LocaleId::new(1), &charge);
        task::with_locale(LocaleId::new(0), || {
            let _ = r.get();
            r.set(3);
        });
        let s = cluster.comm_stats();
        assert_eq!(s.gets, 1);
        assert_eq!(s.puts, 1);
        assert_eq!(s.bytes_moved, 8);
    }

    #[test]
    fn local_access_is_not_remote() {
        let cluster = Cluster::new(Topology::new(2, 1));
        let charge = charger(&cluster);
        let cell = u32::new_repr(0);
        let r: ElemRef<u32> = ElemRef::new(&cell, LocaleId::new(1), &charge);
        task::with_locale(LocaleId::new(1), || {
            let _ = r.get();
            r.set(3);
        });
        let s = cluster.comm_stats();
        assert_eq!(s.remote_ops(), 0);
        assert_eq!(s.local_accesses, 2);
    }
}
