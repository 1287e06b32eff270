//! Privatization: one shallow copy of an object per locale.
//!
//! Chapel *privatizes* distribution metadata: each locale holds its own
//! shallow copy of the object so that hot-path accesses never communicate,
//! and a task finds its copy via `chpl_getPrivatizedCopy(PID)` where `PID`
//! is a *privatization id*. Listing 1 of the paper makes `RCUArrayMetaData`
//! privatized and keys everything on `PID`.
//!
//! [`PrivTable`] reproduces that service. [`PrivTable::register`] builds one
//! instance per locale (invoking the constructor *on* each locale so
//! allocation accounting attributes correctly) and returns a dense
//! [`Pid`] plus a [`PrivHandle`] — a cheap, clonable handle whose
//! [`PrivHandle::get`] resolves the calling task's locale-local instance
//! with a thread-local read and an index, i.e. without communication.

use crate::locale::LocaleId;
use crate::task;
use parking_lot::RwLock;
use std::any::Any;
use std::sync::Arc;

/// A privatization id: index of a registered object in the cluster's
/// [`PrivTable`]. The equivalent of the paper's `PID` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pid(usize);

impl Pid {
    /// The raw table index.
    #[inline]
    pub fn raw(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid#{}", self.0)
    }
}

type Slot = Option<Arc<dyn Any + Send + Sync>>;

/// The cluster-wide registry of privatized objects.
#[derive(Default)]
pub struct PrivTable {
    slots: RwLock<Vec<Slot>>,
}

impl PrivTable {
    pub(crate) fn new() -> Self {
        PrivTable::default()
    }

    /// Register a new privatized object with `num_locales` instances,
    /// constructing each one logically *on* its locale.
    ///
    /// Returns the new [`Pid`] and a hot-path [`PrivHandle`].
    pub fn register<T, F>(&self, num_locales: usize, mut make: F) -> (Pid, PrivHandle<T>)
    where
        T: Send + Sync + 'static,
        F: FnMut(LocaleId) -> T,
    {
        let instances: Arc<[Arc<T>]> = (0..num_locales)
            .map(|i| {
                let loc = LocaleId::new(i as u32);
                // Construct with the locale context set, as Chapel's
                // privatization does with an `on` block per locale.
                task::with_locale(loc, || Arc::new(make(loc)))
            })
            .collect();
        let erased: Arc<dyn Any + Send + Sync> = Arc::new(instances.clone());
        let mut slots = self.slots.write();
        let pid = Pid(slots.len());
        slots.push(Some(erased));
        (pid, PrivHandle { pid, instances })
    }

    /// Re-resolve a handle from a pid — `chpl_getPrivatizedCopy`, but
    /// amortized: resolve once, then every [`PrivHandle::get`] is two loads.
    ///
    /// Returns `None` if the pid was never registered, was unregistered, or
    /// holds a different type.
    pub fn handle<T>(&self, pid: Pid) -> Option<PrivHandle<T>>
    where
        T: Send + Sync + 'static,
    {
        let slots = self.slots.read();
        let erased = slots.get(pid.0)?.as_ref()?.clone();
        drop(slots);
        let instances = erased.downcast::<Arc<[Arc<T>]>>().ok()?;
        Some(PrivHandle {
            pid,
            instances: Arc::clone(&instances),
        })
    }

    /// Drop the table's reference to a privatized object. Outstanding
    /// handles keep their instances alive; new `handle()` calls fail.
    pub fn unregister(&self, pid: Pid) {
        let mut slots = self.slots.write();
        if let Some(slot) = slots.get_mut(pid.0) {
            *slot = None;
        }
    }

    /// Number of registrations ever made (including unregistered slots).
    pub fn len(&self) -> usize {
        self.slots.read().len()
    }

    /// True if nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for PrivTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivTable")
            .field("slots", &self.len())
            .finish()
    }
}

/// A resolved handle to a privatized object: the fast path of
/// `chpl_getPrivatizedCopy`.
///
/// Cloning is cheap (one `Arc` bump). [`get`](Self::get) performs no
/// locking and no communication: it reads the task-local locale id and
/// indexes the per-locale instance slice.
pub struct PrivHandle<T> {
    pid: Pid,
    instances: Arc<[Arc<T>]>,
}

impl<T> Clone for PrivHandle<T> {
    fn clone(&self) -> Self {
        PrivHandle {
            pid: self.pid,
            instances: Arc::clone(&self.instances),
        }
    }
}

impl<T> PrivHandle<T> {
    /// This object's privatization id.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The instance privatized to the calling task's locale.
    #[inline]
    pub fn get(&self) -> &T {
        &self.instances[task::current_locale().index()]
    }

    /// The instance privatized to a specific locale.
    #[inline]
    pub fn get_on(&self, locale: LocaleId) -> &T {
        &self.instances[locale.index()]
    }

    /// Number of per-locale instances.
    #[inline]
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Iterate over `(locale, instance)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LocaleId, &T)> {
        self.instances
            .iter()
            .enumerate()
            .map(|(i, a)| (LocaleId::new(i as u32), &**a))
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for PrivHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivHandle")
            .field("pid", &self.pid)
            .field("instances", &self.instances.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::with_locale;

    #[derive(Debug)]
    struct Meta {
        home: LocaleId,
    }

    #[test]
    fn register_builds_one_instance_per_locale() {
        let table = PrivTable::new();
        let (_pid, handle) = table.register(4, |loc| Meta { home: loc });
        assert_eq!(handle.num_instances(), 4);
        for (loc, inst) in handle.iter() {
            assert_eq!(inst.home, loc);
        }
    }

    #[test]
    fn constructor_runs_with_locale_context() {
        let table = PrivTable::new();
        let (_pid, handle) = table.register(3, |_| Meta {
            home: task::current_locale(),
        });
        for (loc, inst) in handle.iter() {
            assert_eq!(inst.home, loc, "constructor saw wrong `here`");
        }
    }

    #[test]
    fn get_resolves_current_locale() {
        let table = PrivTable::new();
        let (_pid, handle) = table.register(4, |loc| Meta { home: loc });
        for i in 0..4u32 {
            with_locale(LocaleId::new(i), || {
                assert_eq!(handle.get().home, LocaleId::new(i));
            });
        }
    }

    #[test]
    fn handle_round_trips_through_pid() {
        let table = PrivTable::new();
        let (pid, _h) = table.register(2, |loc| Meta { home: loc });
        let h2: PrivHandle<Meta> = table.handle(pid).expect("pid registered");
        assert_eq!(h2.get_on(LocaleId::new(1)).home, LocaleId::new(1));
    }

    #[test]
    fn handle_with_wrong_type_fails() {
        let table = PrivTable::new();
        let (pid, _h) = table.register(2, |loc| Meta { home: loc });
        assert!(table.handle::<String>(pid).is_none());
    }

    #[test]
    fn unregister_invalidates_pid_but_not_handles() {
        let table = PrivTable::new();
        let (pid, handle) = table.register(2, |loc| Meta { home: loc });
        table.unregister(pid);
        assert!(table.handle::<Meta>(pid).is_none());
        // Outstanding handle still works.
        assert_eq!(handle.get_on(LocaleId::ZERO).home, LocaleId::ZERO);
    }

    #[test]
    fn pids_are_dense_and_distinct() {
        let table = PrivTable::new();
        let (p0, _a) = table.register(1, |loc| Meta { home: loc });
        let (p1, _b) = table.register(1, |loc| Meta { home: loc });
        assert_ne!(p0, p1);
        assert_eq!(p0.raw(), 0);
        assert_eq!(p1.raw(), 1);
        assert_eq!(table.len(), 2);
    }
}
