//! Shadow-heap oracle: reclamation-lifecycle checking by fresh id.
//!
//! Every tracked object gets a [`ShadowId`] minted at registration —
//! never derived from its address, so allocator reuse (ABA) cannot alias
//! two objects onto one entry. The table records a lifecycle per entry:
//!
//! ```text
//!   Live ──retire──▶ Retired ──destructor ran──▶ Reclaimed
//!     │                  │
//!     └────leak()────────┴──▶ Leaked   (deliberate, e.g. Retired::leak)
//! ```
//!
//! Violations become checker reports (or panics outside a session):
//!
//! * **UseAfterReclaim** — an instrumented read/write through
//!   [`TrackedCell`] found its entry `Reclaimed`: the destructor already
//!   ran, the access is a use-after-free.
//! * **DoubleRetire** — `retire` on an entry not `Live`.
//! * **DoubleReclaim** — a destructor ran twice (double free).
//! * **ReclaimWithoutRetire** — a destructor ran on a `Live` entry: the
//!   object was freed without ever passing through deferral.
//!
//! Two design points make the oracle *deterministic* under
//! [`Policy::Dpor`](crate::sched::Policy::Dpor) rather than a lucky
//! crash detector:
//!
//! 1. Each entry carries a checker location id, and reclamation is a
//!    **write-kind scheduling step** on that location
//!    (`checker::shadow_write_step`) while tracked accesses are
//!    read/write steps on the same location
//!    (`checker::data_access_validated`). The DPOR dependence relation
//!    therefore *sees* reader-vs-destructor conflicts and is forced to
//!    explore both orders — an untracked free would look independent and
//!    the fatal interleaving could be pruned as redundant.
//! 2. Validation runs *inside* the access's scheduling step, so a
//!    reclamation can never slip between "check the table" and "do the
//!    access".
//!
//! Sessions: `begin_session`/`end_session` (called by the checker
//! around every execution) stamp entries allocated by in-session threads
//! with an epoch; at session end, epoch entries still `Retired` are
//! reported as leaks (their destructor never ran) and the epoch's
//! entries are purged. Entries allocated outside any session are never
//! purged and violate by panicking.

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::checker;

/// Freshly-minted identity of a tracked object. Never reused, never
/// derived from an address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShadowId(u64);

/// The lifecycle violations the oracle detects. See the module docs for
/// what each means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShadowKind {
    /// Instrumented access to an object whose destructor already ran.
    UseAfterReclaim,
    /// `retire` on an object that was not `Live` (already retired,
    /// reclaimed, or leaked).
    DoubleRetire,
    /// Destructor ran on an already-reclaimed (or leaked) object.
    DoubleReclaim,
    /// Destructor ran on a `Live` object that was never retired.
    ReclaimWithoutRetire,
}

impl std::fmt::Display for ShadowKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ShadowKind::UseAfterReclaim => "use-after-reclaim",
            ShadowKind::DoubleRetire => "double-retire",
            ShadowKind::DoubleReclaim => "double-reclaim",
            ShadowKind::ReclaimWithoutRetire => "reclaim-without-retire",
        };
        f.write_str(s)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LifeState {
    Live,
    Retired,
    Reclaimed,
    Leaked,
}

struct Entry {
    state: LifeState,
    label: &'static str,
    bytes: usize,
    /// Session epoch of the allocating thread, `None` when allocated
    /// outside any checker session (such entries are never purged).
    epoch: Option<u64>,
    /// Checker location id shared by tracked accesses and the
    /// reclamation step, so DPOR treats them as dependent.
    loc: usize,
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);
/// Epoch of the session currently executing (0 = none). Checker runs
/// are process-serialized, so a single slot suffices.
static CURRENT_EPOCH: AtomicU64 = AtomicU64::new(0);
// BTreeMap: const-constructible and deterministically ordered, so leak
// reports come out in a stable order run-to-run.
static TABLE: Mutex<BTreeMap<u64, Entry>> = Mutex::new(BTreeMap::new());

fn table() -> std::sync::MutexGuard<'static, BTreeMap<u64, Entry>> {
    // The table is tiny and accesses are short; poisoning only happens
    // if a violation panicked mid-update, in which case the state is
    // still consistent.
    TABLE.lock().unwrap_or_else(|e| e.into_inner())
}

fn alloc_epoch() -> Option<u64> {
    if checker::in_session() {
        let e = CURRENT_EPOCH.load(Ordering::SeqCst);
        if e != 0 {
            return Some(e);
        }
    }
    None
}

/// Register a new tracked object as `Live` and mint its identity.
pub fn register(label: &'static str, bytes: usize) -> ShadowId {
    let id = ShadowId(NEXT_ID.fetch_add(1, Ordering::SeqCst));
    let entry = Entry {
        state: LifeState::Live,
        label,
        bytes,
        epoch: alloc_epoch(),
        loc: checker::fresh_loc(),
    };
    table().insert(id.0, entry);
    id
}

/// The checker location id backing `id`'s accesses — for harnesses that
/// want extra scheduling points on the same conflict location.
pub fn loc_of(id: ShadowId) -> usize {
    table().get(&id.0).map(|e| e.loc).unwrap_or(usize::MAX - 1)
}

/// `Live → Retired`. Anything else is a [`ShadowKind::DoubleRetire`].
pub fn on_retire(id: ShadowId) {
    let mut t = table();
    match t.get_mut(&id.0) {
        None => {
            drop(t);
            checker::shadow_violation(ShadowKind::DoubleRetire, "<unknown shadow id>");
        }
        Some(e) => {
            if e.state == LifeState::Live {
                e.state = LifeState::Retired;
            } else {
                let label = e.label;
                drop(t);
                checker::shadow_violation(ShadowKind::DoubleRetire, label);
            }
        }
    }
}

/// The destructor ran: `Retired → Reclaimed` is the legal edge. This is
/// also a write-kind scheduling step on the entry's location (see module
/// docs) so exhaustive exploration reorders it against tracked reads.
#[track_caller]
pub fn on_reclaim(id: ShadowId) {
    let mut t = table();
    let (loc, label, viol) = match t.get_mut(&id.0) {
        None => (
            usize::MAX - 1,
            "<unknown shadow id>",
            Some(ShadowKind::DoubleReclaim),
        ),
        Some(e) => {
            let viol = match e.state {
                LifeState::Retired => None,
                LifeState::Live => Some(ShadowKind::ReclaimWithoutRetire),
                LifeState::Reclaimed | LifeState::Leaked => Some(ShadowKind::DoubleReclaim),
            };
            if e.state != LifeState::Reclaimed {
                e.state = LifeState::Reclaimed;
            }
            (e.loc, e.label, viol)
        }
    };
    drop(t);
    checker::shadow_write_step(loc, label, viol);
}

/// Deliberate leak (`Retired::leak`): the object is intentionally never
/// reclaimed and drops out of leak accounting. Leaking an
/// already-reclaimed object is a [`ShadowKind::DoubleReclaim`].
pub fn on_leak(id: ShadowId) {
    let mut t = table();
    match t.get_mut(&id.0) {
        None => {
            drop(t);
            checker::shadow_violation(ShadowKind::DoubleReclaim, "<unknown shadow id>");
        }
        Some(e) => match e.state {
            LifeState::Live | LifeState::Retired => e.state = LifeState::Leaked,
            LifeState::Leaked => {}
            LifeState::Reclaimed => {
                let label = e.label;
                drop(t);
                checker::shadow_violation(ShadowKind::DoubleReclaim, label);
            }
        },
    }
}

/// Violation (if any) of reading/writing through `id` right now. Used
/// by [`TrackedCell`] inside the access's scheduling step. A missing
/// entry (purged by a previous session's teardown) is not flagged.
pub fn access_violation(id: ShadowId) -> Option<(ShadowKind, &'static str)> {
    let t = table();
    match t.get(&id.0) {
        Some(e) if e.state == LifeState::Reclaimed => Some((ShadowKind::UseAfterReclaim, e.label)),
        _ => None,
    }
}

/// Start a shadow session: allocations by in-session threads are stamped
/// with the returned epoch. Called by the checker around each execution.
pub(crate) fn begin_session() -> u64 {
    let e = NEXT_EPOCH.fetch_add(1, Ordering::SeqCst);
    CURRENT_EPOCH.store(e, Ordering::SeqCst);
    e
}

/// End a shadow session: entries of `epoch` still `Retired` (their
/// destructor never ran) are returned as `(label, bytes)` leaks; all of
/// the epoch's entries are purged.
pub(crate) fn end_session(epoch: u64) -> Vec<(String, usize)> {
    CURRENT_EPOCH
        .compare_exchange(epoch, 0, Ordering::SeqCst, Ordering::SeqCst)
        .ok();
    let mut t = table();
    let mut leaks = Vec::new();
    t.retain(|_, e| {
        if e.epoch != Some(epoch) {
            return true;
        }
        if e.state == LifeState::Retired {
            leaks.push((e.label.to_string(), e.bytes));
        }
        false
    });
    leaks
}

/// A shared cell whose every access validates against the shadow table
/// inside its scheduling step. The payload the reclamation harnesses
/// read through guards.
pub struct TrackedCell<T> {
    inner: UnsafeCell<T>,
    id: ShadowId,
    loc: usize,
}

// SAFETY: the cell's accesses go through the checker, which serializes
// them under a session; outside a session the caller carries the same
// obligations as with any UnsafeCell-based shared cell.
unsafe impl<T: Send> Send for TrackedCell<T> {}
// SAFETY: as above — shared access is mediated by the checker.
unsafe impl<T: Send + Sync> Sync for TrackedCell<T> {}

impl<T> TrackedCell<T> {
    pub fn new(label: &'static str, value: T) -> Self {
        let id = register(label, std::mem::size_of::<T>());
        let loc = loc_of(id);
        TrackedCell {
            inner: UnsafeCell::new(value),
            id,
            loc,
        }
    }

    pub fn id(&self) -> ShadowId {
        self.id
    }

    /// Validated read: reports [`ShadowKind::UseAfterReclaim`] when the
    /// backing object was already reclaimed.
    #[track_caller]
    pub fn read(&self) -> T
    where
        T: Copy,
    {
        let id = self.id;
        checker::data_access_validated(
            self.loc,
            false,
            move || access_violation(id),
            // SAFETY: serialized by the checker step (see Sync impl).
            || unsafe { *self.inner.get() },
        )
    }

    /// Validated write.
    #[track_caller]
    pub fn write(&self, value: T) {
        let id = self.id;
        checker::data_access_validated(
            self.loc,
            true,
            move || access_violation(id),
            // SAFETY: serialized by the checker step (see Sync impl).
            || unsafe { *self.inner.get() = value },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_happy_path_is_silent() {
        let id = register("happy", 8);
        on_retire(id);
        on_reclaim(id);
        assert_eq!(
            access_violation(id),
            Some((ShadowKind::UseAfterReclaim, "happy"))
        );
    }

    #[test]
    fn live_and_retired_reads_are_legal() {
        let id = register("still-ok", 8);
        assert_eq!(access_violation(id), None);
        on_retire(id);
        assert_eq!(access_violation(id), None);
    }

    #[test]
    #[should_panic(expected = "DoubleRetire")]
    fn double_retire_panics_outside_sessions() {
        let id = register("twice", 8);
        on_retire(id);
        on_retire(id);
    }

    #[test]
    #[should_panic(expected = "ReclaimWithoutRetire")]
    fn reclaim_without_retire_panics_outside_sessions() {
        let id = register("early", 8);
        on_reclaim(id);
    }

    #[test]
    #[should_panic(expected = "DoubleReclaim")]
    fn double_reclaim_panics_outside_sessions() {
        let id = register("double-free", 8);
        on_retire(id);
        on_reclaim(id);
        on_reclaim(id);
    }

    #[test]
    fn leaked_entries_leave_accounting() {
        let id = register("deliberate", 16);
        on_retire(id);
        on_leak(id);
        // Leaked is terminal and silent.
        assert_eq!(access_violation(id), None);
    }

    #[test]
    fn out_of_session_entries_survive_session_teardown() {
        let id = register("outsider", 8);
        let epoch = begin_session();
        let leaks = end_session(epoch);
        assert!(leaks.iter().all(|(l, _)| l != "outsider"));
        assert_eq!(access_violation(id), None);
        on_retire(id);
        on_reclaim(id);
    }
}
