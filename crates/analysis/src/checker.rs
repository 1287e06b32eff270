//! The deterministic concurrency checker.
//!
//! A [`Checker`] runs a closure many times, once per seed. Each run is a
//! *session*: threads spawned through [`crate::thread::spawn`] register
//! with the session, and every instrumented operation (facade atomics,
//! locks, [`crate::cell::CheckedCell`] accesses) becomes a scheduling
//! point. The session serializes execution — exactly one registered
//! thread runs between two scheduling points — and the schedule is chosen
//! by a seeded policy ([`crate::sched::Policy`]), so any interleaving the
//! checker explores can be replayed from its seed alone.
//!
//! On top of the schedule the session maintains FastTrack-style
//! happens-before state (see [`crate::clock`]):
//!
//! * each thread carries a vector clock, ticked at every operation;
//! * each atomic location carries a *sync clock*: release stores replace
//!   it with the writer's clock, release RMWs join into it (release
//!   sequences), relaxed stores clear it, and acquire loads/RMWs join it
//!   into the reader's clock;
//! * `SeqCst` operations and fences additionally join through a global SC
//!   clock (this can only add edges, i.e. hide races — never invent one);
//! * mutexes, rwlocks and condvars carry clocks joined on acquire/release;
//! * plain-data accesses via `CheckedCell` are checked: two conflicting
//!   accesses with incomparable clocks are reported as a data race with
//!   both source locations and the reproducing seed.
//!
//! Threads never truly block inside a session: facade locks spin through
//! scheduling points, condvar waits are modeled as spurious wakeups, and
//! a step budget aborts runaway interleavings deterministically.
//!
//! Besides the seeded sampling policies, [`Policy::Dpor`] runs the same
//! engine in *forced-schedule* mode under the source-DPOR explorer in
//! [`crate::dpor`]: each execution records a trace (one entry per
//! scheduling step, carrying the executed operation and the enabled set
//! at the decision), the explorer derives backtrack points from a
//! dependence relation over the trace, and sleep sets prune provably
//! redundant interleavings. Failures found this way carry the exact
//! schedule serialized to a string, replayable via [`Checker::replay`].
//!
//! The [`crate::shadow`] oracle hooks in here too: reclamation events
//! become write-kind steps on the shadow entry's location (so DPOR
//! explores read-vs-reclaim orderings) and lifecycle violations are
//! recorded into the running session with the schedule attached.

use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use crate::clock::VectorClock;
use crate::dpor;
use crate::sched::{sample_change_points, Policy, Rng};
use crate::shadow::ShadowKind;

pub use std::sync::atomic::Ordering;

// ---------------------------------------------------------------------------
// Global session plumbing
// ---------------------------------------------------------------------------

/// Fast-path guard: when zero, no session exists anywhere in the process
/// and every instrumented operation falls through to the plain one.
static ACTIVE_SESSIONS: StdAtomicUsize = StdAtomicUsize::new(0);

/// Location ids are global and monotonic, lazily stamped into each
/// facade object on first checked access. Fresh objects always get fresh
/// ids, so address reuse across (or within) sessions cannot alias state.
static NEXT_LOC_ID: StdAtomicUsize = StdAtomicUsize::new(1);

std::thread_local! {
    static TLS_SESSION: std::cell::RefCell<Option<(Arc<Session>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// One checker session at a time per process: sessions serialize their
/// registered threads, and interleaving two sessions' real threads would
/// make wall-clock behavior (not correctness) noisy.
static RUN_LOCK: StdMutex<()> = StdMutex::new(());

fn lock_state(sess: &Session) -> StdMutexGuard<'_, State> {
    sess.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Panic payload used to unwind registered threads when a session aborts
/// (step budget exceeded, or stop-on-first-race). Swallowed by the spawn
/// wrapper; never surfaces to user code as a test failure.
struct SessionAbort;

/// Per-object slot for the lazily assigned location id.
pub struct LocSlot(StdAtomicUsize);

/// Allocate a fresh location id eagerly (shadow-heap entries pair every
/// tracked object with a location so reclamation becomes a write-kind
/// event the explorer can reorder against reads).
pub(crate) fn fresh_loc() -> usize {
    NEXT_LOC_ID.fetch_add(1, StdOrdering::Relaxed)
}

/// Current location watermark. Paired with [`reset_locs`] to pin id
/// allocation across the executions of one DPOR exploration: sleep-set
/// and done-set entries carry `(loc, kind)` ops from earlier executions,
/// and matching them in later executions requires the re-created facade
/// objects to receive the *same* ids. Deterministic replay makes per-run
/// allocation order identical, so restarting the counter from the
/// exploration's base restores id stability. Only meaningful while the
/// run lock is held.
pub(crate) fn loc_watermark() -> usize {
    NEXT_LOC_ID.load(StdOrdering::Relaxed)
}

pub(crate) fn reset_locs(base: usize) {
    NEXT_LOC_ID.store(base, StdOrdering::Relaxed);
}

impl LocSlot {
    #[allow(clippy::new_without_default)] // mirrors atomic `new`; always const-constructed
    pub const fn new() -> Self {
        LocSlot(StdAtomicUsize::new(0))
    }

    fn id(&self) -> usize {
        let v = self.0.load(StdOrdering::Relaxed);
        if v != 0 {
            return v;
        }
        let fresh = NEXT_LOC_ID.fetch_add(1, StdOrdering::Relaxed);
        match self
            .0
            .compare_exchange(0, fresh, StdOrdering::Relaxed, StdOrdering::Relaxed)
        {
            Ok(_) => fresh,
            Err(winner) => winner,
        }
    }
}

/// The session + thread index of the caller, if the caller is a thread
/// registered with a live session and not currently unwinding. Returns
/// `None` otherwise — the caller must then perform the plain operation.
fn session_for_op() -> Option<(Arc<Session>, usize)> {
    if ACTIVE_SESSIONS.load(StdOrdering::Relaxed) == 0 || std::thread::panicking() {
        return None;
    }
    TLS_SESSION.with(|t| t.borrow().clone())
}

// ---------------------------------------------------------------------------
// Trace recording (consumed by crate::dpor and the budget-abort reports)
// ---------------------------------------------------------------------------

/// Pseudo-location for memory fences: fences are mutually dependent (a
/// `SeqCst` fence's effect depends on its position in the SC order) but
/// independent of per-location accesses. See DESIGN.md §10 for what this
/// over-approximation does and does not cover.
pub(crate) const FENCE_LOC: usize = usize::MAX;

/// What kind of event a scheduling step executed, for the dependence
/// relation DPOR reorders by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// A step with no dependence footprint (park polls, blocked probes).
    Step,
    /// An explicit yield (spin backoff): also a hint to the forced-mode
    /// default scheduler to rotate away from the yielding thread.
    Yield,
    /// Atomic load (read-kind).
    Load,
    /// Atomic store (write-kind).
    Store,
    /// Atomic read-modify-write (write-kind).
    Rmw,
    /// Plain-data read through `CheckedCell`/`TrackedCell` (read-kind).
    DataRead,
    /// Plain-data write, including shadow-heap reclamation events
    /// (write-kind).
    DataWrite,
    /// Lock/condvar traffic on the sync object's location (write-kind:
    /// any two operations on the same lock conflict).
    Sync,
    /// Thread spawn; `loc` carries the child's thread index (a
    /// program-order edge for the explorer's clocks, not a memory op).
    Spawn,
    /// Successful join; `loc` carries the target's thread index.
    Join,
}

impl OpKind {
    pub(crate) fn is_memory(self) -> bool {
        matches!(
            self,
            OpKind::Load
                | OpKind::Store
                | OpKind::Rmw
                | OpKind::DataRead
                | OpKind::DataWrite
                | OpKind::Sync
        )
    }

    pub(crate) fn is_write(self) -> bool {
        matches!(
            self,
            OpKind::Store | OpKind::Rmw | OpKind::DataWrite | OpKind::Sync
        )
    }
}

/// The operation a scheduling step executed: a location id plus kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Op {
    pub(crate) loc: usize,
    pub(crate) kind: OpKind,
}

impl Op {
    pub(crate) const NONE: Op = Op {
        loc: 0,
        kind: OpKind::Step,
    };
}

/// Two operations conflict (their order is observable) iff they touch
/// the same location and at least one writes. Spawn/join/yield edges are
/// handled by the explorer's clocks, not by this relation.
pub(crate) fn dependent(a: Op, b: Op) -> bool {
    a.kind.is_memory()
        && b.kind.is_memory()
        && a.loc == b.loc
        && (a.kind.is_write() || b.kind.is_write())
}

/// Sleep-set wake test for an entry recorded at watermark `w`: exact
/// dependence for prefix-stable locations (`loc < w`), conservative
/// any-fresh-memory-op wake otherwise. Location ids are stamped lazily
/// in access order, so an id first stamped *after* the divergence point
/// of two sibling executions may name different objects in each; waking
/// on any post-watermark memory op costs pruning, never soundness.
pub(crate) fn wakes(s: Op, s_watermark: usize, op: Op) -> bool {
    dependent(s, op)
        || (s.kind.is_memory()
            && op.kind.is_memory()
            && s.loc >= s_watermark
            && op.loc >= s_watermark)
}

/// One recorded scheduling step: who ran, what they did, who was enabled
/// at the decision (the explorer's backtrack candidates), and the
/// location watermark before the step (ids below it are stable across
/// every execution sharing the prefix up to this step).
#[derive(Clone, Debug)]
pub(crate) struct TraceStep {
    pub(crate) thread: usize,
    pub(crate) op: Op,
    pub(crate) enabled: Vec<usize>,
    pub(crate) watermark: usize,
}

/// A sleep-set entry: a thread, its recorded next op, and the watermark
/// at the divergence point the op was recorded from (see [`wakes`]).
pub(crate) type SleepEntry = (usize, Op, usize);

/// How a session picks threads: seeded sampling (the policy decides), or
/// a forced schedule prefix (DPOR exploration / schedule replay) with a
/// deterministic round-robin default past the prefix and an optional
/// sleep set pruning redundant continuations.
pub(crate) struct RunMode {
    forced: Option<Vec<usize>>,
    sleep: Vec<SleepEntry>,
    sleep_from: usize,
}

impl RunMode {
    pub(crate) fn seeded() -> Self {
        RunMode {
            forced: None,
            sleep: Vec::new(),
            sleep_from: usize::MAX,
        }
    }

    pub(crate) fn forced(schedule: Vec<usize>, sleep: Vec<SleepEntry>, sleep_from: usize) -> Self {
        RunMode {
            forced: Some(schedule),
            sleep,
            sleep_from,
        }
    }
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

/// What a parked thread is waiting for. Blocked threads are not schedule
/// candidates until the condition clears (under `Policy::Random`,
/// condvar waits stay eligible — modeling spurious wakeups).
#[derive(Clone, Copy, PartialEq, Eq)]
enum BlockedOn {
    /// `JoinHandle::join` on a checked thread.
    Thread(usize),
    /// A facade lock (by location id); cleared on release.
    Lock(usize),
    /// A facade condvar (by location id); cleared on notify.
    Cv(usize),
}

struct ThreadSt {
    clock: VectorClock,
    /// Parked at a scheduling point, waiting for the grant.
    waiting: bool,
    finished: bool,
    blocked: Option<BlockedOn>,
    /// Last executed step was a yield (forced-mode default rotates away).
    last_yield: bool,
    /// PCT priority; initial values live in `[2^64, 2^65)`, demotions
    /// count down from `2^64 - 1`, so any demoted thread ranks below any
    /// undemoted one and successive demotions rank lower still.
    priority: u128,
}

#[derive(Default)]
struct DataState {
    last_write: Option<Access>,
    /// Reads since the last write (one entry per reading thread).
    reads: Vec<Access>,
}

#[derive(Clone)]
struct Access {
    thread: usize,
    /// The accessor's own clock component at the access.
    at: u64,
    site: &'static Location<'static>,
}

struct State {
    seed: u64,
    rng: Rng,
    policy: Policy,
    max_steps: usize,
    steps: usize,
    stop_on_first_race: bool,
    aborted: bool,
    budget_exhausted: bool,
    deadlocked: bool,
    /// Thread currently granted execution (runs until its next
    /// scheduling point).
    active: Option<usize>,
    last_ran: Option<usize>,
    threads: Vec<ThreadSt>,
    unfinished: usize,
    /// Sync clocks for atomic locations.
    atomics: HashMap<usize, VectorClock>,
    /// Clocks for mutexes / rwlocks.
    locks: HashMap<usize, VectorClock>,
    /// Clocks for condvars.
    cvs: HashMap<usize, VectorClock>,
    /// Plain-data (CheckedCell) access history.
    datas: HashMap<usize, DataState>,
    /// Global SC order clock.
    sc_clock: VectorClock,
    races: Vec<Race>,
    /// Shadow-heap lifecycle violations recorded this iteration.
    shadow: Vec<ShadowRec>,
    panics: Vec<Box<dyn std::any::Any + Send + 'static>>,
    /// PCT change points (ascending step numbers) not yet applied.
    change_points: std::collections::VecDeque<usize>,
    demote_next: u128,
    /// Forced schedule prefix (DPOR exploration / schedule replay).
    forced: Option<Vec<usize>>,
    /// Cursor into `forced`; entries whose thread is not enabled when
    /// their turn comes (minimized schedules) are skipped permanently.
    forced_pos: usize,
    /// Sleep set: threads whose recorded next operation has already been
    /// explored from the branch point; they stay unscheduled by default
    /// picks until a dependent operation wakes them.
    sleep: Vec<SleepEntry>,
    /// Trace index from which executed operations apply the wake rule.
    sleep_from: usize,
    /// This execution was aborted as sleep-set redundant (every enabled
    /// thread asleep past the forced prefix).
    redundant: bool,
    /// Recorded schedule: one entry per consumed step.
    trace: Vec<TraceStep>,
    /// Enabled set at the most recent grant, moved into the trace entry
    /// when the granted thread consumes its step.
    pending_enabled: Vec<usize>,
}

/// A shadow-heap violation as recorded in-session (label only; the
/// public [`ShadowViolation`] adds seed/schedule).
#[derive(Clone)]
struct ShadowRec {
    kind: ShadowKind,
    label: &'static str,
    step: usize,
}

pub(crate) struct Session {
    state: StdMutex<State>,
    cv: StdCondvar,
}

enum AtomKind {
    Load,
    Store,
    Rmw,
}

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

impl Session {
    fn new(seed: u64, cfg: &Config, mode: RunMode) -> Arc<Self> {
        let mut rng = Rng::new(seed);
        let change_points = match cfg.policy {
            Policy::Pct { depth } => {
                sample_change_points(&mut rng, depth.saturating_sub(1), cfg.max_steps)
            }
            Policy::Random | Policy::Dpor => Vec::new(),
        };
        Arc::new(Session {
            state: StdMutex::new(State {
                seed,
                rng,
                policy: cfg.policy,
                max_steps: cfg.max_steps,
                steps: 0,
                stop_on_first_race: cfg.stop_on_first_race,
                aborted: false,
                budget_exhausted: false,
                deadlocked: false,
                active: None,
                last_ran: None,
                threads: Vec::new(),
                unfinished: 0,
                atomics: HashMap::new(),
                locks: HashMap::new(),
                cvs: HashMap::new(),
                datas: HashMap::new(),
                sc_clock: VectorClock::new(),
                races: Vec::new(),
                shadow: Vec::new(),
                panics: Vec::new(),
                change_points: change_points.into(),
                demote_next: (1u128 << 64) - 1,
                forced: mode.forced,
                forced_pos: 0,
                sleep: mode.sleep,
                sleep_from: mode.sleep_from,
                redundant: false,
                trace: Vec::new(),
                pending_enabled: Vec::new(),
            }),
            cv: StdCondvar::new(),
        })
    }

    /// Register a new checked thread; `parent` is `None` for the root.
    fn register_thread(&self, parent: Option<usize>) -> usize {
        let mut st = lock_state(self);
        register_thread_in(&mut st, parent)
    }

    fn thread_finished(&self, me: usize, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut st = lock_state(self);
        st.threads[me].finished = true;
        st.threads[me].waiting = false;
        st.unfinished -= 1;
        if st.active == Some(me) {
            st.active = None;
        }
        if let Some(p) = panic {
            if !p.is::<SessionAbort>() {
                st.panics.push(p);
                // A dead thread can no longer order its past accesses
                // with anyone; stop exploring this interleaving.
                st.aborted = true;
            }
        }
        Self::schedule(&mut st);
        self.cv.notify_all();
    }

    /// Block (without consuming a scheduling step) until `idx` is parked
    /// at its first scheduling point — keeps the candidate set at every
    /// decision deterministic.
    fn wait_parked(&self, idx: usize) {
        let mut st = lock_state(self);
        while !st.threads[idx].waiting && !st.threads[idx].finished && !st.aborted {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Used by non-session threads (e.g. `JoinHandle::join` from outside
    /// the session) to await a checked thread.
    fn wait_finished(&self, idx: usize) {
        let mut st = lock_state(self);
        while !st.threads[idx].finished && !st.aborted {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn wait_all_finished(&self) {
        let mut st = lock_state(self);
        while st.unfinished > 0 {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pick the next thread to run, if no grant is outstanding. Also
    /// detects true deadlocks (every live thread parked and blocked).
    fn schedule(st: &mut State) {
        if st.aborted || st.active.is_some() {
            return;
        }
        // Under Random, condvar-blocked threads stay eligible: being
        // granted models a spurious wakeup. PCT keeps them blocked so
        // its priority guarantees are not washed out by wakeup spam.
        let spurious_cv_wakeups = matches!(st.policy, Policy::Random);
        let mut cands: Vec<usize> = Vec::new();
        for i in 0..st.threads.len() {
            let t = &st.threads[i];
            if !t.waiting || t.finished {
                continue;
            }
            let eligible = match t.blocked {
                None => true,
                Some(BlockedOn::Thread(target)) => st.threads[target].finished,
                Some(BlockedOn::Lock(_)) => false,
                Some(BlockedOn::Cv(_)) => spurious_cv_wakeups,
            };
            if eligible {
                cands.push(i);
            }
        }
        if cands.is_empty() {
            // If nothing is runnable and nothing is executing toward its
            // next scheduling point, the remaining threads wait on each
            // other forever: a deadlock.
            let running = st
                .threads
                .iter()
                .filter(|t| !t.finished && !t.waiting)
                .count();
            if running == 0 && st.unfinished > 0 {
                st.aborted = true;
                st.deadlocked = true;
            }
            return;
        }
        let pick = if st.forced.is_some() || st.policy == Policy::Dpor {
            // Forced mode: consume the schedule prefix, then fall back to
            // a deterministic default that skips sleeping threads.
            let mut pick = None;
            let forced_len = st.forced.as_ref().map_or(0, |f| f.len());
            while st.forced_pos < forced_len {
                let want = st.forced.as_ref().expect("forced mode")[st.forced_pos];
                st.forced_pos += 1;
                if cands.contains(&want) {
                    pick = Some(want);
                    break;
                }
                // Not enabled when its turn came (a minimized schedule
                // may have deleted the step that would have enabled it):
                // drop the entry and try the next.
            }
            match pick {
                Some(p) => p,
                None => {
                    let awake: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&c| !st.sleep.iter().any(|&(t, _, _)| t == c))
                        .collect();
                    if awake.is_empty() {
                        // Every enabled thread is asleep: any continuation
                        // is equivalent to an already-explored trace.
                        st.aborted = true;
                        st.redundant = true;
                        return;
                    }
                    // Keep the current thread running through straight-line
                    // code (shorter traces), but rotate on yields so spin
                    // loops make global progress.
                    match st.last_ran {
                        Some(last) if awake.contains(&last) && !st.threads[last].last_yield => last,
                        Some(last) => *awake.iter().find(|&&c| c > last).unwrap_or(&awake[0]),
                        None => awake[0],
                    }
                }
            }
        } else {
            match st.policy {
                Policy::Random => {
                    // Preemption bounding: usually let the last thread keep
                    // going when it wants to.
                    match st.last_ran {
                        Some(last) if cands.contains(&last) && st.rng.ratio(3, 4) => last,
                        _ => cands[st.rng.below(cands.len())],
                    }
                }
                Policy::Pct { .. } => {
                    // Apply any change points crossed since the last pick:
                    // demote the thread that was running below everyone.
                    while let Some(&p) = st.change_points.front() {
                        if p > st.steps {
                            break;
                        }
                        st.change_points.pop_front();
                        if let Some(last) = st.last_ran {
                            st.threads[last].priority = st.demote_next;
                            st.demote_next = st.demote_next.saturating_sub(1);
                        }
                    }
                    *cands
                        .iter()
                        .max_by_key(|&&i| st.threads[i].priority)
                        .expect("non-empty candidate set")
                }
                Policy::Dpor => unreachable!("Dpor sessions always run in forced mode"),
            }
        };
        st.pending_enabled = cands;
        st.active = Some(pick);
        st.last_ran = Some(pick);
    }
}

/// Register a new checked thread under an already-held state lock;
/// `parent` is `None` for the root.
fn register_thread_in(st: &mut State, parent: Option<usize>) -> usize {
    let idx = st.threads.len();
    let mut clock = match parent {
        Some(p) => {
            // Spawn edge: child starts after everything the parent
            // did so far; parent ticks so the spawn point is distinct.
            st.threads[p].clock.tick(p);
            st.threads[p].clock.clone()
        }
        None => VectorClock::new(),
    };
    clock.tick(idx);
    let priority = (1u128 << 64) + st.rng.next_u64() as u128;
    st.threads.push(ThreadSt {
        clock,
        waiting: false,
        finished: false,
        blocked: None,
        last_yield: false,
        priority,
    });
    st.unfinished += 1;
    idx
}

/// Amend the current trace entry with the executed operation and apply
/// the sleep-set wake rule: a sleeping thread whose recorded next
/// operation is dependent with `op` must become schedulable again.
fn note_op(st: &mut State, op: Op) {
    if let Some(t) = st.trace.last_mut() {
        t.op = op;
    }
    if st.trace.len() > st.sleep_from && !st.sleep.is_empty() {
        st.sleep.retain(|&(_, s, w)| !wakes(s, w, op));
    }
}

/// Record a shadow-heap lifecycle violation into the running session.
fn push_shadow(st: &mut State, kind: ShadowKind, label: &'static str) {
    let step = st.trace.len().saturating_sub(1);
    if st.shadow.len() < 64 {
        st.shadow.push(ShadowRec { kind, label, step });
    }
    if st.stop_on_first_race {
        st.aborted = true;
    }
}

/// Park at a scheduling point, wait for the grant, consume one step, and
/// run `f` (the instrumented operation + its clock bookkeeping) while
/// serialized. Panics with the session-abort payload when the session
/// aborted or the step budget is exhausted.
fn with_step<R>(sess: &Session, me: usize, f: impl FnOnce(&mut State, usize) -> R) -> R {
    let mut st = lock_state(sess);
    if st.aborted {
        drop(st);
        std::panic::panic_any(SessionAbort);
    }
    st.threads[me].waiting = true;
    if st.active == Some(me) {
        st.active = None;
    }
    Session::schedule(&mut st);
    sess.cv.notify_all();
    while st.active != Some(me) && !st.aborted {
        st = sess.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    if st.aborted {
        drop(st);
        std::panic::panic_any(SessionAbort);
    }
    st.threads[me].waiting = false;
    // Being granted wakes the thread: for Random-policy condvar waits
    // this is exactly a spurious wakeup.
    st.threads[me].blocked = None;
    st.steps += 1;
    if st.steps > st.max_steps {
        st.aborted = true;
        st.budget_exhausted = true;
        sess.cv.notify_all();
        drop(st);
        std::panic::panic_any(SessionAbort);
    }
    let enabled = std::mem::take(&mut st.pending_enabled);
    st.trace.push(TraceStep {
        thread: me,
        op: Op::NONE,
        enabled,
        watermark: loc_watermark(),
    });
    st.threads[me].last_yield = false;
    let r = f(&mut st, me);
    if st.aborted {
        // The operation set the abort flag (stop-on-first-race or a
        // detected deadlock): wake every parked thread so they unwind.
        sess.cv.notify_all();
    }
    r
}

// ---------------------------------------------------------------------------
// Instrumented-operation hooks (used by the facade modules)
// ---------------------------------------------------------------------------

fn record_atomic(st: &mut State, me: usize, loc: usize, kind: AtomKind, o: Ordering) {
    let op_kind = match kind {
        AtomKind::Load => OpKind::Load,
        AtomKind::Store => OpKind::Store,
        AtomKind::Rmw => OpKind::Rmw,
    };
    note_op(st, Op { loc, kind: op_kind });
    let State {
        threads,
        atomics,
        sc_clock,
        ..
    } = st;
    let clock = &mut threads[me].clock;
    clock.tick(me);
    let sync = atomics.entry(loc).or_default();
    match kind {
        AtomKind::Load => {
            if is_acquire(o) {
                clock.join(sync);
            }
        }
        AtomKind::Store => {
            if is_release(o) {
                *sync = clock.clone();
            } else {
                // A relaxed store breaks the release sequence: later
                // acquire loads observing it gain no edges.
                sync.clear();
            }
        }
        AtomKind::Rmw => {
            if is_acquire(o) {
                clock.join(sync);
            }
            if is_release(o) {
                sync.join(clock);
            }
            // A relaxed RMW neither contributes nor destroys: it extends
            // the release sequence of the store it read from (C++20
            // [atomics.order]), so `sync` is left intact.
        }
    }
    if o == Ordering::SeqCst {
        clock.join(sc_clock);
        sc_clock.join(clock);
    }
}

pub(crate) fn atomic_load<T>(slot: &LocSlot, o: Ordering, f: impl FnOnce() -> T) -> T {
    match session_for_op() {
        None => f(),
        Some((s, me)) => with_step(&s, me, |st, me| {
            record_atomic(st, me, slot.id(), AtomKind::Load, o);
            f()
        }),
    }
}

pub(crate) fn atomic_store<T>(slot: &LocSlot, o: Ordering, f: impl FnOnce() -> T) -> T {
    match session_for_op() {
        None => f(),
        Some((s, me)) => with_step(&s, me, |st, me| {
            record_atomic(st, me, slot.id(), AtomKind::Store, o);
            f()
        }),
    }
}

pub(crate) fn atomic_rmw<T>(slot: &LocSlot, o: Ordering, f: impl FnOnce() -> T) -> T {
    match session_for_op() {
        None => f(),
        Some((s, me)) => with_step(&s, me, |st, me| {
            record_atomic(st, me, slot.id(), AtomKind::Rmw, o);
            f()
        }),
    }
}

/// Compare-exchange: records an RMW with `success` ordering when the
/// exchange succeeded, a load with `failure` ordering when it did not.
pub(crate) fn atomic_cas<T>(
    slot: &LocSlot,
    success: Ordering,
    failure: Ordering,
    f: impl FnOnce() -> Result<T, T>,
) -> Result<T, T> {
    match session_for_op() {
        None => f(),
        Some((s, me)) => with_step(&s, me, |st, me| {
            let r = f();
            let (kind, o) = match &r {
                Ok(_) => (AtomKind::Rmw, success),
                Err(_) => (AtomKind::Load, failure),
            };
            record_atomic(st, me, slot.id(), kind, o);
            r
        }),
    }
}

/// Memory fence. Only `SeqCst` fences get a semantics (the global SC
/// clock); weaker fences are recorded as plain steps. This is
/// conservative toward false *negatives* only.
pub(crate) fn fence_op(o: Ordering) {
    if let Some((s, me)) = session_for_op() {
        with_step(&s, me, |st, me| {
            note_op(
                st,
                Op {
                    loc: FENCE_LOC,
                    kind: OpKind::Sync,
                },
            );
            let State {
                threads, sc_clock, ..
            } = st;
            let clock = &mut threads[me].clock;
            clock.tick(me);
            if o == Ordering::SeqCst {
                clock.join(sc_clock);
                sc_clock.join(clock);
            }
        })
    }
}

fn record_data(
    st: &mut State,
    me: usize,
    loc: usize,
    is_write: bool,
    site: &'static Location<'static>,
) {
    note_op(
        st,
        Op {
            loc,
            kind: if is_write {
                OpKind::DataWrite
            } else {
                OpKind::DataRead
            },
        },
    );
    let step = st.trace.len().saturating_sub(1);
    let State {
        threads,
        datas,
        races,
        seed,
        aborted,
        stop_on_first_race,
        ..
    } = st;
    let clock = &mut threads[me].clock;
    let at = clock.tick(me);
    let d = datas.entry(loc).or_default();
    let mine = Access {
        thread: me,
        at,
        site,
    };
    let mut conflicts: Vec<(Access, RaceKind)> = Vec::new();
    if let Some(w) = &d.last_write {
        if w.thread != me && clock.get(w.thread) < w.at {
            let kind = if is_write {
                RaceKind::WriteWrite
            } else {
                RaceKind::WriteRead
            };
            conflicts.push((w.clone(), kind));
        }
    }
    if is_write {
        for r in &d.reads {
            if r.thread != me && clock.get(r.thread) < r.at {
                conflicts.push((r.clone(), RaceKind::ReadWrite));
            }
        }
        d.reads.clear();
        d.last_write = Some(mine.clone());
    } else {
        d.reads.retain(|r| r.thread != me);
        d.reads.push(mine.clone());
    }
    for (prior, kind) in conflicts {
        if races.len() < 64 {
            races.push(Race {
                seed: *seed,
                kind,
                first: AccessLabel::new(&prior),
                second: AccessLabel::new(&mine),
                schedule: None,
                step,
            });
        }
        if *stop_on_first_race {
            *aborted = true;
        }
    }
}

/// A plain-data access that first validates against the shadow-heap
/// oracle *inside the same scheduling step* (so a reclamation landing
/// between the check and the access cannot be missed). `validate` runs
/// serialized; a violation is recorded into the session, or panics when
/// no session is active.
#[track_caller]
pub(crate) fn data_access_validated<T>(
    loc: usize,
    is_write: bool,
    validate: impl FnOnce() -> Option<(ShadowKind, &'static str)>,
    f: impl FnOnce() -> T,
) -> T {
    let site = Location::caller();
    match session_for_op() {
        None => {
            if let Some((kind, label)) = validate() {
                panic!("shadow-heap violation outside a checker session: {kind:?} on `{label}`");
            }
            f()
        }
        Some((s, me)) => with_step(&s, me, |st, me| {
            if let Some((kind, label)) = validate() {
                push_shadow(st, kind, label);
            }
            record_data(st, me, loc, is_write, site);
            f()
        }),
    }
}

/// A shadow-heap reclamation event: a write-kind scheduling step on the
/// entry's location, so the explorer reorders it against tracked reads.
/// Outside a session the step is skipped; a violation then panics.
#[track_caller]
pub(crate) fn shadow_write_step(loc: usize, label: &'static str, viol: Option<ShadowKind>) {
    let site = Location::caller();
    match session_for_op() {
        None => {
            if let Some(kind) = viol {
                panic!("shadow-heap violation outside a checker session: {kind:?} on `{label}`");
            }
        }
        Some((s, me)) => with_step(&s, me, |st, me| {
            if let Some(kind) = viol {
                push_shadow(st, kind, label);
            }
            record_data(st, me, loc, true, site);
        }),
    }
}

/// Record a shadow-heap lifecycle violation that happened outside any
/// scheduling step (retire/leak transitions). Panics when no session is
/// active — the violation is real either way.
pub(crate) fn shadow_violation(kind: ShadowKind, label: &'static str) {
    match session_for_op() {
        None => panic!("shadow-heap violation outside a checker session: {kind:?} on `{label}`"),
        Some((s, _)) => {
            let mut st = lock_state(&s);
            push_shadow(&mut st, kind, label);
            if st.aborted {
                drop(st);
                s.cv.notify_all();
            }
        }
    }
}

#[track_caller]
pub(crate) fn data_read<T>(slot: &LocSlot, f: impl FnOnce() -> T) -> T {
    let site = Location::caller();
    match session_for_op() {
        None => f(),
        Some((s, me)) => with_step(&s, me, |st, me| {
            record_data(st, me, slot.id(), false, site);
            f()
        }),
    }
}

#[track_caller]
pub(crate) fn data_write<T>(slot: &LocSlot, f: impl FnOnce() -> T) -> T {
    let site = Location::caller();
    match session_for_op() {
        None => f(),
        Some((s, me)) => with_step(&s, me, |st, me| {
            record_data(st, me, slot.id(), true, site);
            f()
        }),
    }
}

/// One attempt to acquire a lock-like object; on success, joins the
/// lock's clock into the acquirer's.
pub(crate) fn lock_acquire_attempt<G>(slot: &LocSlot, f: impl FnOnce() -> Option<G>) -> Option<G> {
    match session_for_op() {
        None => f(),
        Some((s, me)) => with_step(&s, me, |st, me| {
            let g = f();
            note_op(
                st,
                Op {
                    loc: slot.id(),
                    kind: OpKind::Sync,
                },
            );
            if g.is_some() {
                let State { threads, locks, .. } = st;
                let clock = &mut threads[me].clock;
                clock.tick(me);
                clock.join(locks.entry(slot.id()).or_default());
            } else {
                st.threads[me].clock.tick(me);
                // Park until the holder releases (release clears this).
                st.threads[me].blocked = Some(BlockedOn::Lock(slot.id()));
            }
            g
        }),
    }
}

/// A single non-blocking acquisition attempt (`try_lock` semantics):
/// like [`lock_acquire_attempt`] but failure does not park the caller.
pub(crate) fn lock_try_once<G>(slot: &LocSlot, f: impl FnOnce() -> Option<G>) -> Option<G> {
    match session_for_op() {
        None => f(),
        Some((s, me)) => with_step(&s, me, |st, me| {
            let g = f();
            note_op(
                st,
                Op {
                    loc: slot.id(),
                    kind: OpKind::Sync,
                },
            );
            let State { threads, locks, .. } = st;
            let clock = &mut threads[me].clock;
            clock.tick(me);
            if g.is_some() {
                clock.join(locks.entry(slot.id()).or_default());
            }
            g
        }),
    }
}

/// Release a lock-like object: joins the releaser's clock into the
/// lock's clock, then runs `f` (which drops the real guard).
pub(crate) fn lock_release<R>(slot: &LocSlot, f: impl FnOnce() -> R) -> R {
    match session_for_op() {
        None => f(),
        Some((s, me)) => with_step(&s, me, |st, me| {
            let loc = slot.id();
            note_op(
                st,
                Op {
                    loc,
                    kind: OpKind::Sync,
                },
            );
            let State { threads, locks, .. } = st;
            let clock = &mut threads[me].clock;
            clock.tick(me);
            locks.entry(loc).or_default().join(clock);
            for t in threads.iter_mut() {
                if t.blocked == Some(BlockedOn::Lock(loc)) {
                    t.blocked = None;
                }
            }
            f()
        }),
    }
}

pub(crate) fn cv_notify(slot: &LocSlot, f: impl FnOnce()) {
    match session_for_op() {
        None => f(),
        Some((s, me)) => with_step(&s, me, |st, me| {
            let loc = slot.id();
            note_op(
                st,
                Op {
                    loc,
                    kind: OpKind::Sync,
                },
            );
            let State { threads, cvs, .. } = st;
            let clock = &mut threads[me].clock;
            clock.tick(me);
            cvs.entry(loc).or_default().join(clock);
            for t in threads.iter_mut() {
                if t.blocked == Some(BlockedOn::Cv(loc)) {
                    t.blocked = None;
                }
            }
            f()
        }),
    }
}

/// First half of a modeled condvar wait, as one scheduling step: mark
/// the caller blocked on the condvar, release the mutex's clock (and its
/// lock-blocked waiters), and run `f` to drop the real guard.
pub(crate) fn cv_block_and_release(cv: &LocSlot, mutex: &LocSlot, f: impl FnOnce()) {
    match session_for_op() {
        None => f(),
        Some((s, me)) => with_step(&s, me, |st, me| {
            let cv_loc = cv.id();
            let mutex_loc = mutex.id();
            note_op(
                st,
                Op {
                    loc: cv_loc,
                    kind: OpKind::Sync,
                },
            );
            let State { threads, locks, .. } = st;
            let clock = &mut threads[me].clock;
            clock.tick(me);
            locks.entry(mutex_loc).or_default().join(clock);
            for t in threads.iter_mut() {
                if t.blocked == Some(BlockedOn::Lock(mutex_loc)) {
                    t.blocked = None;
                }
            }
            threads[me].blocked = Some(BlockedOn::Cv(cv_loc));
            f()
        }),
    }
}

/// After a (modeled) condvar wakeup: join the condvar's clock.
pub(crate) fn cv_wake(slot: &LocSlot) {
    if let Some((s, me)) = session_for_op() {
        with_step(&s, me, |st, me| {
            note_op(
                st,
                Op {
                    loc: slot.id(),
                    kind: OpKind::Sync,
                },
            );
            let State { threads, cvs, .. } = st;
            let clock = &mut threads[me].clock;
            clock.tick(me);
            clock.join(cvs.entry(slot.id()).or_default());
        })
    }
}

/// A pure scheduling point (facade `yield_now`, spin backoff, modeled
/// sleeps).
pub(crate) fn yield_step() {
    if let Some((s, me)) = session_for_op() {
        with_step(&s, me, |st, me| {
            note_op(
                st,
                Op {
                    loc: 0,
                    kind: OpKind::Yield,
                },
            );
            st.threads[me].clock.tick(me);
            st.threads[me].last_yield = true;
        })
    }
}

/// True when the calling thread is registered with a live session (used
/// by facade locks to pick the spin-try path over real blocking).
pub(crate) fn in_session() -> bool {
    session_for_op().is_some()
}

// ---------------------------------------------------------------------------
// Checked thread spawning (used by crate::thread)
// ---------------------------------------------------------------------------

pub(crate) struct CheckedSpawn {
    pub(crate) session: Arc<Session>,
    pub(crate) child: usize,
}

/// Register a child of the calling (registered) thread and return the
/// session handle to pass into the native thread. `None` when the caller
/// is not in a session. Spawning is itself a scheduling step so the
/// explorer sees the spawn edge (child clock starts at the parent's).
pub(crate) fn prepare_spawn() -> Option<CheckedSpawn> {
    let (session, parent) = session_for_op()?;
    let child = with_step(&session, parent, |st, me| {
        let child = register_thread_in(st, Some(me));
        note_op(
            st,
            Op {
                loc: child,
                kind: OpKind::Spawn,
            },
        );
        child
    });
    Some(CheckedSpawn { session, child })
}

/// Entry hook for the native child thread: adopt the session, park at
/// the first scheduling point, then run `f` under the schedule.
/// Returns `None` when the closure was unwound by a session abort.
pub(crate) fn run_child<T>(spawn: CheckedSpawn, f: impl FnOnce() -> T) -> Option<T> {
    let CheckedSpawn { session, child } = spawn;
    TLS_SESSION.with(|t| *t.borrow_mut() = Some((session.clone(), child)));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // First scheduling point: parks, which also signals the parent
        // that the candidate set now includes this thread.
        yield_step();
        f()
    }));
    TLS_SESSION.with(|t| *t.borrow_mut() = None);
    let out = match r {
        Ok(v) => {
            session.thread_finished(child, None);
            Some(v)
        }
        Err(p) => {
            session.thread_finished(child, Some(p));
            None
        }
    };
    // Hold the OS thread alive until the whole iteration is done: TLS
    // destructors of checked code (e.g. QSBR's registry cleanup) run at
    // OS-thread exit, outside instrumentation. Were the thread to exit
    // now, those destructors would mutate shared state concurrently with
    // the still-running schedule — nondeterministically and invisibly to
    // the race detector. After the iteration nothing is scheduled, so
    // the destructors can no longer interleave with checked code.
    session.wait_all_finished();
    out
}

/// Non-blocking, non-stepping query: has the checked thread finished?
pub(crate) fn peek_finished(session: &Arc<Session>, target: usize) -> bool {
    let st = lock_state(session);
    st.threads[target].finished
}

/// Parent-side barrier after spawning: wait until the child parked.
pub(crate) fn await_parked(spawn_session: &Arc<Session>, child: usize) {
    spawn_session.wait_parked(child);
}

/// One scheduled poll of a checked join: returns true (joining the
/// target's final clock) once the target finished.
pub(crate) fn join_poll(session: &Arc<Session>, target: usize) -> bool {
    match session_for_op() {
        Some((s, me)) if Arc::ptr_eq(&s, session) => with_step(&s, me, |st, me| {
            if st.threads[target].finished {
                note_op(
                    st,
                    Op {
                        loc: target,
                        kind: OpKind::Join,
                    },
                );
                let final_clock = st.threads[target].clock.clone();
                let clock = &mut st.threads[me].clock;
                clock.tick(me);
                clock.join(&final_clock);
                true
            } else {
                // Park until the target finishes (`thread_finished` on
                // the target makes this thread eligible again).
                st.threads[me].blocked = Some(BlockedOn::Thread(target));
                false
            }
        }),
        _ => {
            // Joiner is outside the session (or in another): block
            // without consuming schedule steps.
            session.wait_finished(target);
            true
        }
    }
}

// ---------------------------------------------------------------------------
// Public API: Config / Checker / Report
// ---------------------------------------------------------------------------

/// Checker configuration. All fields have conservative defaults; the
/// important contract is that a `(Config, seed)` pair fully determines
/// the explored schedule.
#[derive(Clone, Debug)]
pub struct Config {
    /// First seed; iteration `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Number of schedules to explore.
    pub iterations: usize,
    /// Per-iteration scheduling-step budget (aborts livelocks).
    pub max_steps: usize,
    /// Schedule policy.
    pub policy: Policy,
    /// Abort an iteration at its first detected race.
    pub stop_on_first_race: bool,
    /// Under [`Policy::Dpor`]: skip backtrack branches whose schedule
    /// prefix would exceed this many preemptions (a context switch away
    /// from a still-enabled thread). `None` explores without a bound;
    /// with a bound the exploration is knowingly incomplete and the
    /// skipped branches are counted in [`DporReport::pruned`](crate::dpor::DporReport::pruned).
    pub preemption_bound: Option<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            base_seed: 0x5eed,
            iterations: 32,
            max_steps: 20_000,
            policy: Policy::Random,
            stop_on_first_race: false,
            preemption_bound: None,
        }
    }
}

/// How two accesses conflicted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceKind {
    /// Prior write, current write.
    WriteWrite,
    /// Prior write, current read.
    WriteRead,
    /// Prior read, current write.
    ReadWrite,
}

/// One endpoint of a detected race.
#[derive(Clone, Debug)]
pub struct AccessLabel {
    /// Session-local thread index (0 = the root closure's thread).
    pub thread: usize,
    /// `file:line:column` of the access.
    pub site: String,
}

impl AccessLabel {
    fn new(a: &Access) -> Self {
        AccessLabel {
            thread: a.thread,
            site: format!("{}:{}:{}", a.site.file(), a.site.line(), a.site.column()),
        }
    }
}

/// A detected data race, with the seed that reproduces the schedule —
/// or, under [`Policy::Dpor`], the minimized serialized schedule itself.
#[derive(Clone, Debug)]
pub struct Race {
    pub seed: u64,
    pub kind: RaceKind,
    pub first: AccessLabel,
    pub second: AccessLabel,
    /// Minimized counterexample schedule (DPOR / schedule replays only);
    /// pass it to [`Checker::replay`] to re-run the exact interleaving.
    pub schedule: Option<String>,
    /// Trace index of the second access (minimization anchor).
    pub(crate) step: usize,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (a, b) = match self.kind {
            RaceKind::WriteWrite => ("write", "write"),
            RaceKind::WriteRead => ("write", "read"),
            RaceKind::ReadWrite => ("read", "write"),
        };
        let repro: String = match &self.schedule {
            Some(s) => format!("schedule \"{s}\""),
            None => format!("seed {:#x}", self.seed),
        };
        write!(
            f,
            "data race ({repro}): {} at {} (thread {}) is unordered with {} at {} (thread {})",
            a, self.first.site, self.first.thread, b, self.second.site, self.second.thread
        )
    }
}

/// A shadow-heap lifecycle violation (see [`crate::shadow`]), with its
/// reproducer: the seed under sampling policies, the minimized schedule
/// under [`Policy::Dpor`].
#[derive(Clone, Debug)]
pub struct ShadowViolation {
    pub seed: u64,
    pub kind: ShadowKind,
    /// The tracked object's label (as passed to `TrackedCell::new` /
    /// `shadow::alloc`).
    pub label: String,
    /// Minimized counterexample schedule (DPOR / schedule replays only).
    pub schedule: Option<String>,
}

impl std::fmt::Display for ShadowViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let repro: String = match &self.schedule {
            Some(s) => format!("schedule \"{s}\""),
            None => format!("seed {:#x}", self.seed),
        };
        write!(
            f,
            "shadow-heap {:?} ({repro}) on `{}`",
            self.kind, self.label
        )
    }
}

/// A retired-but-never-reclaimed object observed at session end.
#[derive(Clone, Debug)]
pub struct ShadowLeak {
    /// Seed of the leaking iteration (0 under [`Policy::Dpor`]).
    pub seed: u64,
    pub label: String,
    pub bytes: usize,
}

/// A step-budget abort, with both reproducers: the seed and the
/// serialized schedule prefix that ran away.
#[derive(Clone, Debug)]
pub struct BudgetAbort {
    pub seed: u64,
    /// Steps consumed when the budget tripped.
    pub steps: usize,
    /// RLE-serialized schedule prefix (possibly truncated for display;
    /// the seed replays the full run under sampling policies).
    pub schedule_prefix: String,
}

impl std::fmt::Display for BudgetAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step budget exhausted (seed {:#x}, {} steps); schedule prefix: {}",
            self.seed, self.steps, self.schedule_prefix
        )
    }
}

/// Aggregate result of a checker run.
#[derive(Debug, Default)]
pub struct Report {
    /// Iterations (schedules) actually executed.
    pub iterations: usize,
    /// All detected races (bounded per iteration), in detection order.
    pub races: Vec<Race>,
    /// Shadow-heap lifecycle violations, in detection order.
    pub shadow: Vec<ShadowViolation>,
    /// Retired-but-never-reclaimed objects at session end (reported, not
    /// failed: leak schemes retire-and-forget by design).
    pub leaks: Vec<ShadowLeak>,
    /// Iterations that blew the step budget, with both reproducers.
    pub budget_exhausted: Vec<BudgetAbort>,
    /// Seeds whose iteration ended with every live thread blocked.
    pub deadlocks: Vec<u64>,
    /// Exploration accounting under [`Policy::Dpor`].
    pub dpor: Option<crate::dpor::DporReport>,
}

impl Report {
    /// No races and no shadow-heap violations detected.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.shadow.is_empty()
    }

    pub fn first_race(&self) -> Option<&Race> {
        self.races.first()
    }

    /// First replayable counterexample schedule, if any failure carries
    /// one (DPOR mode attaches a minimized schedule to every failure).
    pub fn first_schedule(&self) -> Option<&str> {
        self.races
            .iter()
            .filter_map(|r| r.schedule.as_deref())
            .chain(self.shadow.iter().filter_map(|s| s.schedule.as_deref()))
            .next()
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "checker: {} iterations, {} race(s), {} shadow violation(s), {} leak(s), {} budget-exhausted, {} deadlocked",
            self.iterations,
            self.races.len(),
            self.shadow.len(),
            self.leaks.len(),
            self.budget_exhausted.len(),
            self.deadlocks.len()
        )?;
        if let Some(d) = &self.dpor {
            writeln!(f, "  {d}")?;
        }
        for r in &self.races {
            writeln!(f, "  {r}")?;
        }
        for s in &self.shadow {
            writeln!(f, "  {s}")?;
        }
        for l in &self.leaks {
            writeln!(
                f,
                "  leak: `{}` ({} bytes, seed {:#x})",
                l.label, l.bytes, l.seed
            )?;
        }
        for b in &self.budget_exhausted {
            writeln!(f, "  {b}")?;
        }
        Ok(())
    }
}

/// Reproducer accepted by [`Checker::replay`]: a seed (sampling
/// policies) or a serialized schedule string (DPOR counterexamples).
#[derive(Clone, Debug)]
pub enum ReplayToken {
    Seed(u64),
    Schedule(String),
}

impl From<u64> for ReplayToken {
    fn from(seed: u64) -> Self {
        ReplayToken::Seed(seed)
    }
}

impl From<&str> for ReplayToken {
    fn from(s: &str) -> Self {
        ReplayToken::Schedule(s.to_string())
    }
}

impl From<String> for ReplayToken {
    fn from(s: String) -> Self {
        ReplayToken::Schedule(s)
    }
}

/// The deterministic checker. See the module docs.
pub struct Checker {
    config: Config,
}

impl Checker {
    pub fn new(config: Config) -> Self {
        Checker { config }
    }

    /// Explore schedules of `f`: `config.iterations` seeded schedules
    /// under the sampling policies, or up to `config.iterations`
    /// DPOR-derived executions under [`Policy::Dpor`]. The closure runs
    /// once per iteration on a fresh registered root thread; any thread
    /// it spawns through [`crate::thread::spawn`] joins the schedule.
    /// Panics from the closure (assertion failures) are re-raised here
    /// after the iteration's threads wind down.
    pub fn run<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        match self.config.policy {
            Policy::Dpor => self.run_dpor(f),
            _ => self.run_seeded(f),
        }
    }

    fn run_seeded(&self, f: Arc<dyn Fn() + Send + Sync>) -> Report {
        let mut report = Report::default();
        for i in 0..self.config.iterations {
            let seed = self.config.base_seed.wrapping_add(i as u64);
            let mut outcome = Self::run_one(seed, &self.config, RunMode::seeded(), f.clone());
            report.iterations += 1;
            let had_failure = !outcome.races.is_empty() || !outcome.shadow.is_empty();
            let panic = outcome.panic_taken();
            outcome.fold_into(&mut report, seed, None);
            if let Some(p) = panic {
                std::panic::resume_unwind(p);
            }
            if had_failure && self.config.stop_on_first_race {
                break;
            }
        }
        report
    }

    /// Exhaustive source-DPOR exploration: run, derive backtrack points
    /// from the trace's dependence races, re-run with forced schedule
    /// prefixes, prune sleep-set-redundant continuations — until no
    /// unexplored branch remains or the execution budget
    /// (`config.iterations`) is spent. Every failure gets a minimized
    /// schedule attached, replayable via [`Checker::replay`].
    fn run_dpor(&self, f: Arc<dyn Fn() + Send + Sync>) -> Report {
        let mut explorer = dpor::Explorer::new(self.config.preemption_bound);
        let mut report = Report::default();
        let mut complete = false;
        // Pin location-id allocation so every execution of this
        // exploration assigns identical ids to the (re-created) facade
        // objects — sleep/done sets match ops across executions by loc.
        let loc_base = loc_watermark();
        loop {
            if report.iterations >= self.config.iterations {
                break;
            }
            let Some(run) = explorer.next_run() else {
                complete = true;
                break;
            };
            reset_locs(loc_base);
            let dbg = std::env::var_os("RCUARRAY_DPOR_DEBUG").is_some();
            if dbg {
                eprintln!(
                    "dpor run {}: sched={:?} sleep={:?} from={}",
                    report.iterations, run.schedule, run.sleep, run.sleep_from
                );
            }
            let mode = RunMode::forced(run.schedule, run.sleep, run.sleep_from);
            let mut outcome = Self::run_one(0, &self.config, mode, f.clone());
            report.iterations += 1;
            if dbg {
                let tr: Vec<(usize, OpKind, usize)> = outcome
                    .trace
                    .iter()
                    .map(|t| (t.thread, t.op.kind, t.op.loc))
                    .collect();
                eprintln!(
                    "  -> redundant={} races={} trace={:?}",
                    outcome.redundant,
                    outcome.races.len(),
                    tr
                );
            }
            explorer.integrate(&outcome.trace, outcome.redundant);
            let full: Vec<usize> = outcome.trace.iter().map(|t| t.thread).collect();
            let had_failure = !outcome.races.is_empty() || !outcome.shadow.is_empty();
            let schedule = if had_failure {
                // Truncate at the last failing step, then shrink while the
                // failure still reproduces.
                let anchor = outcome
                    .races
                    .iter()
                    .map(|r| r.step)
                    .chain(outcome.shadow.iter().map(|s| s.step))
                    .max()
                    .expect("failing outcome has a step");
                let prefix = &full[..(anchor + 1).min(full.len())];
                let minimized = dpor::minimize(prefix, &|sched| {
                    Self::schedule_fails(&self.config, sched, f.clone())
                });
                Some(dpor::serialize_schedule(&minimized))
            } else {
                None
            };
            let panic = outcome.panic_taken();
            outcome.fold_into(&mut report, 0, schedule);
            if let Some(p) = panic {
                eprintln!(
                    "checker: panic under Policy::Dpor; failing schedule: {}",
                    dpor::serialize_schedule(&full)
                );
                std::panic::resume_unwind(p);
            }
            if had_failure && self.config.stop_on_first_race {
                break;
            }
        }
        let mut stats = explorer.stats();
        stats.complete = complete;
        report.dpor = Some(stats);
        report
    }

    /// Minimizer predicate: does this forced schedule (with round-robin
    /// default past the prefix) still exhibit a failure?
    fn schedule_fails(cfg: &Config, sched: &[usize], f: Arc<dyn Fn() + Send + Sync>) -> bool {
        let mode = RunMode::forced(sched.to_vec(), Vec::new(), usize::MAX);
        let o = Self::run_one(0, cfg, mode, f);
        !o.races.is_empty() || !o.shadow.is_empty() || o.panic.is_some()
    }

    /// Re-run a single reproducer: a seed (as reported by [`Race::seed`])
    /// or a serialized schedule string (as reported by
    /// [`Race::schedule`] / [`ShadowViolation::schedule`] under
    /// [`Policy::Dpor`]).
    pub fn replay<F>(token: impl Into<ReplayToken>, config: &Config, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        match token.into() {
            ReplayToken::Seed(seed) => Checker::new(Config {
                base_seed: seed,
                iterations: 1,
                ..config.clone()
            })
            .run(f),
            ReplayToken::Schedule(s) => {
                let schedule = dpor::parse_schedule(&s)
                    .unwrap_or_else(|e| panic!("invalid schedule string {s:?}: {e}"));
                let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
                let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
                let cfg = Config {
                    policy: Policy::Dpor,
                    ..config.clone()
                };
                let mut outcome = Self::run_one(
                    0,
                    &cfg,
                    RunMode::forced(schedule, Vec::new(), usize::MAX),
                    f,
                );
                let mut report = Report {
                    iterations: 1,
                    ..Report::default()
                };
                let panic = outcome.panic_taken();
                outcome.fold_into(&mut report, 0, Some(s));
                if let Some(p) = panic {
                    std::panic::resume_unwind(p);
                }
                report
            }
        }
    }

    fn run_one(
        seed: u64,
        cfg: &Config,
        mode: RunMode,
        f: Arc<dyn Fn() + Send + Sync>,
    ) -> IterOutcome {
        let session = Session::new(seed, cfg, mode);
        ACTIVE_SESSIONS.fetch_add(1, StdOrdering::SeqCst);
        let epoch = crate::shadow::begin_session();
        let root = session.register_thread(None);
        let s2 = session.clone();
        let handle = std::thread::Builder::new()
            .name(format!("checked-root-{seed:#x}"))
            .spawn(move || {
                let spawn = CheckedSpawn {
                    session: s2,
                    child: root,
                };
                run_child(spawn, move || f());
            })
            .expect("spawn checked root");
        session.wait_all_finished();
        let _ = handle.join();
        ACTIVE_SESSIONS.fetch_sub(1, StdOrdering::SeqCst);
        let leaks = crate::shadow::end_session(epoch);
        let mut st = lock_state(&session);
        let outcome = IterOutcome {
            races: std::mem::take(&mut st.races),
            shadow: std::mem::take(&mut st.shadow),
            leaks,
            budget_exhausted: st.budget_exhausted,
            deadlocked: st.deadlocked,
            redundant: st.redundant,
            steps: st.steps,
            trace: std::mem::take(&mut st.trace),
            panic: st.panics.drain(..).next(),
        };
        drop(st);
        outcome
    }
}

struct IterOutcome {
    races: Vec<Race>,
    shadow: Vec<ShadowRec>,
    /// `(label, bytes)` of retired-but-never-reclaimed shadow entries.
    leaks: Vec<(String, usize)>,
    budget_exhausted: bool,
    deadlocked: bool,
    redundant: bool,
    steps: usize,
    trace: Vec<TraceStep>,
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
}

impl IterOutcome {
    /// Merge this iteration into the aggregate report, attaching the
    /// reproducers (`seed` always; `schedule` under DPOR / replays).
    fn fold_into(self, report: &mut Report, seed: u64, schedule: Option<String>) {
        for mut r in self.races {
            r.schedule = schedule.clone();
            report.races.push(r);
        }
        for s in self.shadow {
            report.shadow.push(ShadowViolation {
                seed,
                kind: s.kind,
                label: s.label.to_string(),
                schedule: schedule.clone(),
            });
        }
        // A run aborted as sleep-set redundant stops mid-scenario: what it
        // had retired but not yet reclaimed is an artefact of the cut, and
        // an equivalent execution runs to completion elsewhere.
        if !self.redundant {
            for (label, bytes) in self.leaks {
                report.leaks.push(ShadowLeak { seed, label, bytes });
            }
        }
        if self.budget_exhausted {
            let threads: Vec<usize> = self.trace.iter().map(|t| t.thread).collect();
            report.budget_exhausted.push(BudgetAbort {
                seed,
                steps: self.steps,
                schedule_prefix: dpor::serialize_schedule_capped(&threads, 4096),
            });
        }
        if self.deadlocked {
            report.deadlocks.push(seed);
        }
    }

    /// Take the panic payload out before `fold_into` consumes `self`.
    fn panic_taken(&mut self) -> Option<Box<dyn std::any::Any + Send + 'static>> {
        self.panic.take()
    }
}
