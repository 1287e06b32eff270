//! Deterministic fault injection for the simulated cluster.
//!
//! The paper evaluates RCUArray on a healthy Cray XC-50; a real deployment
//! also has to survive an unhealthy one. This module lets tests declare, up
//! front and reproducibly, how the simulated network misbehaves:
//!
//! * **probabilistic faults** — each GET/PUT/remote-execute fails with a
//!   configured probability, decided by a seeded counter-based PRNG so the
//!   schedule is a pure function of `(seed, locale, op kind, sequence #)`;
//! * **locale state** — a locale can be marked *down* (every operation
//!   touching it fails with [`CommError::LocaleDown`]) or *slow* (operations
//!   touching it spin for extra time before completing);
//! * **link rules** — directed `(from, to)` rules targeting one link rather
//!   than a whole locale: *partition* (fail with
//!   [`CommError::Partitioned`]), *one-way delay* (spin before completing —
//!   asymmetric latency) and *drop* (probabilistic [`CommError::Transient`],
//!   pairs with a retry policy);
//! * **trigger points** — named one-shot hooks (e.g. `"resize.publish"`)
//!   that error or panic on their n-th hit, for aiming a fault at one exact
//!   phase of an algorithm.
//!
//! Every injected fault is appended to an event log; two runs with the same
//! seed and the same (per-locale single-threaded) workload produce the same
//! log, which is how the chaos suite asserts reproducibility.
//!
//! A disabled plan (the default) costs one predictable branch per
//! operation: [`FaultPlan::check`] tests a single `bool` and returns.

use crate::locale::LocaleId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Upper bound on locales a fault plan can track (down/slow bitmasks are a
/// single word). The paper's largest evaluation uses 32 locales.
pub const MAX_FAULT_LOCALES: usize = 64;

/// The kinds of communication operations a plan can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A remote read (GET).
    Get,
    /// A remote write (PUT).
    Put,
    /// A remote `on`-block execution (active message).
    RemoteExec,
}

impl OpKind {
    #[inline]
    fn index(self) -> usize {
        match self {
            OpKind::Get => 0,
            OpKind::Put => 1,
            OpKind::RemoteExec => 2,
        }
    }

    /// Stable name used in event logs and `Display` output.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::Put => "put",
            OpKind::RemoteExec => "on",
        }
    }
}

/// Why a simulated communication operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// The operation (or its retry loop) exceeded its time budget.
    Timeout {
        /// The operation that timed out.
        op: OpKind,
        /// The remote locale it was addressed to.
        locale: LocaleId,
    },
    /// The target locale is marked down; retrying cannot help until it is
    /// marked up again.
    LocaleDown {
        /// The operation that was refused.
        op: OpKind,
        /// The locale that is down.
        locale: LocaleId,
    },
    /// A one-off loss (dropped packet, failed trigger); retrying may
    /// succeed.
    Transient {
        /// The operation that was dropped.
        op: OpKind,
        /// The remote locale it was addressed to.
        locale: LocaleId,
    },
    /// The target structure's reclamation backlog is at its configured
    /// byte cap (see `PressureConfig` in `rcuarray-reclaim`): the write
    /// was refused rather than growing the backlog. Retrying after a
    /// quiesce may succeed — unless a stalled reader holds the backlog,
    /// in which case the error keeps surfacing until that reader
    /// checkpoints, parks or exits.
    Backpressure {
        /// The operation that was refused.
        op: OpKind,
        /// The locale whose reclamation backlog is at capacity.
        locale: LocaleId,
    },
    /// The directed link to the target locale is partitioned (a link
    /// rule, not a down locale — the reverse direction and other links
    /// may be healthy). A standing condition like `LocaleDown`: retrying
    /// cannot help until the partition heals.
    Partitioned {
        /// The operation that was refused.
        op: OpKind,
        /// The unreachable locale (the far end of the cut link).
        locale: LocaleId,
    },
}

impl CommError {
    /// Whether a retry has any chance of succeeding. `LocaleDown` and
    /// `Partitioned` are standing conditions, not worth burning the retry
    /// budget on.
    #[inline]
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            CommError::Transient { .. }
                | CommError::Timeout { .. }
                | CommError::Backpressure { .. }
        )
    }

    /// The operation kind the error occurred on.
    #[inline]
    pub fn op(&self) -> OpKind {
        match *self {
            CommError::Timeout { op, .. }
            | CommError::LocaleDown { op, .. }
            | CommError::Transient { op, .. }
            | CommError::Backpressure { op, .. }
            | CommError::Partitioned { op, .. } => op,
        }
    }

    /// The remote locale the failed operation was addressed to.
    #[inline]
    pub fn locale(&self) -> LocaleId {
        match *self {
            CommError::Timeout { locale, .. }
            | CommError::LocaleDown { locale, .. }
            | CommError::Transient { locale, .. }
            | CommError::Backpressure { locale, .. }
            | CommError::Partitioned { locale, .. } => locale,
        }
    }
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { op, locale } => {
                write!(f, "{} to {locale} timed out", op.name())
            }
            CommError::LocaleDown { op, locale } => {
                write!(f, "{} refused: {locale} is down", op.name())
            }
            CommError::Transient { op, locale } => {
                write!(f, "{} to {locale} dropped (transient)", op.name())
            }
            CommError::Backpressure { op, locale } => {
                write!(
                    f,
                    "{} to {locale} refused: reclamation backlog at capacity",
                    op.name()
                )
            }
            CommError::Partitioned { op, locale } => {
                write!(f, "{} refused: link to {locale} partitioned", op.name())
            }
        }
    }
}

impl std::error::Error for CommError {}

/// What a trigger point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return a [`CommError::Transient`] from the hit site.
    Error,
    /// Panic at the hit site (exercises unwind paths).
    Panic,
}

/// One injected fault, as recorded in the plan's event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The locale that initiated the faulted operation.
    pub from: LocaleId,
    /// The error injected.
    pub error: CommError,
    /// The decision stream the fault was drawn from: a `(locale, op)`
    /// stream, a link stream, or a trigger stream. Together with `seq`
    /// this names the draw itself, which is a pure function of the seed
    /// — unlike the destination in `error`, whose pairing with a draw
    /// depends on how sibling tasks interleave on the shared stream.
    pub stream: u64,
    /// Position in `stream` — `seq` of a probabilistic fault, hit count
    /// of a trigger.
    pub seq: u64,
    /// Trigger name when the fault came from a trigger point.
    pub trigger: Option<&'static str>,
}

/// A named one-shot fault site.
#[derive(Debug)]
struct Trigger {
    name: &'static str,
    /// Hits to let through before firing.
    skip: u64,
    /// Firings remaining (decremented each time the trigger fires).
    remaining: u64,
    action: FaultAction,
    hits: u64,
}

/// Per-locale decision-stream counters, padded so concurrent streams don't
/// false-share (the same discipline as the comm counters).
#[repr(align(64))]
#[derive(Debug, Default)]
struct SeqCounters {
    per_op: [AtomicU64; 3],
}

/// One directed `(from, to)` link's fault rule. All aspects of a link live
/// in one rule so a partition, a delay and a drop probability can stack.
#[derive(Debug)]
struct LinkRule {
    from: LocaleId,
    to: LocaleId,
    /// Every operation on the link fails with [`CommError::Partitioned`].
    partitioned: bool,
    /// Extra one-way spin charged before the link completes an operation.
    delay: Duration,
    /// Drop probability scaled to `[0, PROB_ONE]` (0 = never drop).
    drop_threshold: u64,
    /// This link's decision-stream position (drop rolls, event seqs).
    seq: u64,
}

impl LinkRule {
    fn new(from: LocaleId, to: LocaleId) -> Self {
        LinkRule {
            from,
            to,
            partitioned: false,
            delay: Duration::ZERO,
            drop_threshold: 0,
            seq: 0,
        }
    }
}

/// Stream-id bit marking link streams, so a link's drop rolls never collide
/// with a locale's `(from, op)` streams.
const LINK_STREAM_BASE: u64 = 1 << 32;

/// Stream-id bit marking trigger streams (the stream coordinate is a hash
/// of the trigger's name; its `seq` is the hit count).
const TRIGGER_STREAM_BASE: u64 = 1 << 33;

/// FNV-1a over a trigger name, for its fingerprint stream coordinate.
fn trigger_stream(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    TRIGGER_STREAM_BASE | (h & 0xFFFF_FFFF)
}

const PROB_ONE: u64 = 1 << 32;

/// A deterministic fault schedule, installed on a `Cluster` at build time.
///
/// ```
/// use rcuarray_runtime::{Cluster, FaultPlan, LocaleId, OpKind, Topology};
///
/// let plan = FaultPlan::new(0xC0FFEE).fail_puts(0.5);
/// let cluster = Cluster::builder()
///     .topology(Topology::new(2, 1))
///     .fault_plan(plan)
///     .build();
/// rcuarray_runtime::task::with_locale(LocaleId::ZERO, || {
///     let mut failures = 0;
///     for _ in 0..64 {
///         if cluster.try_put_to(LocaleId::new(1), 8).is_err() {
///             failures += 1;
///         }
///     }
///     assert!(failures > 0, "a 50% plan must inject some failures");
/// });
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    enabled: bool,
    seed: u64,
    /// Per-op failure thresholds scaled to [0, 2^32].
    thresholds: [u64; 3],
    /// Bitmask of locales currently down.
    down: AtomicU64,
    /// Bitmask of locales currently slow.
    slow: AtomicU64,
    /// Extra spin charged per operation touching a slow locale.
    slow_delay: Duration,
    seq: Box<[SeqCounters]>,
    /// Fast-path gate for [`hit`](Self::hit): true iff any trigger is armed.
    has_triggers: AtomicBool,
    triggers: Mutex<Vec<Trigger>>,
    /// Fast-path gate for the per-link rules: true once any rule exists.
    has_link_rules: AtomicBool,
    links: Mutex<Vec<LinkRule>>,
    events: Mutex<Vec<FaultEvent>>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultPlan {
    /// An enabled plan with the given seed and no faults configured yet.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            enabled: true,
            seed,
            thresholds: [0; 3],
            down: AtomicU64::new(0),
            slow: AtomicU64::new(0),
            slow_delay: Duration::from_micros(10),
            seq: (0..MAX_FAULT_LOCALES)
                .map(|_| SeqCounters::default())
                .collect(),
            has_triggers: AtomicBool::new(false),
            triggers: Mutex::new(Vec::new()),
            has_link_rules: AtomicBool::new(false),
            links: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// The inert plan every cluster gets unless told otherwise. All checks
    /// reduce to a single branch on `enabled`.
    pub fn disabled() -> Self {
        FaultPlan {
            enabled: false,
            ..Self::new(0)
        }
    }

    /// Whether this plan injects anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The seed the schedule is derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fail GETs with probability `p` in `[0, 1]`.
    pub fn fail_gets(mut self, p: f64) -> Self {
        self.thresholds[OpKind::Get.index()] = prob_to_threshold(p);
        self
    }

    /// Fail PUTs with probability `p` in `[0, 1]`.
    pub fn fail_puts(mut self, p: f64) -> Self {
        self.thresholds[OpKind::Put.index()] = prob_to_threshold(p);
        self
    }

    /// Fail remote executions with probability `p` in `[0, 1]`.
    pub fn fail_remote_exec(mut self, p: f64) -> Self {
        self.thresholds[OpKind::RemoteExec.index()] = prob_to_threshold(p);
        self
    }

    /// Fail every kind of operation with probability `p` in `[0, 1]`.
    pub fn fail_all(self, p: f64) -> Self {
        self.fail_gets(p).fail_puts(p).fail_remote_exec(p)
    }

    /// Extra delay charged to operations touching a slow locale.
    pub fn slow_delay(mut self, d: Duration) -> Self {
        self.slow_delay = d;
        self
    }

    /// Arm a named trigger: after `skip` benign hits, fire `times` times
    /// with `action`, then disarm.
    pub fn trigger(self, name: &'static str, skip: u64, times: u64, action: FaultAction) -> Self {
        self.triggers.lock().push(Trigger {
            name,
            skip,
            remaining: times,
            action,
            hits: 0,
        });
        self.has_triggers.store(true, Ordering::Release);
        self
    }

    /// Arm `name` to fire exactly once, on its first hit.
    pub fn trigger_once(self, name: &'static str, action: FaultAction) -> Self {
        self.trigger(name, 0, 1, action)
    }

    /// Mark `locale` down or back up at runtime.
    pub fn set_down(&self, locale: LocaleId, down: bool) {
        assert!(locale.index() < MAX_FAULT_LOCALES);
        let bit = 1u64 << locale.index();
        if down {
            self.down.fetch_or(bit, Ordering::Release);
        } else {
            self.down.fetch_and(!bit, Ordering::Release);
        }
    }

    /// Whether `locale` is currently marked down.
    #[inline]
    pub fn is_down(&self, locale: LocaleId) -> bool {
        self.enabled && self.down.load(Ordering::Acquire) & (1u64 << locale.index()) != 0
    }

    /// Find-or-create the rule for the directed link `from → to` and let
    /// `f` mutate it.
    fn edit_link(&self, from: LocaleId, to: LocaleId, f: impl FnOnce(&mut LinkRule)) {
        assert_ne!(from, to, "a link rule targets a cross-locale link");
        let mut links = self.links.lock();
        let rule = match links.iter_mut().position(|r| r.from == from && r.to == to) {
            Some(i) => &mut links[i],
            None => {
                links.push(LinkRule::new(from, to));
                links.last_mut().expect("just pushed")
            }
        };
        f(rule);
        self.has_link_rules.store(true, Ordering::Release);
    }

    /// Partition the directed link `from → to`: every operation it carries
    /// fails with [`CommError::Partitioned`]. The reverse direction is
    /// unaffected (builder form of
    /// [`set_link_partitioned`](Self::set_link_partitioned)).
    pub fn partition_link(self, from: LocaleId, to: LocaleId) -> Self {
        self.edit_link(from, to, |r| r.partitioned = true);
        self
    }

    /// Partition both directions between `a` and `b` (a symmetric cut).
    pub fn partition_between(self, a: LocaleId, b: LocaleId) -> Self {
        self.partition_link(a, b).partition_link(b, a)
    }

    /// Charge `delay` extra one-way spin to every operation on the
    /// directed link `from → to` (asymmetric latency: the reverse
    /// direction stays fast).
    pub fn delay_link(self, from: LocaleId, to: LocaleId, delay: Duration) -> Self {
        self.edit_link(from, to, |r| r.delay = delay);
        self
    }

    /// Drop operations on the directed link `from → to` with probability
    /// `p` in `[0, 1]` ([`CommError::Transient`] — pairs with a
    /// [`RetryPolicy`], which is the point).
    pub fn drop_link(self, from: LocaleId, to: LocaleId, p: f64) -> Self {
        self.edit_link(from, to, |r| r.drop_threshold = prob_to_threshold(p));
        self
    }

    /// Cut or heal the directed link `from → to` at runtime.
    pub fn set_link_partitioned(&self, from: LocaleId, to: LocaleId, partitioned: bool) {
        self.edit_link(from, to, |r| r.partitioned = partitioned);
    }

    /// Whether the directed link `from → to` is currently partitioned.
    pub fn link_partitioned(&self, from: LocaleId, to: LocaleId) -> bool {
        self.enabled
            && self
                .links
                .lock()
                .iter()
                .any(|r| r.from == from && r.to == to && r.partitioned)
    }

    /// Mark `locale` slow or back to normal at runtime.
    pub fn set_slow(&self, locale: LocaleId, slow: bool) {
        assert!(locale.index() < MAX_FAULT_LOCALES);
        let bit = 1u64 << locale.index();
        if slow {
            self.slow.fetch_or(bit, Ordering::Release);
        } else {
            self.slow.fetch_and(!bit, Ordering::Release);
        }
    }

    /// Decide the fate of one operation from `from` addressed to `to`.
    ///
    /// The decision consumes one step of the `(from, op)` stream; with one
    /// task per locale the full schedule is reproducible from the seed.
    #[inline]
    pub fn check(&self, from: LocaleId, to: LocaleId, op: OpKind) -> Result<(), CommError> {
        if !self.enabled {
            return Ok(());
        }
        self.check_slow(from, to, op)
    }

    #[cold]
    fn check_slow(&self, from: LocaleId, to: LocaleId, op: OpKind) -> Result<(), CommError> {
        if self.down.load(Ordering::Acquire) & (1u64 << to.index()) != 0 {
            let err = CommError::LocaleDown { op, locale: to };
            let seq = self.seq[from.index()].per_op[op.index()].fetch_add(1, Ordering::Relaxed);
            self.log(FaultEvent {
                from,
                error: err,
                stream: (from.index() as u64) << 2 | op.index() as u64,
                seq,
                trigger: None,
            });
            return Err(err);
        }
        if self.has_link_rules.load(Ordering::Acquire) {
            self.check_link(from, to, op)?;
        }
        if self.slow.load(Ordering::Acquire) & (1u64 << to.index()) != 0 {
            crate::comm::spin_for(self.slow_delay);
        }
        let thr = self.thresholds[op.index()];
        if thr == 0 {
            return Ok(());
        }
        let seq = self.seq[from.index()].per_op[op.index()].fetch_add(1, Ordering::Relaxed);
        if self.roll(from, op, seq) < thr {
            let err = CommError::Transient { op, locale: to };
            self.log(FaultEvent {
                from,
                error: err,
                stream: (from.index() as u64) << 2 | op.index() as u64,
                seq,
                trigger: None,
            });
            return Err(err);
        }
        Ok(())
    }

    /// Apply the directed link rule for `from → to`, if any: partition,
    /// one-way delay, then the probabilistic drop roll — in that order, so
    /// a partitioned link refuses instantly without paying its delay.
    fn check_link(&self, from: LocaleId, to: LocaleId, op: OpKind) -> Result<(), CommError> {
        // Copy the rule out under the lock; spin and log after dropping it
        // so a delayed link doesn't serialize every other link's checks.
        let (partitioned, delay, drop_threshold, seq) = {
            let mut links = self.links.lock();
            let Some(rule) = links.iter_mut().find(|r| r.from == from && r.to == to) else {
                return Ok(());
            };
            let seq = rule.seq;
            rule.seq += 1;
            (rule.partitioned, rule.delay, rule.drop_threshold, seq)
        };
        if partitioned {
            let err = CommError::Partitioned { op, locale: to };
            self.log(FaultEvent {
                from,
                error: err,
                // The whole-link stream (op marker 3: any operation) —
                // which *kind* of op drew a given link seq depends on
                // task interleaving, so the per-op coordinate would make
                // the fingerprint timing-sensitive.
                stream: LINK_STREAM_BASE
                    | (from.index() as u64) << 16
                    | (to.index() as u64) << 2
                    | 0b11,
                seq,
                trigger: None,
            });
            return Err(err);
        }
        if !delay.is_zero() {
            crate::comm::spin_for(delay);
        }
        if drop_threshold > 0 {
            let stream = LINK_STREAM_BASE
                | (from.index() as u64) << 16
                | (to.index() as u64) << 2
                | op.index() as u64;
            if self.roll_stream(stream, seq) < drop_threshold {
                let err = CommError::Transient { op, locale: to };
                self.log(FaultEvent {
                    from,
                    error: err,
                    stream,
                    seq,
                    trigger: None,
                });
                return Err(err);
            }
        }
        Ok(())
    }

    /// The deterministic dice roll for decision `seq` of stream
    /// `(locale, op)`: a splitmix64 finalizer over the stream coordinates,
    /// truncated to 32 bits so it compares against the thresholds.
    fn roll(&self, from: LocaleId, op: OpKind, seq: u64) -> u64 {
        self.roll_stream((from.index() as u64) << 2 | op.index() as u64, seq)
    }

    /// The roll for an arbitrary stream id (locale streams stay below
    /// [`LINK_STREAM_BASE`]; link streams live above it).
    fn roll_stream(&self, stream: u64, seq: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) & 0xFFFF_FFFF
    }

    /// Hit a named trigger point. Returns an error (or panics) when an
    /// armed trigger for `name` fires; otherwise a no-op.
    ///
    /// # Panics
    /// Panics when the firing trigger's action is [`FaultAction::Panic`].
    #[inline]
    pub fn hit(&self, name: &'static str) -> Result<(), CommError> {
        if !self.enabled || !self.has_triggers.load(Ordering::Acquire) {
            return Ok(());
        }
        self.hit_slow(name)
    }

    #[cold]
    fn hit_slow(&self, name: &'static str) -> Result<(), CommError> {
        let from = crate::task::current_locale();
        let mut triggers = self.triggers.lock();
        let Some(t) = triggers
            .iter_mut()
            .find(|t| t.name == name && t.remaining > 0)
        else {
            return Ok(());
        };
        t.hits += 1;
        if t.hits <= t.skip {
            return Ok(());
        }
        t.remaining -= 1;
        let action = t.action;
        let hits = t.hits;
        let any_left = triggers.iter().any(|t| t.remaining > 0);
        self.has_triggers.store(any_left, Ordering::Release);
        drop(triggers);
        let err = CommError::Transient {
            op: OpKind::RemoteExec,
            locale: from,
        };
        self.log(FaultEvent {
            from,
            error: err,
            stream: trigger_stream(name),
            seq: hits,
            trigger: Some(name),
        });
        match action {
            FaultAction::Error => Err(err),
            FaultAction::Panic => panic!("fault injection: trigger {name:?} fired (hit {hits})"),
        }
    }

    fn log(&self, ev: FaultEvent) {
        self.events.lock().push(ev);
    }

    /// Snapshot of every fault injected so far, in injection order.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.lock().clone()
    }

    /// Number of faults injected so far.
    pub fn fault_count(&self) -> usize {
        self.events.lock().len()
    }

    /// An order-insensitive fingerprint of the event log: two runs of the
    /// same seeded workload must produce equal fingerprints even when
    /// concurrent tasks interleave their draws on the shared decision
    /// streams differently.
    ///
    /// The hash covers each event's *stream coordinates* — `(stream,
    /// seq)` plus the error variant — and deliberately nothing from the
    /// error payload: whether a given draw faults is a pure function of
    /// the seed, but which destination (or, on a link stream, which op
    /// kind) happens to consume that draw depends on how sibling tasks
    /// interleave, so hashing it would make the fingerprint
    /// timing-sensitive. The full pairing stays inspectable in
    /// [`events`](Self::events).
    pub fn fingerprint(&self) -> u64 {
        self.events
            .lock()
            .iter()
            .map(|e| {
                let mut x = e
                    .stream
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(e.seq);
                x ^= match e.error {
                    CommError::Timeout { .. } => 0x1111_0000_0000_0000,
                    CommError::LocaleDown { .. } => 0x2222_0000_0000_0000,
                    CommError::Transient { .. } => 0x3333_0000_0000_0000,
                    CommError::Backpressure { .. } => 0x4444_0000_0000_0000,
                    CommError::Partitioned { .. } => 0x5555_0000_0000_0000,
                };
                // splitmix64 finalizer, then fold by XOR (commutative).
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            })
            .fold(0u64, |a, b| a ^ b)
    }
}

fn prob_to_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
    (p * PROB_ONE as f64) as u64
}

/// Backoff floor in spin units (first retry waits at least this long).
const JITTER_BASE: u64 = 1 << 6;
/// Backoff ceiling in spin units: pure exponential growth stops here.
const JITTER_CAP: u64 = 1 << 16;
/// Spinning past one batch yields the thread between batches so a backed-off
/// retrier cannot starve the task whose progress it is waiting on.
const SPIN_YIELD_BATCH: u64 = 1 << 10;
/// Default stream for the decorrelated-jitter PRNG. Any fixed value works;
/// what matters is that two policies with the same seed replay the same
/// backoff sequence (checker/fingerprint determinism).
const DEFAULT_JITTER_SEED: u64 = 0x5265_7472_794A_6974; // "RetryJit"

/// One step of AWS-style *decorrelated jitter*: the next wait is uniform in
/// `[base, prev * 3]`, clamped to the cap. Unlike equal/full jitter this
/// decorrelates concurrent retriers (different seeds spread out instead of
/// colliding on the same power-of-two rungs) while still growing
/// geometrically in expectation. The PRNG is a counter-mode splitmix64 over
/// `state`, so the sequence is a pure function of the starting seed — no
/// clocks, no global RNG — and replays identically under the deterministic
/// checker and the fault plan's fingerprint tests.
fn decorrelated_jitter(state: &mut u64, prev: u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let span = prev.saturating_mul(3).max(JITTER_BASE + 1) - JITTER_BASE;
    (JITTER_BASE + x % span).min(JITTER_CAP)
}

/// Busy-wait for `units` spin units, yielding between batches.
fn spin_units(units: u64) {
    let mut done = 0u64;
    while done < units {
        let batch = (units - done).min(SPIN_YIELD_BATCH);
        for _ in 0..batch {
            std::hint::spin_loop();
        }
        done += batch;
        if done < units {
            rcuarray_analysis::thread::yield_now();
        }
    }
}

/// Bounded-retry policy for fault-aware operations: retry transient
/// failures with decorrelated-jitter spin-then-yield backoff until the
/// attempt budget or the time budget runs out.
///
/// The jitter sequence is a pure function of
/// [`jitter_seed`](RetryPolicy::jitter_seed): replaying an operation with the same seed
/// replays the same waits, which keeps fault-plan fingerprints and the
/// deterministic checker stable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Wall-clock budget across all attempts of one operation.
    pub op_timeout: Duration,
    /// Seed for the decorrelated-jitter backoff PRNG. Two tasks retrying
    /// the same contended operation should use different seeds so their
    /// retries spread out instead of colliding in lockstep.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 16,
            op_timeout: Duration::from_millis(100),
            jitter_seed: DEFAULT_JITTER_SEED,
        }
    }
}

impl RetryPolicy {
    /// A policy with an explicit attempt and time budget.
    pub const fn new(max_retries: u32, op_timeout: Duration) -> Self {
        RetryPolicy {
            max_retries,
            op_timeout,
            jitter_seed: DEFAULT_JITTER_SEED,
        }
    }

    /// The fail-fast policy: one attempt, no retries.
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            op_timeout: Duration::from_secs(1),
            jitter_seed: DEFAULT_JITTER_SEED,
        }
    }

    /// The same policy with a different jitter stream (e.g. one per task,
    /// derived from the task id).
    pub const fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// Run `attempt` until it succeeds or the budget is exhausted. Each
    /// retry is charged to the calling locale through `comm` (so tests can
    /// assert who paid for the recovery) and backs off with decorrelated
    /// jitter.
    ///
    /// Non-retryable errors ([`CommError::LocaleDown`]) propagate
    /// immediately; exhausting the time budget converts the last error
    /// into [`CommError::Timeout`].
    pub fn run<T>(
        &self,
        comm: &crate::comm::CommLayer,
        mut attempt: impl FnMut() -> Result<T, CommError>,
    ) -> Result<T, CommError> {
        let mut rng = self.jitter_seed;
        let mut wait = JITTER_BASE;
        let start = Instant::now();
        let mut retries = 0u32;
        loop {
            match attempt() {
                Ok(v) => return Ok(v),
                Err(e) if !e.is_retryable() => return Err(e),
                Err(e) if retries >= self.max_retries => return Err(e),
                Err(e) => {
                    if start.elapsed() >= self.op_timeout {
                        return Err(CommError::Timeout {
                            op: e.op(),
                            locale: e.locale(),
                        });
                    }
                    retries += 1;
                    comm.record_retry(crate::task::current_locale());
                    wait = decorrelated_jitter(&mut rng, wait);
                    spin_units(wait);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{CommLayer, LatencyModel};

    fn l(i: u32) -> LocaleId {
        LocaleId::new(i)
    }

    #[test]
    fn disabled_plan_never_faults() {
        let p = FaultPlan::disabled();
        for i in 0..10_000 {
            assert!(p.check(l(0), l(1), OpKind::Get).is_ok(), "step {i}");
        }
        assert!(p.hit("resize.publish").is_ok());
        assert_eq!(p.fault_count(), 0);
    }

    #[test]
    fn probability_one_always_faults_and_zero_never() {
        let p = FaultPlan::new(7).fail_puts(1.0);
        for _ in 0..100 {
            assert!(matches!(
                p.check(l(0), l(1), OpKind::Put),
                Err(CommError::Transient {
                    op: OpKind::Put,
                    ..
                })
            ));
            assert!(p.check(l(0), l(1), OpKind::Get).is_ok(), "gets unaffected");
        }
        assert_eq!(p.fault_count(), 100);
    }

    #[test]
    fn fault_rate_tracks_probability() {
        let p = FaultPlan::new(42).fail_gets(0.25);
        let n = 4000;
        let mut failures = 0;
        for _ in 0..n {
            if p.check(l(0), l(1), OpKind::Get).is_err() {
                failures += 1;
            }
        }
        let rate = failures as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "observed rate {rate}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let p = FaultPlan::new(seed).fail_all(0.3);
            let mut outcomes = Vec::new();
            for i in 0..200 {
                let from = l(i % 3);
                outcomes.push(p.check(from, l(3), OpKind::Put).is_ok());
                outcomes.push(p.check(from, l(3), OpKind::Get).is_ok());
            }
            (outcomes, p.fingerprint())
        };
        let (a, fa) = run(0xDEAD_BEEF);
        let (b, fb) = run(0xDEAD_BEEF);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_eq!(fa, fb);
        let (c, fc) = run(0xDEAD_BEF0);
        assert!(a != c || fa != fc, "different seed should differ");
    }

    #[test]
    fn streams_are_independent_per_locale_and_op() {
        // Consuming extra decisions on one stream must not perturb another:
        // that independence is what makes concurrent runs reproducible.
        let p1 = FaultPlan::new(9).fail_all(0.5);
        let p2 = FaultPlan::new(9).fail_all(0.5);
        for _ in 0..50 {
            let _ = p2.check(l(1), l(2), OpKind::Get); // extra traffic on L1
        }
        let a: Vec<bool> = (0..100)
            .map(|_| p1.check(l(0), l(2), OpKind::Put).is_ok())
            .collect();
        let b: Vec<bool> = (0..100)
            .map(|_| p2.check(l(0), l(2), OpKind::Put).is_ok())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn down_locale_fails_everything_until_revived() {
        let p = FaultPlan::new(1);
        p.set_down(l(2), true);
        assert!(p.is_down(l(2)));
        assert!(matches!(
            p.check(l(0), l(2), OpKind::Get),
            Err(CommError::LocaleDown { .. })
        ));
        assert!(p.check(l(0), l(1), OpKind::Get).is_ok(), "others fine");
        p.set_down(l(2), false);
        assert!(p.check(l(0), l(2), OpKind::Get).is_ok());
    }

    #[test]
    fn slow_locale_spins() {
        let p = FaultPlan::new(1).slow_delay(Duration::from_micros(300));
        p.set_slow(l(1), true);
        let t0 = Instant::now();
        assert!(p.check(l(0), l(1), OpKind::Get).is_ok());
        assert!(t0.elapsed() >= Duration::from_micros(300));
    }

    #[test]
    fn trigger_skips_then_fires_then_disarms() {
        let p = FaultPlan::new(3).trigger("resize.publish", 2, 2, FaultAction::Error);
        assert!(p.hit("resize.publish").is_ok(), "skip 1");
        assert!(p.hit("resize.publish").is_ok(), "skip 2");
        assert!(p.hit("resize.publish").is_err(), "fire 1");
        assert!(p.hit("resize.publish").is_err(), "fire 2");
        assert!(p.hit("resize.publish").is_ok(), "disarmed");
        assert!(p.hit("other").is_ok(), "unknown names are benign");
        let evs = p.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].trigger, Some("resize.publish"));
    }

    #[test]
    #[should_panic(expected = "fault injection: trigger")]
    fn panic_trigger_panics() {
        let p = FaultPlan::new(3).trigger_once("resize.alloc", FaultAction::Panic);
        let _ = p.hit("resize.alloc");
    }

    #[test]
    fn error_display_and_classification() {
        let t = CommError::Transient {
            op: OpKind::Put,
            locale: l(3),
        };
        let d = CommError::LocaleDown {
            op: OpKind::Get,
            locale: l(1),
        };
        let o = CommError::Timeout {
            op: OpKind::RemoteExec,
            locale: l(0),
        };
        assert!(t.is_retryable());
        assert!(o.is_retryable());
        assert!(!d.is_retryable());
        assert_eq!(t.op(), OpKind::Put);
        assert_eq!(d.locale(), l(1));
        assert!(t.to_string().contains("transient"));
        assert!(d.to_string().contains("down"));
        assert!(o.to_string().contains("timed out"));
    }

    #[test]
    fn partitioned_link_is_directed_and_heals() {
        let p = FaultPlan::new(5).partition_link(l(0), l(1));
        assert!(p.link_partitioned(l(0), l(1)));
        assert!(!p.link_partitioned(l(1), l(0)));
        assert!(matches!(
            p.check(l(0), l(1), OpKind::Put),
            Err(CommError::Partitioned {
                op: OpKind::Put,
                ..
            })
        ));
        assert!(
            p.check(l(1), l(0), OpKind::Put).is_ok(),
            "the reverse direction is a different link"
        );
        assert!(p.check(l(0), l(2), OpKind::Put).is_ok(), "other links fine");
        p.set_link_partitioned(l(0), l(1), false);
        assert!(p.check(l(0), l(1), OpKind::Put).is_ok(), "healed");
        let evs = p.events();
        assert_eq!(evs.len(), 1);
        assert!(matches!(evs[0].error, CommError::Partitioned { .. }));
    }

    #[test]
    fn partition_between_cuts_both_directions() {
        let p = FaultPlan::new(5).partition_between(l(0), l(1));
        assert!(p.check(l(0), l(1), OpKind::Get).is_err());
        assert!(p.check(l(1), l(0), OpKind::Get).is_err());
    }

    #[test]
    fn partitioned_is_a_standing_condition() {
        let e = CommError::Partitioned {
            op: OpKind::Get,
            locale: l(1),
        };
        assert!(!e.is_retryable(), "retrying into a partition is futile");
        assert_eq!(e.op(), OpKind::Get);
        assert_eq!(e.locale(), l(1));
        assert!(e.to_string().contains("partitioned"));
    }

    #[test]
    fn delayed_link_is_one_way() {
        let p = FaultPlan::new(5).delay_link(l(0), l(1), Duration::from_micros(300));
        let t0 = Instant::now();
        assert!(p.check(l(0), l(1), OpKind::Get).is_ok());
        assert!(t0.elapsed() >= Duration::from_micros(300), "forward pays");
        let t0 = Instant::now();
        assert!(p.check(l(1), l(0), OpKind::Get).is_ok());
        assert!(
            t0.elapsed() < Duration::from_micros(300),
            "reverse stays fast"
        );
    }

    #[test]
    fn drop_link_rate_tracks_probability_and_is_deterministic() {
        let run = || {
            let p = FaultPlan::new(77).drop_link(l(0), l(1), 0.25);
            let outcomes: Vec<bool> = (0..2000)
                .map(|_| p.check(l(0), l(1), OpKind::Put).is_ok())
                .collect();
            (outcomes, p.fingerprint())
        };
        let (a, fa) = run();
        let (b, fb) = run();
        assert_eq!(a, b, "same seed replays the same drop schedule");
        assert_eq!(fa, fb);
        let rate = a.iter().filter(|ok| !**ok).count() as f64 / a.len() as f64;
        assert!((rate - 0.25).abs() < 0.05, "observed drop rate {rate}");
        let p = FaultPlan::new(77).drop_link(l(0), l(1), 0.25);
        for _ in 0..200 {
            assert!(
                p.check(l(1), l(0), OpKind::Put).is_ok(),
                "reverse link has no rule"
            );
        }
    }

    #[test]
    fn retry_policy_succeeds_after_transients() {
        let comm = CommLayer::new(2, LatencyModel::None, FaultPlan::disabled());
        let mut left = 3;
        let out = RetryPolicy::new(8, Duration::from_secs(1)).run(&comm, || {
            if left > 0 {
                left -= 1;
                Err(CommError::Transient {
                    op: OpKind::Put,
                    locale: l(1),
                })
            } else {
                Ok(42)
            }
        });
        assert_eq!(out, Ok(42));
        assert_eq!(comm.fault_totals().retries, 3, "each retry is charged");
    }

    #[test]
    fn retry_policy_exhausts_budget() {
        let comm = CommLayer::new(1, LatencyModel::None, FaultPlan::disabled());
        let out: Result<(), _> = RetryPolicy::new(2, Duration::from_secs(1)).run(&comm, || {
            Err(CommError::Transient {
                op: OpKind::Get,
                locale: l(0),
            })
        });
        assert!(matches!(out, Err(CommError::Transient { .. })));
        assert_eq!(comm.fault_totals().retries, 2);
    }

    #[test]
    fn retry_policy_fails_fast_on_locale_down() {
        let comm = CommLayer::new(1, LatencyModel::None, FaultPlan::disabled());
        let mut calls = 0;
        let out: Result<(), _> = RetryPolicy::default().run(&comm, || {
            calls += 1;
            Err(CommError::LocaleDown {
                op: OpKind::Get,
                locale: l(0),
            })
        });
        assert!(matches!(out, Err(CommError::LocaleDown { .. })));
        assert_eq!(calls, 1, "no retries against a down locale");
        assert_eq!(comm.fault_totals().retries, 0);
    }

    #[test]
    fn retry_policy_times_out() {
        let comm = CommLayer::new(1, LatencyModel::None, FaultPlan::disabled());
        let out: Result<(), _> =
            RetryPolicy::new(u32::MAX, Duration::from_millis(5)).run(&comm, || {
                std::thread::sleep(Duration::from_millis(2));
                Err(CommError::Transient {
                    op: OpKind::Put,
                    locale: l(0),
                })
            });
        assert!(matches!(out, Err(CommError::Timeout { .. })));
    }

    #[test]
    fn backpressure_is_retryable_and_classified() {
        let e = CommError::Backpressure {
            op: OpKind::Put,
            locale: l(3),
        };
        assert!(e.is_retryable(), "backpressure lifts after a quiesce");
        assert_eq!(e.op(), OpKind::Put);
        assert_eq!(e.locale(), l(3));
        assert!(e.to_string().contains("backlog at capacity"));
    }

    #[test]
    fn retry_policy_retries_through_backpressure() {
        let comm = CommLayer::new(1, LatencyModel::None, FaultPlan::disabled());
        let mut calls = 0;
        let out = RetryPolicy::new(8, Duration::from_secs(1)).run(&comm, || {
            calls += 1;
            if calls < 3 {
                Err(CommError::Backpressure {
                    op: OpKind::Put,
                    locale: l(0),
                })
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out.unwrap(), 3);
        assert_eq!(comm.fault_totals().retries, 2);
    }

    #[test]
    fn jitter_sequence_is_a_pure_function_of_the_seed() {
        let walk = |seed: u64| {
            let mut state = seed;
            let mut wait = JITTER_BASE;
            (0..32)
                .map(|_| {
                    wait = decorrelated_jitter(&mut state, wait);
                    wait
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(walk(7), walk(7), "same seed replays the same backoff");
        assert_ne!(walk(7), walk(8), "different seeds decorrelate");
    }

    #[test]
    fn jitter_stays_within_base_and_cap() {
        let mut state = 0xDEAD_BEEF;
        let mut wait = JITTER_BASE;
        for _ in 0..10_000 {
            wait = decorrelated_jitter(&mut state, wait);
            assert!((JITTER_BASE..=JITTER_CAP).contains(&wait));
        }
    }

    #[test]
    fn with_jitter_seed_changes_only_the_stream() {
        let p = RetryPolicy::default().with_jitter_seed(42);
        assert_eq!(p.jitter_seed, 42);
        assert_eq!(p.max_retries, RetryPolicy::default().max_retries);
        assert_eq!(p.op_timeout, RetryPolicy::default().op_timeout);
    }
}
