//! Pluggable transport layer: every cross-locale byte rides a
//! [`Transport`].
//!
//! The paper's Chapel runtime compiles remote accesses into PUT/GET
//! operations on whatever conduit the machine provides (the Aries
//! network on the evaluation's Cray XC-50). Dewan & Jenkins' follow-up
//! (arXiv:2002.03068) argues the layering this module realizes:
//! distributed non-blocking structures should sit on a *swappable* PGAS
//! communication substrate, so a new network is a backend drop-in
//! rather than a rewrite.
//!
//! The seam has three pieces:
//!
//! * a typed message vocabulary, [`CommMessage`] — GET/PUT/remote-exec
//!   plus the composite lock and collective messages the upper layers
//!   speak. Every message lowers to one or two *wire operations*
//!   ([`CommMessage::wire_ops`]), which is what the fault plan and the
//!   per-link accounting are keyed on;
//! * the [`Transport`] trait — `transmit` one message across one
//!   `(from, to)` link and (for tests) keep a per-link delivery log of
//!   send sequence numbers;
//! * two backends: [`ShmemTransport`] (the direct shared-memory path —
//!   transmission is free because the data is already there, exactly
//!   the pre-seam behaviour) and [`MeshTransport`] (per-link bounded
//!   channels carrying serialized frames, drained by one dispatcher
//!   thread per destination locale — the shape a real message-passing
//!   conduit has, with partitions, asymmetric delay and reordering as
//!   first-class [`FaultPlan`](crate::fault::FaultPlan) actions).
//!
//! The split of responsibilities with [`CommLayer`](crate::comm::CommLayer)
//! is deliberate: the comm facade owns fault checks, every traffic
//! counter (per locale and per link) and latency injection (guaranteeing
//! *identical* `CommStats`/`FaultStats`/`LinkStats` on every backend for
//! the same workload); transports only move and order messages.

pub mod mesh;
pub mod shmem;

pub use mesh::{MeshConfig, MeshTransport};
pub use shmem::ShmemTransport;

use crate::fault::OpKind;
use crate::locale::LocaleId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};

/// The size on the wire of one lock word (the paper's `WriteLock` state).
pub const LOCK_WORD_BYTES: usize = 8;

/// Which collective pattern a [`CommMessage::Collective`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Root pushes the payload to a peer (one PUT per non-root locale).
    Broadcast,
    /// Root pulls one contribution from a peer (one GET per non-root).
    Reduce,
    /// A barrier participant notifies the barrier's home locale.
    BarrierArrive,
    /// The barrier's home locale releases a waiting participant.
    BarrierRelease,
}

impl CollectiveKind {
    /// Stable name for logs and metrics.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveKind::Broadcast => "broadcast",
            CollectiveKind::Reduce => "reduce",
            CollectiveKind::BarrierArrive => "barrier.arrive",
            CollectiveKind::BarrierRelease => "barrier.release",
        }
    }
}

/// One typed cross-locale message: the full vocabulary the upper layers
/// speak to the transport.
///
/// `Get`/`Put`/`RemoteExec` are the primitive PGAS operations; the rest
/// are the composite messages that used to be hand-rolled as raw
/// `record_*` pairs at every call site (cluster-lock traffic, collective
/// traffic). Each message lowers to one or two wire operations via
/// [`wire_ops`](Self::wire_ops); the lowering is the single source of
/// truth for how a message is accounted and fault-checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMessage {
    /// Read `bytes` bytes of remote memory.
    Get {
        /// Payload size.
        bytes: usize,
    },
    /// Write `bytes` bytes into remote memory.
    Put {
        /// Payload size.
        bytes: usize,
    },
    /// Execute an `on`-block on the destination locale (active message).
    RemoteExec,
    /// Acquire a cluster-wide lock homed on the destination: one GET
    /// (read/try of the lock word) plus one PUT (the RMW write-back) —
    /// the round trip a remote compare-and-swap costs on the wire.
    LockAcquire,
    /// Release a cluster-wide lock homed on the destination: one PUT
    /// writing the unlocked state back.
    LockRelease,
    /// One leg of a collective (broadcast/reduce/barrier traffic).
    Collective {
        /// Which collective pattern this leg belongs to.
        kind: CollectiveKind,
        /// Payload size of this leg.
        bytes: usize,
    },
}

impl CommMessage {
    /// The wire operations this message lowers to, in transmission
    /// order. This is what the fault plan checks and the per-locale
    /// counters charge — one entry per `(OpKind, bytes)`.
    pub fn wire_ops(&self) -> WireOps {
        match *self {
            CommMessage::Get { bytes } => WireOps::one(OpKind::Get, bytes),
            CommMessage::Put { bytes } => WireOps::one(OpKind::Put, bytes),
            CommMessage::RemoteExec => WireOps::one(OpKind::RemoteExec, 0),
            CommMessage::LockAcquire => WireOps::two(
                (OpKind::Get, LOCK_WORD_BYTES),
                (OpKind::Put, LOCK_WORD_BYTES),
            ),
            CommMessage::LockRelease => WireOps::one(OpKind::Put, LOCK_WORD_BYTES),
            CommMessage::Collective { kind, bytes } => match kind {
                CollectiveKind::Reduce => WireOps::one(OpKind::Get, bytes),
                CollectiveKind::Broadcast
                | CollectiveKind::BarrierArrive
                | CollectiveKind::BarrierRelease => WireOps::one(OpKind::Put, bytes),
            },
        }
    }

    /// The operation kind a failure of this message is reported as (the
    /// first wire operation).
    pub fn primary_op(&self) -> OpKind {
        self.wire_ops().as_slice()[0].0
    }
}

/// The (at most two) wire operations a [`CommMessage`] lowers to.
/// A fixed-capacity array, not a `Vec`: this sits on the comm hot path.
#[derive(Debug, Clone, Copy)]
pub struct WireOps {
    ops: [(OpKind, usize); 2],
    len: usize,
}

impl WireOps {
    fn one(op: OpKind, bytes: usize) -> Self {
        WireOps {
            ops: [(op, bytes), (op, bytes)],
            len: 1,
        }
    }

    fn two(a: (OpKind, usize), b: (OpKind, usize)) -> Self {
        WireOps {
            ops: [a, b],
            len: 2,
        }
    }

    /// The wire operations, in transmission order.
    pub fn as_slice(&self) -> &[(OpKind, usize)] {
        &self.ops[..self.len]
    }
}

/// Which transport backend a cluster's communication rides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Direct shared-memory access (the pre-seam zero-copy path).
    #[default]
    Shmem,
    /// Per-link bounded message channels with per-locale dispatchers.
    Mesh,
}

impl TransportKind {
    /// Stable name, as accepted by [`FromStr`](std::str::FromStr) and
    /// the `RCUARRAY_BACKEND` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Shmem => "shmem",
            TransportKind::Mesh => "mesh",
        }
    }

    /// The backend selected by the `RCUARRAY_BACKEND` environment
    /// variable (`shmem` | `mesh`), defaulting to [`Shmem`]
    /// (`TransportKind::Shmem`) when unset. Panics on an unrecognized
    /// value — a typo'd backend silently falling back would invalidate
    /// a whole CI matrix leg.
    pub fn from_env() -> Self {
        match std::env::var("RCUARRAY_BACKEND") {
            Ok(v) => v
                .parse()
                .unwrap_or_else(|e: String| panic!("RCUARRAY_BACKEND: {e}")),
            Err(_) => TransportKind::Shmem,
        }
    }
}

impl std::str::FromStr for TransportKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "shmem" => Ok(TransportKind::Shmem),
            "mesh" => Ok(TransportKind::Mesh),
            other => Err(format!(
                "unknown transport backend {other:?} (expected \"shmem\" or \"mesh\")"
            )),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One cross-locale conduit: moves typed messages over directed
/// `(from, to)` links.
///
/// Implementations only move and order messages — fault injection,
/// accounting and latency stay in the [`CommLayer`](crate::comm::CommLayer)
/// facade so every backend observes identical stats for the same
/// workload. `transmit` is called only for `from != to` pairs that
/// already passed the fault plan.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Which backend this is.
    fn kind(&self) -> TransportKind;

    /// Move one message across the `(from, to)` link. An error means
    /// the message was *not* delivered (e.g. a mesh queue stayed full
    /// past its deadline); the facade charges it as a failed operation.
    fn transmit(
        &self,
        from: LocaleId,
        to: LocaleId,
        msg: &CommMessage,
    ) -> Result<(), crate::fault::CommError>;

    /// Start recording per-link delivery order (see
    /// [`delivery_log`](Self::delivery_log)). Off by default; the log
    /// is a test observability hook, not a production path.
    fn enable_delivery_log(&self);

    /// The send sequence numbers delivered on `from → to` so far, in
    /// delivery order. With an in-order transport this is strictly
    /// increasing per link; a mesh link under a reorder fault rule is
    /// exactly where it is not.
    fn delivery_log(&self, from: LocaleId, to: LocaleId) -> Vec<u64>;
}

/// Per-link delivery-order log (send sequence numbers in delivery
/// order), disabled until [`enable`](Self::enable) so the hot path pays
/// one relaxed load. Shared by both backends.
#[derive(Debug)]
pub(crate) struct DeliveryLog {
    enabled: AtomicBool,
    n: usize,
    per_link: Box<[LinkLog]>,
}

/// `(next send seq, delivered seqs)` for one directed link. The seq
/// counter lives under the same lock as the vec so an in-order
/// backend's log is strictly monotone even under concurrent senders.
type LinkLog = Mutex<(u64, Vec<u64>)>;

impl DeliveryLog {
    pub(crate) fn new(n: usize) -> Self {
        DeliveryLog {
            enabled: AtomicBool::new(false),
            n,
            per_link: (0..n * n).map(|_| Mutex::new((0, Vec::new()))).collect(),
        }
    }

    pub(crate) fn enable(&self) {
        self.enabled.store(true, Ordering::Release);
    }

    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    #[inline]
    fn link(&self, from: LocaleId, to: LocaleId) -> &LinkLog {
        &self.per_link[from.index() * self.n + to.index()]
    }

    /// In-order record: assign the link's next send seq and deliver it
    /// immediately (the shmem path, where send *is* delivery).
    #[inline]
    pub(crate) fn record_in_order(&self, from: LocaleId, to: LocaleId) {
        if !self.is_enabled() {
            return;
        }
        let mut l = self.link(from, to).lock();
        let seq = l.0;
        l.0 += 1;
        l.1.push(seq);
    }

    /// Record delivery of an explicit send seq (the mesh path, where
    /// the seq was assigned at enqueue time).
    pub(crate) fn record_delivery(&self, from: LocaleId, to: LocaleId, seq: u64) {
        if !self.is_enabled() {
            return;
        }
        self.link(from, to).lock().1.push(seq);
    }

    pub(crate) fn snapshot(&self, from: LocaleId, to: LocaleId) -> Vec<u64> {
        self.link(from, to).lock().1.clone()
    }
}

/// Serialized frame layout (the mesh wire format): tag byte, collective
/// kind byte (`0xFF` when not a collective), send seq (u64 LE), payload
/// byte count (u64 LE).
pub(crate) const FRAME_LEN: usize = 18;

/// Serialize `msg` with send sequence number `seq` into a mesh frame.
pub(crate) fn encode_frame(msg: &CommMessage, seq: u64) -> Vec<u8> {
    let (tag, kind, bytes): (u8, u8, u64) = match *msg {
        CommMessage::Get { bytes } => (0, 0xFF, bytes as u64),
        CommMessage::Put { bytes } => (1, 0xFF, bytes as u64),
        CommMessage::RemoteExec => (2, 0xFF, 0),
        CommMessage::LockAcquire => (3, 0xFF, 0),
        CommMessage::LockRelease => (4, 0xFF, 0),
        CommMessage::Collective { kind, bytes } => {
            let k = match kind {
                CollectiveKind::Broadcast => 0,
                CollectiveKind::Reduce => 1,
                CollectiveKind::BarrierArrive => 2,
                CollectiveKind::BarrierRelease => 3,
            };
            (5, k, bytes as u64)
        }
    };
    let mut out = Vec::with_capacity(FRAME_LEN);
    out.push(tag);
    out.push(kind);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&bytes.to_le_bytes());
    out
}

/// Deserialize a mesh frame back into `(message, send seq)`.
pub(crate) fn decode_frame(frame: &[u8]) -> Option<(CommMessage, u64)> {
    if frame.len() != FRAME_LEN {
        return None;
    }
    let seq = u64::from_le_bytes(frame[2..10].try_into().ok()?);
    let bytes = u64::from_le_bytes(frame[10..18].try_into().ok()?) as usize;
    let msg = match (frame[0], frame[1]) {
        (0, 0xFF) => CommMessage::Get { bytes },
        (1, 0xFF) => CommMessage::Put { bytes },
        (2, 0xFF) => CommMessage::RemoteExec,
        (3, 0xFF) => CommMessage::LockAcquire,
        (4, 0xFF) => CommMessage::LockRelease,
        (5, k) => CommMessage::Collective {
            kind: match k {
                0 => CollectiveKind::Broadcast,
                1 => CollectiveKind::Reduce,
                2 => CollectiveKind::BarrierArrive,
                3 => CollectiveKind::BarrierRelease,
                _ => return None,
            },
            bytes,
        },
        _ => return None,
    };
    Some((msg, seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_ops_match_the_legacy_accounting() {
        // LockAcquire must lower to exactly the GET+PUT pair the lock
        // paths hand-rolled before the seam existed.
        let acq = CommMessage::LockAcquire.wire_ops();
        assert_eq!(
            acq.as_slice(),
            &[(OpKind::Get, 8), (OpKind::Put, 8)],
            "lock acquire is a remote CAS round trip"
        );
        let rel = CommMessage::LockRelease.wire_ops();
        assert_eq!(rel.as_slice(), &[(OpKind::Put, 8)]);
        assert_eq!(
            CommMessage::Get { bytes: 64 }.wire_ops().as_slice(),
            &[(OpKind::Get, 64)]
        );
        assert_eq!(
            CommMessage::RemoteExec.wire_ops().as_slice(),
            &[(OpKind::RemoteExec, 0)]
        );
        assert_eq!(
            CommMessage::Collective {
                kind: CollectiveKind::Reduce,
                bytes: 16
            }
            .wire_ops()
            .as_slice(),
            &[(OpKind::Get, 16)],
            "a reduce leg pulls a contribution"
        );
        assert_eq!(
            CommMessage::Collective {
                kind: CollectiveKind::BarrierArrive,
                bytes: 8
            }
            .wire_ops()
            .as_slice(),
            &[(OpKind::Put, 8)]
        );
        assert_eq!(CommMessage::LockAcquire.primary_op(), OpKind::Get);
    }

    #[test]
    fn frames_round_trip() {
        let msgs = [
            CommMessage::Get { bytes: 1024 },
            CommMessage::Put { bytes: 0 },
            CommMessage::RemoteExec,
            CommMessage::LockAcquire,
            CommMessage::LockRelease,
            CommMessage::Collective {
                kind: CollectiveKind::BarrierRelease,
                bytes: 8,
            },
        ];
        for (i, msg) in msgs.iter().enumerate() {
            let frame = encode_frame(msg, i as u64 * 7);
            assert_eq!(frame.len(), FRAME_LEN);
            let (back, seq) = decode_frame(&frame).expect("round trip");
            assert_eq!(back, *msg);
            assert_eq!(seq, i as u64 * 7);
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        assert!(decode_frame(&[]).is_none(), "short frame");
        let mut frame = encode_frame(&CommMessage::RemoteExec, 1);
        frame[0] = 99;
        assert!(decode_frame(&frame).is_none(), "unknown tag");
        let mut frame = encode_frame(
            &CommMessage::Collective {
                kind: CollectiveKind::Broadcast,
                bytes: 8,
            },
            1,
        );
        frame[1] = 9;
        assert!(decode_frame(&frame).is_none(), "unknown collective kind");
    }

    #[test]
    fn transport_kind_parses_and_displays() {
        assert_eq!("shmem".parse::<TransportKind>(), Ok(TransportKind::Shmem));
        assert_eq!("mesh".parse::<TransportKind>(), Ok(TransportKind::Mesh));
        assert!("tcp".parse::<TransportKind>().is_err());
        assert_eq!(TransportKind::Mesh.to_string(), "mesh");
        assert_eq!(TransportKind::default(), TransportKind::Shmem);
    }

    #[test]
    fn delivery_log_disabled_records_nothing() {
        let log = DeliveryLog::new(2);
        log.record_in_order(LocaleId::new(0), LocaleId::new(1));
        assert!(log.snapshot(LocaleId::new(0), LocaleId::new(1)).is_empty());
        log.enable();
        log.record_in_order(LocaleId::new(0), LocaleId::new(1));
        log.record_in_order(LocaleId::new(0), LocaleId::new(1));
        assert_eq!(log.snapshot(LocaleId::new(0), LocaleId::new(1)), vec![0, 1]);
    }
}
