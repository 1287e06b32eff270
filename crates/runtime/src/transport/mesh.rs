//! The message-passing backend: per-link bounded channels with one
//! dispatcher thread per destination locale.
//!
//! Where [`ShmemTransport`](super::ShmemTransport) treats transmission
//! as free, `MeshTransport` gives every directed `(from, to)` link the
//! shape a real conduit has:
//!
//! * the sender serializes the message into a byte frame
//!   ([`encode_frame`](super::encode_frame)) and enqueues it on the
//!   destination's **bounded** per-sender queue, blocking (with a
//!   deadline) when the link is full — backpressure, not unbounded
//!   buffering;
//! * one **dispatcher thread per destination locale** drains its
//!   inbound links round-robin, decodes each frame, records delivery
//!   order, and completes the sender's ack;
//! * the sender waits for that completion ack with the same deadline,
//!   so a wedged or partitioned peer surfaces as
//!   [`CommError::Timeout`] instead of a deadlock.
//!
//! Per-link FIFO holds because a link's send sequence numbers are
//! assigned under the same lock that enqueues the frame, and one
//! dispatcher drains each queue front-to-back. A link placed under a
//! `reorder_link` fault rule perturbs only the *observed delivery
//! order* (adjacent log entries swap): element payloads still move
//! through shared memory in the simulation, so completion and
//! accounting are unaffected — exactly the observability knob the
//! conformance suite needs.

use super::{decode_frame, encode_frame, CommMessage, DeliveryLog, Transport, TransportKind};
use crate::fault::CommError;
use crate::locale::LocaleId;
use parking_lot::{Condvar, Mutex};
use rcuarray_obs::LazyGauge;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

static OBS_QUEUE_DEPTH: LazyGauge = LazyGauge::new(
    "rcuarray_transport_queue_depth",
    "frames currently queued on mesh links awaiting dispatch",
);

/// Tuning knobs for [`MeshTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Frames one directed link buffers before senders block (and, past
    /// the ack deadline, fail with [`CommError::Timeout`]).
    pub queue_capacity: usize,
    /// How long a sender waits — for queue space and then for the
    /// dispatcher's completion ack — before giving up. The bound is
    /// what turns a dead or wedged peer into an error instead of a
    /// hang.
    pub ack_timeout: Duration,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            queue_capacity: 1024,
            ack_timeout: Duration::from_secs(5),
        }
    }
}

/// One in-flight frame: the serialized message plus the sender's
/// completion slot.
struct Frame {
    from: u32,
    payload: Vec<u8>,
    ack: Arc<Ack>,
}

/// A sender's completion slot: the dispatcher writes exactly once, the
/// sender waits with a deadline.
struct Ack {
    state: Mutex<Option<Result<(), CommError>>>,
    cv: Condvar,
}

impl Ack {
    fn new() -> Self {
        Ack {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, r: Result<(), CommError>) {
        let mut st = self.state.lock();
        // At-most-once: the first completion wins; a late second writer
        // (never the case for the dispatcher, which acks each frame
        // exactly once) would be dropped rather than clobbering.
        if st.is_none() {
            *st = Some(r);
        }
        drop(st);
        self.cv.notify_all();
    }

    fn wait_until(&self, deadline: Instant) -> Option<Result<(), CommError>> {
        let mut st = self.state.lock();
        while st.is_none() {
            if self.cv.wait_until(&mut st, deadline).timed_out() {
                return *st;
            }
        }
        *st
    }
}

/// Per-destination inbox: one bounded queue per sender link plus the
/// dispatcher's wake-up and the senders' space condition.
struct Inbox {
    state: Mutex<InboxState>,
    /// Signaled when a frame arrives (wakes the dispatcher).
    ready: Condvar,
    /// Signaled when the dispatcher pops (wakes blocked senders).
    space: Condvar,
}

struct InboxState {
    /// Inbound frames, indexed by sender locale.
    per_link: Box<[VecDeque<Frame>]>,
    /// Next send sequence number per sender link; assigned under this
    /// lock so per-link FIFO is exact even with concurrent sender
    /// threads on one locale.
    send_seq: Box<[u64]>,
    /// Round-robin cursor over sender links (no sender starves).
    rr: usize,
    closed: bool,
}

struct Shared {
    n: usize,
    inboxes: Box<[Inbox]>,
    log: DeliveryLog,
    /// Directed links whose observed delivery order is perturbed
    /// (adjacent pairs swap), from the fault plan's `reorder_link`
    /// rules. Indexed `from * n + to`.
    reorder: Box<[bool]>,
}

/// Message-passing transport over per-link bounded channels.
pub struct MeshTransport {
    shared: Arc<Shared>,
    cfg: MeshConfig,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
}

impl MeshTransport {
    /// A mesh for an `n`-locale cluster. `reorder_links` lists the
    /// directed links whose delivery order should be perturbed
    /// (normally collected from the fault plan's `reorder_link` rules).
    pub fn new(n: usize, cfg: MeshConfig, reorder_links: &[(LocaleId, LocaleId)]) -> Self {
        assert!(
            cfg.queue_capacity >= 1,
            "a link needs capacity for one frame"
        );
        let mut reorder = vec![false; n * n].into_boxed_slice();
        for &(from, to) in reorder_links {
            reorder[from.index() * n + to.index()] = true;
        }
        let inboxes: Box<[Inbox]> = (0..n)
            .map(|_| Inbox {
                state: Mutex::new(InboxState {
                    per_link: (0..n).map(|_| VecDeque::new()).collect(),
                    send_seq: vec![0; n].into_boxed_slice(),
                    rr: 0,
                    closed: false,
                }),
                ready: Condvar::new(),
                space: Condvar::new(),
            })
            .collect();
        let shared = Arc::new(Shared {
            n,
            inboxes,
            log: DeliveryLog::new(n),
            reorder,
        });
        let dispatchers = (0..n)
            .map(|dst| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mesh-dispatch-{dst}"))
                    .spawn(move || dispatch(&shared, dst))
                    .expect("spawn mesh dispatcher")
            })
            .collect();
        MeshTransport {
            shared,
            cfg,
            dispatchers,
        }
    }
}

/// The dispatcher loop for destination locale `dst`: drain inbound
/// links round-robin, record delivery, ack each sender. Exits when the
/// inbox is closed *and* drained, so no enqueued frame is abandoned.
fn dispatch(shared: &Shared, dst: usize) {
    let n = shared.n;
    let inbox = &shared.inboxes[dst];
    let to = LocaleId::new(dst as u32);
    // One stashed log entry per reordered sender link.
    let mut stash: Vec<Option<u64>> = vec![None; n];
    loop {
        let frame = {
            let mut st = inbox.state.lock();
            loop {
                if let Some(f) = pop_round_robin(&mut st, n) {
                    break Some(f);
                }
                if st.closed {
                    break None;
                }
                inbox.ready.wait(&mut st);
            }
        };
        let Some(frame) = frame else {
            // Shutdown: flush stashed reorder entries so the delivery
            // log accounts for every delivered frame.
            for (src, slot) in stash.iter_mut().enumerate() {
                if let Some(seq) = slot.take() {
                    shared
                        .log
                        .record_delivery(LocaleId::new(src as u32), to, seq);
                }
            }
            return;
        };
        inbox.space.notify_all();
        OBS_QUEUE_DEPTH.add(-1);
        let (_msg, seq) = decode_frame(&frame.payload).expect("mesh frame corrupted in transit");
        let from = LocaleId::new(frame.from);
        if shared.reorder[from.index() * n + dst] {
            match stash[from.index()].take() {
                // Hold the first of each pair back …
                None => stash[from.index()] = Some(seq),
                // … and log it *after* its successor: adjacent swaps.
                Some(held) => {
                    shared.log.record_delivery(from, to, seq);
                    shared.log.record_delivery(from, to, held);
                }
            }
        } else {
            shared.log.record_delivery(from, to, seq);
        }
        // Ack promptly — even on a reordered link. Reordering perturbs
        // the observed delivery order, never completion: a sender must
        // not block on its successor's arrival.
        frame.ack.complete(Ok(()));
    }
}

fn pop_round_robin(st: &mut InboxState, n: usize) -> Option<Frame> {
    for k in 0..n {
        let i = (st.rr + k) % n;
        if let Some(f) = st.per_link[i].pop_front() {
            st.rr = (i + 1) % n;
            return Some(f);
        }
    }
    None
}

impl Transport for MeshTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Mesh
    }

    fn transmit(&self, from: LocaleId, to: LocaleId, msg: &CommMessage) -> Result<(), CommError> {
        debug_assert_ne!(from, to, "local accesses never reach the transport");
        let inbox = &self.shared.inboxes[to.index()];
        let deadline = Instant::now() + self.cfg.ack_timeout;
        let ack = Arc::new(Ack::new());
        {
            let mut st = inbox.state.lock();
            while st.per_link[from.index()].len() >= self.cfg.queue_capacity && !st.closed {
                if inbox.space.wait_until(&mut st, deadline).timed_out()
                    && st.per_link[from.index()].len() >= self.cfg.queue_capacity
                {
                    // The link stayed full past the deadline: refuse
                    // instead of buffering unboundedly or hanging.
                    return Err(CommError::Timeout {
                        op: msg.primary_op(),
                        locale: to,
                    });
                }
            }
            if st.closed {
                return Err(CommError::LocaleDown {
                    op: msg.primary_op(),
                    locale: to,
                });
            }
            let seq = st.send_seq[from.index()];
            st.send_seq[from.index()] += 1;
            st.per_link[from.index()].push_back(Frame {
                from: from.index() as u32,
                payload: encode_frame(msg, seq),
                ack: Arc::clone(&ack),
            });
            OBS_QUEUE_DEPTH.add(1);
        }
        inbox.ready.notify_one();
        match ack.wait_until(deadline) {
            Some(res) => res,
            // Completion lost past the deadline (wedged dispatcher):
            // surface as a timeout, never a hang.
            None => Err(CommError::Timeout {
                op: msg.primary_op(),
                locale: to,
            }),
        }
    }

    fn enable_delivery_log(&self) {
        self.shared.log.enable();
    }

    fn delivery_log(&self, from: LocaleId, to: LocaleId) -> Vec<u64> {
        self.shared.log.snapshot(from, to)
    }
}

impl Drop for MeshTransport {
    fn drop(&mut self) {
        for inbox in self.shared.inboxes.iter() {
            inbox.state.lock().closed = true;
            inbox.ready.notify_all();
            inbox.space.notify_all();
        }
        for h in self.dispatchers.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for MeshTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshTransport")
            .field("locales", &self.shared.n)
            .field("cfg", &self.cfg)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{CommLayer, LatencyModel, LinkStats};
    use crate::fault::FaultPlan;

    fn l(i: u32) -> LocaleId {
        LocaleId::new(i)
    }

    fn mesh_comm(n: usize) -> CommLayer {
        CommLayer::with_transport(
            n,
            LatencyModel::None,
            FaultPlan::disabled(),
            TransportKind::Mesh,
            MeshConfig::default(),
        )
    }

    #[test]
    fn sends_deliver_and_meter_the_link() {
        let c = mesh_comm(2);
        for _ in 0..20 {
            c.send(l(0), l(1), CommMessage::Put { bytes: 16 }).unwrap();
        }
        let s = c.link_stats(l(0), l(1));
        assert_eq!(s.messages, 20);
        assert_eq!(s.bytes, 320);
        assert_eq!(c.link_stats(l(1), l(0)), LinkStats::default());
    }

    #[test]
    fn per_link_delivery_is_fifo() {
        let t = MeshTransport::new(3, MeshConfig::default(), &[]);
        t.enable_delivery_log();
        for _ in 0..50 {
            t.transmit(l(0), l(2), &CommMessage::Get { bytes: 8 })
                .unwrap();
            t.transmit(l(1), l(2), &CommMessage::Get { bytes: 8 })
                .unwrap();
        }
        assert_eq!(t.delivery_log(l(0), l(2)), (0..50).collect::<Vec<_>>());
        assert_eq!(t.delivery_log(l(1), l(2)), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_senders_all_complete() {
        let c = mesh_comm(4);
        std::thread::scope(|s| {
            for src in 0..4u32 {
                for dst in 0..4u32 {
                    if src == dst {
                        continue;
                    }
                    let c = &c;
                    s.spawn(move || {
                        for _ in 0..100 {
                            c.send(l(src), l(dst), CommMessage::RemoteExec).unwrap();
                        }
                    });
                }
            }
        });
        for src in 0..4u32 {
            for dst in 0..4u32 {
                if src != dst {
                    assert_eq!(c.link_stats(l(src), l(dst)).messages, 100);
                }
            }
        }
    }

    #[test]
    fn reordered_link_swaps_adjacent_deliveries() {
        let t = MeshTransport::new(2, MeshConfig::default(), &[(l(0), l(1))]);
        t.enable_delivery_log();
        for _ in 0..4 {
            t.transmit(l(0), l(1), &CommMessage::Put { bytes: 8 })
                .unwrap();
        }
        drop(t); // flush + join so the log is final
                 // Can't read the log after drop; re-run with a handle kept.
        let t = MeshTransport::new(2, MeshConfig::default(), &[(l(0), l(1))]);
        t.enable_delivery_log();
        for _ in 0..4 {
            t.transmit(l(0), l(1), &CommMessage::Put { bytes: 8 })
                .unwrap();
        }
        // Wait for the dispatcher to observe all four frames: transmit
        // returns on ack, and acks are issued after log handling, so by
        // here the pairs (0,1) and (2,3) have both been processed.
        let log = t.delivery_log(l(0), l(1));
        assert_eq!(log, vec![1, 0, 3, 2], "adjacent pairs swap");
    }

    #[test]
    fn closed_transport_refuses_instead_of_hanging() {
        let t = MeshTransport::new(2, MeshConfig::default(), &[]);
        for inbox in t.shared.inboxes.iter() {
            inbox.state.lock().closed = true;
            inbox.ready.notify_all();
        }
        let out = t.transmit(l(0), l(1), &CommMessage::Put { bytes: 8 });
        assert!(matches!(out, Err(CommError::LocaleDown { .. })));
    }
}
