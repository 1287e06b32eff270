//! The shared-memory backend: the pre-seam direct-access path.
//!
//! In the simulation all locale memory lives in one address space, so a
//! "transmission" has nothing to move — the data is already wherever
//! the destination will read it. `transmit` therefore only records
//! delivery order (when enabled); it never blocks and never fails. This
//! preserves the zero-copy fast path, while still exercising the same
//! [`Transport`] seam the mesh backend does.

use super::{CommMessage, DeliveryLog, Transport, TransportKind};
use crate::fault::CommError;
use crate::locale::LocaleId;

/// Direct shared-memory transport: delivery is implicit.
#[derive(Debug)]
pub struct ShmemTransport {
    log: DeliveryLog,
}

impl ShmemTransport {
    /// A shmem transport for an `n`-locale cluster.
    pub fn new(n: usize) -> Self {
        ShmemTransport {
            log: DeliveryLog::new(n),
        }
    }
}

impl Transport for ShmemTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Shmem
    }

    #[inline]
    fn transmit(&self, from: LocaleId, to: LocaleId, _msg: &CommMessage) -> Result<(), CommError> {
        debug_assert_ne!(from, to, "local accesses never reach the transport");
        // Send *is* delivery on shared memory: the log stays strictly
        // in send order per link.
        self.log.record_in_order(from, to);
        Ok(())
    }

    fn enable_delivery_log(&self) {
        self.log.enable();
    }

    fn delivery_log(&self, from: LocaleId, to: LocaleId) -> Vec<u64> {
        self.log.snapshot(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{CommLayer, LatencyModel, LinkStats};

    fn l(i: u32) -> LocaleId {
        LocaleId::new(i)
    }

    #[test]
    fn sends_meter_the_link_and_never_fail() {
        let c = CommLayer::new(2, LatencyModel::None);
        assert_eq!(c.transport().kind(), TransportKind::Shmem);
        for _ in 0..10 {
            c.send(l(0), l(1), CommMessage::Put { bytes: 32 }).unwrap();
        }
        let s = c.link_stats(l(0), l(1));
        assert_eq!(s.messages, 10);
        assert_eq!(s.bytes, 320);
        assert_eq!(c.link_stats(l(1), l(0)), LinkStats::default());
    }

    #[test]
    fn delivery_log_is_in_send_order() {
        let t = ShmemTransport::new(2);
        t.enable_delivery_log();
        for _ in 0..5 {
            t.transmit(l(0), l(1), &CommMessage::Get { bytes: 8 })
                .unwrap();
        }
        assert_eq!(t.delivery_log(l(0), l(1)), vec![0, 1, 2, 3, 4]);
        assert!(t.delivery_log(l(1), l(0)).is_empty());
    }
}
