//! The bounded admission queue every worker drains.
//!
//! Capacity is enforced at `try_push` — a full queue *refuses*, it never
//! grows — which is what makes the service's admission control impossible
//! to bypass (lint rule 8 forbids unbounded channel/queue constructors
//! anywhere in this crate, so this is the only queue there is). Built on
//! the `rcuarray_analysis` sync facade so the deterministic checker can
//! drive producer/consumer interleavings (`service_harness.rs`).

use rcuarray_analysis::sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Outcome of a blocking pop.
#[derive(Debug, PartialEq, Eq)]
pub enum PopResult<E> {
    /// Work was dequeued ([`BoundedQueue::pop_batch`]: how many items).
    Item(E),
    /// The wait elapsed with the queue still empty.
    TimedOut,
    /// The queue is closed and fully drained; no item will ever arrive.
    Closed,
}

struct QueueState<E> {
    buf: VecDeque<E>,
    closed: bool,
}

/// A multi-producer, multi-consumer FIFO with a hard capacity.
pub struct BoundedQueue<E> {
    state: Mutex<QueueState<E>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<E> BoundedQueue<E> {
    /// A queue refusing pushes beyond `capacity` items.
    ///
    /// # Panics
    /// Panics when `capacity` is zero (a zero-capacity queue could never
    /// admit anything).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a bounded queue needs capacity >= 1");
        BoundedQueue {
            state: Mutex::new(QueueState {
                buf: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue `item`, or hand it back when the queue is full or closed.
    /// Never blocks and never grows past the capacity — refusal is the
    /// admission-control signal.
    pub fn try_push(&self, item: E) -> Result<(), E> {
        let mut st = self.state.lock();
        if st.closed || st.buf.len() >= self.capacity {
            return Err(item);
        }
        st.buf.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Move everything queued, up to `max` items, into `out` under one
    /// lock hold, waiting up to `timeout` for the first item to arrive;
    /// `Item(n)` reports how many were moved. Items still queued when
    /// the queue closes are drained first; [`PopResult::Closed`] is only
    /// returned once the queue is closed *and* empty. The deadline is
    /// checked before every wait, so a zero `timeout` never parks.
    pub fn pop_batch(&self, max: usize, timeout: Duration, out: &mut Vec<E>) -> PopResult<usize> {
        debug_assert!(max >= 1, "a batch pop needs max >= 1");
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            if !st.buf.is_empty() {
                let n = st.buf.len().min(max);
                out.extend(st.buf.drain(..n));
                return PopResult::Item(n);
            }
            if st.closed {
                return PopResult::Closed;
            }
            if Instant::now() >= deadline {
                return PopResult::TimedOut;
            }
            self.not_empty.wait_until(&mut st, deadline);
        }
    }

    /// Dequeue without blocking.
    pub fn try_pop(&self) -> Option<E> {
        self.state.lock().buf.pop_front()
    }

    /// Close the queue: further pushes are refused, consumers drain what
    /// remains and then observe [`PopResult::Closed`].
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().buf.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hard capacity this queue refuses beyond.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn refuses_beyond_capacity() {
        let q = BoundedQueue::with_capacity(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "capacity must refuse, not grow");
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<u32>::with_capacity(0);
    }

    /// One `pop_batch` call, collected into a fresh `Vec`.
    fn pop(q: &BoundedQueue<u32>, max: usize, timeout: Duration) -> (PopResult<usize>, Vec<u32>) {
        let mut out = Vec::new();
        let r = q.pop_batch(max, timeout, &mut out);
        (r, out)
    }

    #[test]
    fn fifo_order_and_timeout() {
        let q = BoundedQueue::with_capacity(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(
            pop(&q, 1, Duration::from_millis(5)),
            (PopResult::Item(1), vec![1])
        );
        assert_eq!(
            pop(&q, 1, Duration::from_millis(5)),
            (PopResult::Item(1), vec![2])
        );
        assert_eq!(
            pop(&q, 1, Duration::from_millis(1)),
            (PopResult::TimedOut, vec![])
        );
    }

    #[test]
    fn pop_batch_respects_max_and_keeps_fifo_order() {
        let q = BoundedQueue::with_capacity(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let mut out = vec![99];
        assert_eq!(q.pop_batch(3, Duration::ZERO, &mut out), PopResult::Item(3));
        assert_eq!(
            out,
            vec![99, 0, 1, 2],
            "appends, in FIFO order, at most max"
        );
        assert_eq!(pop(&q, 8, Duration::ZERO), (PopResult::Item(2), vec![3, 4]));
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_signals() {
        let q = BoundedQueue::with_capacity(4);
        q.try_push(7).unwrap();
        q.try_push(8).unwrap();
        q.try_push(9).unwrap();
        q.close();
        assert_eq!(q.try_push(10), Err(10), "closed queue refuses new work");
        assert_eq!(pop(&q, 2, Duration::ZERO), (PopResult::Item(2), vec![7, 8]));
        assert_eq!(pop(&q, 2, Duration::ZERO), (PopResult::Item(1), vec![9]));
        assert_eq!(
            pop(&q, 2, Duration::from_secs(5)),
            (PopResult::Closed, vec![])
        );
    }

    #[test]
    fn zero_timeout_on_an_empty_queue_never_parks() {
        let q = BoundedQueue::<u32>::with_capacity(4);
        let t0 = Instant::now();
        assert_eq!(pop(&q, 4, Duration::ZERO), (PopResult::TimedOut, vec![]));
        assert!(t0.elapsed() < Duration::from_millis(50));
        // A real condvar returns at once from a past deadline, so timing
        // alone cannot tell a park apart; `service_harness.rs` can: under
        // DPOR a park with no producer left is reported as a deadlock.
    }

    #[test]
    fn wakes_a_blocked_consumer() {
        let q = Arc::new(BoundedQueue::with_capacity(2));
        let q2 = Arc::clone(&q);
        let consumer = rcuarray_analysis::thread::spawn(move || {
            let mut out = Vec::new();
            (q2.pop_batch(4, Duration::from_secs(5), &mut out), out)
        });
        // The consumer may or may not be parked yet; either way the
        // notify-or-find path must deliver the item.
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), (PopResult::Item(1), vec![42]));
    }
}
