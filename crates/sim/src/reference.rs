//! Reference implementations kept for differential testing and benchmarks.
//!
//! [`HeapEventQueue`] is the original `BinaryHeap`-backed event queue that
//! [`crate::EventQueue`] (now a hierarchical timer wheel) replaced. It is the
//! ordering oracle: the property test in `tests/prop_event_queue.rs` replays
//! arbitrary interleaved schedule/pop sequences through both queues and
//! requires identical `(time, order)` output, and the `event_queue` bench in
//! `rperf-bench` measures the wheel against it at several depths and delay
//! mixes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// The original `BinaryHeap`-backed stable event queue.
///
/// Pops events in non-decreasing time order with FIFO tie-breaking at equal
/// timestamps, exactly like [`crate::EventQueue`], but every push/pop pays an
/// O(log n) sift. Kept only as a differential-testing oracle and benchmark
/// baseline; simulations should use [`crate::EventQueue`].
///
/// # Examples
///
/// ```
/// use rperf_sim::reference::HeapEventQueue;
/// use rperf_sim::SimTime;
///
/// let mut q = HeapEventQueue::new();
/// q.schedule(SimTime::from_ns(5), "b");
/// q.schedule(SimTime::from_ns(2), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_ns(2), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), "b")));
/// ```
#[derive(Debug)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (and, within a
        // timestamp, the lowest-sequence) entry is the maximum.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue positioned at `t = 0`.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        HeapEventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// The timestamp of the most recently popped event (`t = 0` initially).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `at` is earlier than
    /// [`HeapEventQueue::now`].
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, advancing
    /// [`HeapEventQueue::now`].
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        self.popped += 1;
        Some((entry.at, entry.event))
    }

    /// The timestamp of the next event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_pops_in_time_order_with_fifo_ties() {
        let mut q = HeapEventQueue::new();
        q.schedule(SimTime::from_ns(5), 2);
        q.schedule(SimTime::from_ns(1), 0);
        q.schedule(SimTime::from_ns(5), 3);
        q.schedule(SimTime::from_ns(2), 1);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(q.popped(), 4);
    }
}
