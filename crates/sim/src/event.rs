//! The time-ordered event queue the [`Engine`](crate::Engine) runs on.
//!
//! [`EventQueue`] is a `BinaryHeap` keyed by ascending event time, ties
//! broken FIFO by a monotonic per-queue sequence number: O(log n) push and
//! pop. It is deterministic — integer keys, no hashing, no wall clock — so
//! simulation results depend only on the sequence of pushes and pops.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event scheduled at a point in simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<T> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonic sequence number used to break ties FIFO.
    pub sequence: u64,
    /// Caller-defined payload.
    pub payload: T,
}

impl<T> ScheduledEvent<T> {
    /// The total order the queue delivers in.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.sequence)
    }
}

/// Counters a queue accumulates over its lifetime, surfaced in the fleet
/// report (`FleetReport::queue`) and the benchmark's `sim.engine.*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Events pushed.
    pub pushes: u64,
    /// Events popped.
    pub pops: u64,
    /// Always 0: the heap has no overflow path. Kept because the fleet
    /// benchmark still reports it as `sim.engine.queue_overflow_pushes`.
    pub overflow_pushes: u64,
    /// High-water mark of pending events.
    pub max_pending: u64,
}

/// Internal wrapper giving the heap min-ordering by (time, sequence).
#[derive(Debug)]
struct HeapEntry<T> {
    event: ScheduledEvent<T>,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.event.key() == other.event.key()
    }
}

impl<T> Eq for HeapEntry<T> {}

impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
        other.event.key().cmp(&self.event.key())
    }
}

/// A `BinaryHeap`-backed event queue delivering in ascending
/// `(time, sequence)` order, i.e. FIFO among same-instant events.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_sequence: u64,
    stats: QueueStats,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_sequence: 0,
            stats: QueueStats::default(),
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        self.heap.push(HeapEntry {
            event: ScheduledEvent {
                time,
                sequence,
                payload,
            },
        });
        self.stats.pushes += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.heap.len() as u64);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        let event = self.heap.pop().map(|entry| entry.event)?;
        self.stats.pops += 1;
        Some(event)
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.event.time)
    }

    /// Lifetime counters of this queue.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(queue: &mut EventQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| queue.pop().map(|e| e.payload)).collect()
    }

    #[test]
    fn orders_by_time() {
        let mut queue = EventQueue::new();
        queue.push(SimTime::from_secs(10), 10);
        queue.push(SimTime::from_secs(5), 5);
        queue.push(SimTime::from_secs(7), 7);
        assert_eq!(drain(&mut queue), vec![5, 7, 10]);
    }

    #[test]
    fn ties_broken_fifo() {
        let mut queue = EventQueue::new();
        for i in 0..100u32 {
            queue.push(SimTime::from_secs(1), i);
        }
        assert_eq!(drain(&mut queue), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut queue = EventQueue::new();
        assert_eq!(queue.heap.len(), 0);
        assert_eq!(queue.peek_time(), None);
        queue.push(SimTime::from_secs(2), 0u32);
        queue.push(SimTime::from_secs(1), 0);
        assert_eq!(queue.heap.len(), 2);
        assert_eq!(queue.peek_time(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let mut queue = EventQueue::new();
        queue.push(SimTime::ZERO, 0u32);
        queue.push(SimTime::ZERO, 1);
        let first = queue.pop().expect("event").sequence;
        let second = queue.pop().expect("event").sequence;
        assert!(first < second);
    }

    #[test]
    fn same_instant_follow_up_pushed_mid_drain_keeps_fifo_order() {
        // A handler scheduling at the instant being drained (zero-latency
        // delivery) must see its event fire after the already-queued
        // same-instant events — FIFO by sequence.
        let mut queue = EventQueue::new();
        let t = SimTime::from_secs(2);
        queue.push(t, 0u32);
        queue.push(t, 1);
        assert_eq!(queue.pop().map(|e| e.payload), Some(0));
        queue.push(t, 2);
        assert_eq!(drain(&mut queue), vec![1, 2]);
    }

    #[test]
    fn push_behind_the_last_pop_still_delivers_first() {
        // The raw queue is a general priority queue: after draining to 10 s
        // a push at 1 s must still come out before one at 20 s.
        let mut queue = EventQueue::new();
        queue.push(SimTime::from_secs(10), 10u32);
        assert_eq!(queue.pop().map(|e| e.payload), Some(10));
        queue.push(SimTime::from_secs(20), 20);
        queue.push(SimTime::from_secs(1), 1);
        assert_eq!(drain(&mut queue), vec![1, 20]);
    }

    #[test]
    fn stats_track_pushes_pops_and_high_water() {
        let mut queue = EventQueue::new();
        for i in 0..10u32 {
            queue.push(SimTime::from_secs(u64::from(i)), i);
        }
        for _ in 0..4 {
            queue.pop();
        }
        let stats = queue.stats();
        assert_eq!((stats.pushes, stats.pops, stats.max_pending), (10, 4, 10));
        assert_eq!(stats.overflow_pushes, 0);
        assert_eq!(stats.pushes - stats.pops, queue.heap.len() as u64);
    }
}
