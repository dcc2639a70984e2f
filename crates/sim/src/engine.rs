//! Discrete-event simulation engine.
//!
//! The engine's queue is a `BinaryHeap` keyed by ascending event time, ties
//! broken FIFO by a monotonic per-engine sequence number: O(log n) push and
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
    /// The total order the engine delivers in.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.sequence)
    }
}

/// Counters an engine's queue accumulates over its lifetime, surfaced in
/// the fleet report (`FleetReport::queue`) and the benchmark's
/// `sim.engine.*` metrics.
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

/// A single-clock discrete-event engine.
///
/// The engine owns its event heap and the current time. Pulling the next
/// event advances the clock to that event's timestamp, which is the
/// standard discrete-event semantics: nothing happens between events.
/// Events are delivered in ascending `(time, sequence)` order, i.e. FIFO
/// among same-instant events.
///
/// A simulation runs by calling [`Engine::next_event`] in a loop: it handles
/// each event with whatever state it owns and schedules follow-ups between
/// pulls. `erasmus-core`'s `Scenario` runner interleaves collections and
/// malware arrivals/departures that way on one timeline, and every
/// `erasmus-bench` fleet shard runs its slice of the fleet on one.
///
/// # Example
///
/// ```
/// use erasmus_sim::{Engine, SimDuration, SimTime};
///
/// #[derive(PartialEq)]
/// enum Event { Measure, Collect }
///
/// let mut engine = Engine::new();
/// engine.schedule_at(SimTime::from_secs(60), Event::Collect);
/// engine.schedule_at(SimTime::from_secs(10), Event::Measure);
/// let mut fired = Vec::new();
/// while let Some(event) = engine.next_event() {
///     // A measurement schedules the next one 10 s later, up to 30 s.
///     if event.payload == Event::Measure && event.time < SimTime::from_secs(30) {
///         engine.schedule_at(event.time + SimDuration::from_secs(10), Event::Measure);
///     }
///     fired.push(event.time);
/// }
/// assert_eq!(fired, [10, 20, 30, 60].map(SimTime::from_secs));
/// ```
#[derive(Debug)]
pub struct Engine<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_sequence: u64,
    stats: QueueStats,
    now: SimTime,
}

impl<T> Engine<T> {
    /// Creates an engine with an empty event queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_sequence: 0,
            stats: QueueStats::default(),
            now: SimTime::ZERO,
        }
    }

    /// Lifetime counters of the event queue.
    pub fn queue_stats(&self) -> QueueStats {
        self.stats
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the simulated past.
    pub fn schedule_at(&mut self, time: SimTime, payload: T) {
        assert!(
            time >= self.now,
            "cannot schedule an event in the past ({time} < {})",
            self.now
        );
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

    /// Delivers the next event, advancing the clock to its timestamp, or
    /// `None` once the queue is empty.
    pub fn next_event(&mut self) -> Option<ScheduledEvent<T>> {
        let event = self.heap.pop()?.event;
        self.stats.pops += 1;
        self.now = event.time;
        Some(event)
    }
}

impl<T> Default for Engine<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Events still queued: every push not yet popped.
    fn pending<T>(engine: &Engine<T>) -> u64 {
        let stats = engine.queue_stats();
        stats.pushes - stats.pops
    }

    fn drain(engine: &mut Engine<u32>) -> Vec<u32> {
        std::iter::from_fn(|| engine.next_event().map(|e| e.payload)).collect()
    }

    #[test]
    fn orders_by_time() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(10), 10);
        engine.schedule_at(SimTime::from_secs(5), 5);
        engine.schedule_at(SimTime::from_secs(7), 7);
        assert_eq!(drain(&mut engine), vec![5, 7, 10]);
    }

    #[test]
    fn ties_broken_fifo() {
        let mut engine = Engine::new();
        for i in 0..100u32 {
            engine.schedule_at(SimTime::from_secs(1), i);
        }
        assert_eq!(drain(&mut engine), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::ZERO, 0u32);
        engine.schedule_at(SimTime::ZERO, 1);
        let first = engine.next_event().expect("event").sequence;
        let second = engine.next_event().expect("event").sequence;
        assert!(first < second);
    }

    #[test]
    fn same_instant_follow_up_pushed_mid_drain_keeps_fifo_order() {
        // A handler scheduling at the instant being drained (zero-latency
        // delivery) must see its event fire after the already-queued
        // same-instant events — FIFO by sequence.
        let mut engine = Engine::new();
        let t = SimTime::from_secs(2);
        engine.schedule_at(t, 0u32);
        engine.schedule_at(t, 1);
        assert_eq!(engine.next_event().map(|e| e.payload), Some(0));
        engine.schedule_at(t, 2);
        assert_eq!(drain(&mut engine), vec![1, 2]);
    }

    #[test]
    fn stats_track_pushes_pops_and_high_water() {
        let mut engine = Engine::new();
        for i in 0..10u32 {
            engine.schedule_at(SimTime::from_secs(u64::from(i)), i);
        }
        for _ in 0..4 {
            engine.next_event();
        }
        let stats = engine.queue_stats();
        assert_eq!((stats.pushes, stats.pops, stats.max_pending), (10, 4, 10));
        assert_eq!(stats.overflow_pushes, 0);
        assert_eq!(pending(&engine), engine.heap.len() as u64);
    }

    #[test]
    fn delivers_in_time_order_and_advances_clock() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(3), "late");
        engine.schedule_at(SimTime::from_secs(1), "early");
        let first = engine.next_event().expect("first");
        assert_eq!(first.payload, "early");
        assert_eq!(engine.now, SimTime::from_secs(1));
        let second = engine.next_event().expect("second");
        assert_eq!(second.payload, "late");
        assert_eq!(engine.now, SimTime::from_secs(3));
        assert!(engine.next_event().is_none());
        assert_eq!(engine.queue_stats().pops, 2);
        assert_eq!(pending(&engine), 0);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(10), ());
        engine.next_event();
        engine.schedule_at(SimTime::from_secs(5), ());
    }
}
