//! Time-ordered event queues: the calendar-queue scheduler and the
//! binary-heap reference implementation.
//!
//! * [`CalendarQueue`] — the queue the [`Engine`](crate::Engine) runs on:
//!   a bucketed rotating-wheel scheduler. Near-future events land in a
//!   wheel of fixed-width time buckets; pops rotate a cursor through the
//!   wheel and drain one bucket at a time, so steady-state push and pop
//!   cost O(1) instead of a heap's O(log n). Far-future events (beyond one
//!   wheel revolution) wait in a min-heap overflow and migrate into the
//!   wheel as the cursor approaches.
//! * [`HeapEventQueue`] — the original `BinaryHeap` implementation, kept
//!   only as the oracle the order-equivalence tests and the scheduler
//!   bench compare the calendar queue against.
//!
//! Both deliver the exact same order: ascending event time, ties broken
//! FIFO by a monotonic per-queue sequence number. Every structure in this
//! module is deterministic — plain `Vec`s and integer arithmetic, no
//! hashing, no wall clock — so simulation results depend only on the
//! sequence of pushes and pops.

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
    /// The total order both backends deliver in.
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
    /// Pushes that landed beyond the wheel horizon, into the min-heap
    /// overflow (always 0 for the heap backend).
    pub overflow_pushes: u64,
    /// High-water mark of pending events.
    pub max_pending: u64,
    /// Number of wheel buckets (0 for the heap backend).
    pub buckets: u64,
    /// Bucket width in nanoseconds (0 for the heap backend).
    pub bucket_width_nanos: u64,
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

/// The original `BinaryHeap`-backed queue: O(log n) push/pop, identical
/// delivery order to [`CalendarQueue`].
///
/// Retained as the oracle of the order-equivalence tests
/// (`tests/queue_equivalence.rs`) and as the baseline of the scheduler
/// bench; no runtime path schedules on it.
#[derive(Debug)]
pub struct HeapEventQueue<T> {
    heap: BinaryHeap<HeapEntry<T>>,
    next_sequence: u64,
    stats: QueueStats,
}

impl<T> HeapEventQueue<T> {
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

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events. Sequence numbers keep counting, so FIFO
    /// ordering stays globally monotonic across the clear.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Lifetime counters of this queue.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

impl<T> Default for HeapEventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Wheel bucket width as a power of two of nanoseconds: 2^24 ns ≈ 16.8 ms.
const BUCKET_BITS: u32 = 24;
/// Wheel size. 1024 buckets × 16.8 ms ≈ 17.2 s of horizon — comfortably
/// wider than the fleet harness's 10 s measurement interval, so steady-state
/// reschedules (cohort ticks, ARQ backoffs, deliveries) stay in the wheel
/// and only the up-front seeding of far-future rounds touches the overflow
/// list.
const BUCKET_COUNT: usize = 1024;

fn bucket_index(time: SimTime) -> u64 {
    time.as_nanos() >> BUCKET_BITS
}

/// A calendar queue: a rotating wheel of time buckets with a min-heap
/// overflow for events beyond one revolution.
///
/// * `push` appends to the target bucket (O(1)); events due in the bucket
///   currently being drained merge into the sorted drain (rare: only
///   same-instant follow-ups land there).
/// * `pop` takes from the drain (O(1)); when the drain runs dry the cursor
///   rotates to the next non-empty bucket, moves that bucket's current-lap
///   events into the drain and sorts them once.
/// * Events more than one revolution ahead wait in `overflow` and migrate
///   into the wheel as the cursor advances, so wheel occupancy tracks the
///   active horizon instead of the whole timeline.
///
/// Delivery order is identical to [`HeapEventQueue`]: ascending
/// `(time, sequence)`, i.e. FIFO among same-instant events — the property
/// test in `tests/queue_equivalence.rs` pins this against the heap oracle.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// The wheel: `BUCKET_COUNT` unsorted buckets. A bucket may hold events
    /// of several laps; only those of the cursor's lap drain out of it.
    wheel: Vec<Vec<ScheduledEvent<T>>>,
    /// Events of the cursor's bucket, sorted descending by
    /// `(time, sequence)` so popping the back yields the minimum.
    drain: Vec<ScheduledEvent<T>>,
    /// Absolute bucket number (`time >> BUCKET_BITS`) being drained.
    cursor: u64,
    /// Events currently in wheel buckets (excluding the drain).
    wheel_len: usize,
    /// Far-future events in a min-heap (reusing the oracle backend's
    /// [`HeapEntry`] ordering): O(log n) insert, O(1) min peek, so the
    /// migration guard never sorts and a steady drip of one-revolution-out
    /// pushes costs O(log n) each instead of a re-sort per cursor advance.
    overflow: BinaryHeap<HeapEntry<T>>,
    len: usize,
    next_sequence: u64,
    stats: QueueStats,
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue with the cursor at time zero.
    pub fn new() -> Self {
        Self {
            wheel: (0..BUCKET_COUNT).map(|_| Vec::new()).collect(),
            drain: Vec::new(),
            cursor: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            next_sequence: 0,
            stats: QueueStats {
                buckets: BUCKET_COUNT as u64,
                bucket_width_nanos: 1 << BUCKET_BITS,
                ..QueueStats::default()
            },
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let event = ScheduledEvent {
            time,
            sequence: self.next_sequence,
            payload,
        };
        self.next_sequence += 1;
        self.len += 1;
        self.stats.pushes += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.len as u64);
        let bucket = bucket_index(time);
        if bucket <= self.cursor {
            // Due in the bucket being drained — or earlier (the raw queue
            // is a general priority queue; the engine never schedules into
            // the past, but `push` stays total). The common shape here is a
            // same-instant storm: every drained event orders before the new
            // one, so it can wait in the cursor's wheel bucket for the next
            // `advance` — O(1) instead of a front-of-drain memmove, which
            // would go quadratic across the storm. Only an event that must
            // interleave with the pending drain merges into it.
            let after_whole_drain = bucket == self.cursor
                && self.drain.first().is_none_or(|max| event.key() > max.key());
            if after_whole_drain {
                self.wheel[(bucket % BUCKET_COUNT as u64) as usize].push(event);
                self.wheel_len += 1;
            } else {
                self.insert_into_drain(event);
            }
        } else if bucket < self.cursor + BUCKET_COUNT as u64 {
            self.wheel[(bucket % BUCKET_COUNT as u64) as usize].push(event);
            self.wheel_len += 1;
        } else {
            self.overflow.push(HeapEntry { event });
            self.stats.overflow_pushes += 1;
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        if self.drain.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        let event = self.drain.pop().expect("advance fills the drain");
        self.len -= 1;
        self.stats.pops += 1;
        Some(event)
    }

    /// Time of the earliest pending event, if any.
    ///
    /// Takes `&mut self`: peeking may rotate the cursor to the next
    /// non-empty bucket. Delivery order is unaffected.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.drain.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        self.drain.last().map(|event| event.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all pending events. The cursor and sequence counter keep
    /// their positions, so ordering stays consistent for later pushes.
    pub fn clear(&mut self) {
        for bucket in &mut self.wheel {
            bucket.clear();
        }
        self.drain.clear();
        self.overflow.clear();
        self.wheel_len = 0;
        self.len = 0;
    }

    /// Lifetime counters of this queue.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    fn insert_into_drain(&mut self, event: ScheduledEvent<T>) {
        let key = event.key();
        // The drain is sorted descending; find the first element ordered
        // below the new event and insert before it.
        let position = self.drain.partition_point(|other| other.key() > key);
        self.drain.insert(position, event);
    }

    /// Refills the drain from the wheel. Caller guarantees the drain is
    /// empty and `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.drain.is_empty() && self.len > 0);
        loop {
            self.migrate_overflow();
            if self.wheel_len == 0 {
                // Everything pending is beyond the wheel horizon: jump the
                // cursor to the earliest overflow event's bucket and let the
                // migration at the top of the loop pull it in.
                let min = self.overflow_min_bucket();
                debug_assert!(min < u64::MAX, "len > 0 implies events");
                self.cursor = min;
                continue;
            }
            // Rotate through the wheel looking for events due this lap.
            for _ in 0..BUCKET_COUNT {
                let slot = (self.cursor % BUCKET_COUNT as u64) as usize;
                if !self.wheel[slot].is_empty() {
                    let bucket = &mut self.wheel[slot];
                    let mut i = 0;
                    while i < bucket.len() {
                        if bucket_index(bucket[i].time) == self.cursor {
                            self.drain.push(bucket.swap_remove(i));
                        } else {
                            i += 1;
                        }
                    }
                    if !self.drain.is_empty() {
                        self.wheel_len -= self.drain.len();
                        self.drain
                            .sort_unstable_by_key(|event| std::cmp::Reverse(event.key()));
                        return;
                    }
                }
                self.cursor += 1;
                self.migrate_overflow();
            }
            // A full revolution found nothing due: every wheel event belongs
            // to a later lap. Jump straight to the earliest one.
            self.cursor = self
                .wheel
                .iter()
                .flatten()
                .map(|event| bucket_index(event.time))
                .min()
                .expect("wheel_len > 0");
        }
    }

    /// Moves overflow events that now fall inside the wheel horizon into
    /// their buckets.
    fn migrate_overflow(&mut self) {
        let horizon = self.cursor + BUCKET_COUNT as u64;
        // The heap keeps the earliest event on top, so the common cases —
        // no overflow at all, or overflow still entirely beyond the
        // horizon — cost one peek.
        while let Some(next) = self.overflow.peek() {
            let bucket = bucket_index(next.event.time);
            if bucket >= horizon {
                break;
            }
            debug_assert!(
                bucket >= self.cursor,
                "overflow events are ahead of the cursor"
            );
            let event = self.overflow.pop().expect("checked non-empty").event;
            self.wheel[(bucket % BUCKET_COUNT as u64) as usize].push(event);
            self.wheel_len += 1;
        }
    }

    /// Bucket index of the earliest overflow event (`u64::MAX` when empty).
    fn overflow_min_bucket(&self) -> u64 {
        self.overflow
            .peek()
            .map_or(u64::MAX, |next| bucket_index(next.event.time))
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The queue surface the unit tests drive, so one script runs unchanged
    /// against the calendar queue and the heap oracle.
    trait Queue {
        fn push(&mut self, time: SimTime, payload: u32);
        fn pop(&mut self) -> Option<ScheduledEvent<u32>>;
        fn peek_time(&mut self) -> Option<SimTime>;
        fn len(&self) -> usize;
        fn clear(&mut self);
        fn stats(&self) -> QueueStats;
    }

    macro_rules! impl_queue {
        ($queue:ident) => {
            impl Queue for $queue<u32> {
                fn push(&mut self, time: SimTime, payload: u32) {
                    $queue::push(self, time, payload)
                }
                fn pop(&mut self) -> Option<ScheduledEvent<u32>> {
                    $queue::pop(self)
                }
                fn peek_time(&mut self) -> Option<SimTime> {
                    $queue::peek_time(self)
                }
                fn len(&self) -> usize {
                    $queue::len(self)
                }
                fn clear(&mut self) {
                    $queue::clear(self)
                }
                fn stats(&self) -> QueueStats {
                    $queue::stats(self)
                }
            }
        };
    }

    impl_queue!(CalendarQueue);
    impl_queue!(HeapEventQueue);

    /// Runs `script` on a calendar queue and on the heap oracle, asserts
    /// both observed the same thing, and returns it.
    fn both<R: PartialEq + std::fmt::Debug>(script: impl Fn(&mut dyn Queue) -> R) -> R {
        let calendar = script(&mut CalendarQueue::new());
        let heap = script(&mut HeapEventQueue::new());
        assert_eq!(
            calendar, heap,
            "calendar queue diverged from the heap oracle"
        );
        calendar
    }

    fn drain(queue: &mut dyn Queue) -> Vec<u32> {
        std::iter::from_fn(|| queue.pop().map(|e| e.payload)).collect()
    }

    #[test]
    fn orders_by_time() {
        let order = both(|queue| {
            queue.push(SimTime::from_secs(10), 10);
            queue.push(SimTime::from_secs(5), 5);
            queue.push(SimTime::from_secs(7), 7);
            drain(queue)
        });
        assert_eq!(order, vec![5, 7, 10]);
    }

    #[test]
    fn ties_broken_fifo() {
        let order = both(|queue| {
            for i in 0..100u32 {
                queue.push(SimTime::from_secs(1), i);
            }
            drain(queue)
        });
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let observed = both(|queue| {
            let empty = (queue.len(), queue.peek_time());
            queue.push(SimTime::from_secs(2), 0);
            queue.push(SimTime::from_secs(1), 0);
            let filled = (queue.len(), queue.peek_time());
            queue.clear();
            (empty, filled, queue.len())
        });
        assert_eq!(observed, ((0, None), (2, Some(SimTime::from_secs(1))), 0));
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let (first, second) = both(|queue| {
            queue.push(SimTime::ZERO, 0);
            queue.push(SimTime::ZERO, 1);
            let first = queue.pop().expect("event").sequence;
            (first, queue.pop().expect("event").sequence)
        });
        assert!(first < second);
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut queue: CalendarQueue<&str> = CalendarQueue::new();
        // One wheel revolution is ~17.2 s; one hour is far beyond it.
        queue.push(SimTime::from_secs(3600), "late");
        queue.push(SimTime::from_secs(1), "early");
        assert_eq!(queue.stats().overflow_pushes, 1);
        assert_eq!(queue.pop().map(|e| e.payload), Some("early"));
        assert_eq!(queue.pop().map(|e| e.payload), Some("late"));
        assert!(queue.is_empty());
    }

    #[test]
    fn overflow_events_interleave_correctly_with_wheel_events() {
        // Regression shape: an event pushed far in the future (overflow)
        // must not be overtaken by a *later-timed* event that enters the
        // wheel once the cursor has advanced near it.
        let mut queue: CalendarQueue<&str> = CalendarQueue::new();
        queue.push(SimTime::from_secs(100), "first"); // overflow at push
        queue.push(SimTime::from_secs(1), "warmup");
        assert_eq!(queue.pop().map(|e| e.payload), Some("warmup"));
        // Cursor sits at ~1 s; 101 s is still beyond one revolution from
        // there, 100 s has been migrated or will be — either way order must
        // hold.
        queue.push(SimTime::from_secs(101), "second");
        assert_eq!(queue.pop().map(|e| e.payload), Some("first"));
        assert_eq!(queue.pop().map(|e| e.payload), Some("second"));
    }

    #[test]
    fn multi_lap_buckets_deliver_in_time_order() {
        // Two events in the same wheel slot but different laps: the wheel
        // span is BUCKET_COUNT << BUCKET_BITS nanos, so `t` and
        // `t + span` share a slot.
        let span = (BUCKET_COUNT as u64) << BUCKET_BITS;
        let mut queue: CalendarQueue<&str> = CalendarQueue::new();
        queue.push(SimTime::from_nanos(5 << BUCKET_BITS), "lap0");
        // Same slot, one lap later — lands in overflow first, then migrates
        // into the same bucket as the cursor approaches.
        queue.push(SimTime::from_nanos((5 << BUCKET_BITS) + span), "lap1");
        assert_eq!(queue.pop().map(|e| e.payload), Some("lap0"));
        assert_eq!(queue.pop().map(|e| e.payload), Some("lap1"));
        assert!(queue.is_empty());
    }

    #[test]
    fn same_instant_follow_up_pushed_mid_drain_keeps_fifo_order() {
        // A handler scheduling at the instant being drained (zero-latency
        // delivery) must see its event fire after the already-queued
        // same-instant events — FIFO by sequence.
        let mut queue: CalendarQueue<u32> = CalendarQueue::new();
        let t = SimTime::from_secs(2);
        queue.push(t, 0);
        queue.push(t, 1);
        assert_eq!(queue.pop().map(|e| e.payload), Some(0));
        queue.push(t, 2); // lands in the active drain
        assert_eq!(queue.pop().map(|e| e.payload), Some(1));
        assert_eq!(queue.pop().map(|e| e.payload), Some(2));
    }

    #[test]
    fn push_before_cursor_still_delivers_first() {
        // The raw queue is a general priority queue: after draining to 10 s
        // a push at 1 s must still come out before one at 20 s.
        let order = both(|queue| {
            queue.push(SimTime::from_secs(10), 10);
            let first = queue.pop().map(|e| e.payload);
            queue.push(SimTime::from_secs(20), 20);
            queue.push(SimTime::from_secs(1), 1);
            (first, drain(queue))
        });
        assert_eq!(order, (Some(10), vec![1, 20]));
    }

    #[test]
    fn clear_recycles_but_keeps_sequencing() {
        let event = both(|queue| {
            queue.push(SimTime::from_secs(1), 1);
            queue.push(SimTime::from_secs(3600), 2);
            queue.clear();
            assert_eq!(queue.len(), 0);
            assert_eq!(queue.pop(), None);
            queue.push(SimTime::from_secs(2), 3);
            queue.pop()
        })
        .expect("event");
        assert_eq!(event.payload, 3);
        // Sequence numbers survive the clear (monotonic FIFO tie-break
        // across the whole queue lifetime).
        assert_eq!(event.sequence, 2);
    }

    #[test]
    fn stats_track_pushes_pops_and_high_water() {
        // Bucket geometry and overflow counts are calendar-specific; the
        // traffic counters must agree with the oracle.
        let (pushes, pops, max_pending, pending) = both(|queue| {
            for i in 0..10u32 {
                queue.push(SimTime::from_secs(u64::from(i)), i);
            }
            for _ in 0..4 {
                queue.pop();
            }
            let stats = queue.stats();
            (stats.pushes, stats.pops, stats.max_pending, queue.len())
        });
        assert_eq!((pushes, pops, max_pending), (10, 4, 10));
        assert_eq!(pushes - pops, pending as u64);
    }

    #[test]
    fn dense_burst_interleaving_matches_heap_order() {
        // A miniature deterministic version of the property test: bursty
        // same-instant pushes interleaved with pops, checked against the
        // heap oracle event by event.
        let mut calendar: CalendarQueue<u32> = CalendarQueue::new();
        let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
        let times: Vec<u64> = (0..400)
            .map(|i: u64| (i * 7919) % 97 * 250_000_000) // bursty, 0..24.25 s
            .collect();
        for (round, &nanos) in times.iter().enumerate() {
            let time = SimTime::from_nanos(nanos);
            let payload = u32::try_from(round).expect("small test index");
            calendar.push(time, payload);
            heap.push(time, payload);
            if round % 3 == 0 {
                let a = calendar.pop();
                let b = heap.pop();
                assert_eq!(a, b);
            }
        }
        loop {
            let a = calendar.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
