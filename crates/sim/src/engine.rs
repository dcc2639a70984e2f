//! Discrete-event simulation engine.

use crate::event::{EventQueue, QueueStats, ScheduledEvent};
use crate::time::{SimDuration, SimTime};

/// A single-clock discrete-event engine.
///
/// The engine owns an [`EventQueue`] and the current time. Pulling the
/// next event advances the clock to that event's timestamp, which is the
/// standard discrete-event semantics: nothing happens between events.
///
/// `erasmus-core`'s `Scenario` runner uses this engine to interleave
/// self-measurements, collections and malware arrivals/departures on one
/// timeline, and every `erasmus-bench` fleet shard runs its slice of the
/// fleet on one.
///
/// # Example
///
/// ```
/// use erasmus_sim::{Engine, SimDuration};
///
/// #[derive(Debug, PartialEq)]
/// enum Event { Measure, Collect }
///
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::from_secs(10), Event::Measure);
/// engine.schedule_in(SimDuration::from_secs(60), Event::Collect);
/// let first = engine.next_event().expect("an event is pending");
/// assert_eq!(first.payload, Event::Measure);
/// assert_eq!(engine.now().as_secs_f64(), 10.0);
/// ```
#[derive(Debug)]
pub struct Engine<T> {
    queue: EventQueue<T>,
    now: SimTime,
    processed: u64,
}

impl<T> Engine<T> {
    /// Creates an engine with an empty event queue at time zero.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Lifetime counters of the underlying event queue.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Current simulated time (the timestamp of the last delivered event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
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
        self.queue.push(time, payload);
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, payload: T) {
        self.queue.push(self.now + delay, payload);
    }

    /// Delivers the next event, advancing the clock to its timestamp.
    pub fn next_event(&mut self) -> Option<ScheduledEvent<T>> {
        let event = self.queue.pop()?;
        self.now = event.time;
        self.processed += 1;
        Some(event)
    }

    /// Delivers the next event only if it fires at or before `horizon`.
    ///
    /// Events after the horizon stay queued; the clock advances to the
    /// horizon when it returns `None` so subsequent `schedule_in` calls are
    /// relative to the horizon.
    pub fn next_event_before(&mut self, horizon: SimTime) -> Option<ScheduledEvent<T>> {
        match self.queue.peek_time() {
            Some(t) if t <= horizon => self.next_event(),
            _ => {
                if horizon > self.now {
                    self.now = horizon;
                }
                None
            }
        }
    }

    /// Runs `handler` on every event, threading a mutable context through
    /// every invocation, until the queue is empty or `handler` returns
    /// `false`.
    ///
    /// This is the event-loop entry point for simulation drivers: the
    /// handler can both schedule follow-up events on the engine *and* mutate
    /// the simulation state (`ctx`) without fighting the borrow checker,
    /// which a closure capturing state from the engine's owner cannot do.
    ///
    /// Returns the number of events delivered by this call.
    ///
    /// # Example
    ///
    /// ```
    /// use erasmus_sim::{Engine, SimDuration};
    ///
    /// let mut engine = Engine::new();
    /// engine.schedule_in(SimDuration::from_secs(1), 0u32);
    /// let mut log = Vec::new();
    /// engine.run_with(&mut log, |engine, log, event| {
    ///     log.push(event.payload);
    ///     if event.payload < 3 {
    ///         engine.schedule_in(SimDuration::from_secs(1), event.payload + 1);
    ///     }
    ///     true
    /// });
    /// assert_eq!(log, vec![0, 1, 2, 3]);
    /// ```
    pub fn run_with<C, F>(&mut self, ctx: &mut C, mut handler: F) -> u64
    where
        F: FnMut(&mut Self, &mut C, ScheduledEvent<T>) -> bool,
    {
        let start = self.processed;
        while let Some(event) = self.next_event() {
            if !handler(self, ctx, event) {
                break;
            }
        }
        self.processed - start
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

    #[test]
    fn delivers_in_time_order_and_advances_clock() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(3), "late");
        engine.schedule_at(SimTime::from_secs(1), "early");
        let first = engine.next_event().expect("first");
        assert_eq!(first.payload, "early");
        assert_eq!(engine.now(), SimTime::from_secs(1));
        let second = engine.next_event().expect("second");
        assert_eq!(second.payload, "late");
        assert_eq!(engine.now(), SimTime::from_secs(3));
        assert!(engine.next_event().is_none());
        assert_eq!(engine.processed(), 2);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut engine: Engine<u8> = Engine::new();
        engine.schedule_at(SimTime::from_secs(10), 1);
        engine.next_event();
        engine.schedule_in(SimDuration::from_secs(5), 2);
        let e = engine.next_event().expect("event");
        assert_eq!(e.time, SimTime::from_secs(15));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(10), ());
        engine.next_event();
        engine.schedule_at(SimTime::from_secs(5), ());
    }

    #[test]
    fn horizon_bounded_delivery() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(1), "a");
        engine.schedule_at(SimTime::from_secs(100), "b");
        assert!(engine.next_event_before(SimTime::from_secs(10)).is_some());
        assert!(engine.next_event_before(SimTime::from_secs(10)).is_none());
        // Clock advanced to the horizon, event "b" still pending.
        assert_eq!(engine.now(), SimTime::from_secs(10));
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn run_with_threads_context_through_handlers() {
        struct Counters {
            fired: u64,
            rescheduled: u64,
        }
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(1), 0u32);
        let mut counters = Counters {
            fired: 0,
            rescheduled: 0,
        };
        let delivered = engine.run_with(&mut counters, |engine, counters, event| {
            counters.fired += 1;
            if event.payload < 2 {
                counters.rescheduled += 1;
                engine.schedule_in(SimDuration::from_secs(1), event.payload + 1);
            }
            true
        });
        assert_eq!(delivered, 3);
        assert_eq!(counters.fired, 3);
        assert_eq!(counters.rescheduled, 2);
        assert_eq!(engine.now(), SimTime::from_secs(3));
    }

    #[test]
    fn run_with_can_stop_early() {
        let mut engine = Engine::new();
        for i in 0..5u32 {
            engine.schedule_at(SimTime::from_secs(i as u64 + 1), i);
        }
        let mut seen = Vec::new();
        let delivered = engine.run_with(&mut seen, |_, seen, event| {
            seen.push(event.payload);
            event.payload < 2
        });
        assert_eq!(delivered, 3);
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(engine.pending(), 2);
    }
}
