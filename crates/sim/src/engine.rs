//! Discrete-event simulation engine.

use crate::event::{EventQueue, QueueStats, ScheduledEvent};
use crate::time::SimTime;

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
/// use erasmus_sim::{Engine, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Event { Measure, Collect }
///
/// let mut engine = Engine::new();
/// engine.schedule_at(SimTime::from_secs(60), Event::Collect);
/// engine.schedule_at(SimTime::from_secs(10), Event::Measure);
/// let mut first = None;
/// engine.run_with(&mut first, |_, first, event| {
///     *first = Some((event.time, event.payload));
///     false // stop after one event
/// });
/// assert_eq!(first, Some((SimTime::from_secs(10), Event::Measure)));
/// ```
#[derive(Debug)]
pub struct Engine<T> {
    queue: EventQueue<T>,
    now: SimTime,
}

impl<T> Engine<T> {
    /// Creates an engine with an empty event queue at time zero.
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// Lifetime counters of the underlying event queue.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
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

    /// Delivers the next event, advancing the clock to its timestamp.
    fn next_event(&mut self) -> Option<ScheduledEvent<T>> {
        let event = self.queue.pop()?;
        self.now = event.time;
        Some(event)
    }

    /// Delivers the next event only if it fires at or before `horizon`.
    ///
    /// Events after the horizon stay queued; the clock advances to the
    /// horizon when it returns `None`, so nothing can be scheduled before
    /// it afterwards.
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
    /// # Example
    ///
    /// ```
    /// use erasmus_sim::{Engine, SimDuration, SimTime};
    ///
    /// let mut engine = Engine::new();
    /// engine.schedule_at(SimTime::from_secs(1), 0u32);
    /// let mut log = Vec::new();
    /// engine.run_with(&mut log, |engine, log, event| {
    ///     log.push(event.payload);
    ///     if event.payload < 3 {
    ///         engine.schedule_at(event.time + SimDuration::from_secs(1), event.payload + 1);
    ///     }
    ///     true
    /// });
    /// assert_eq!(log, vec![0, 1, 2, 3]);
    /// ```
    pub fn run_with<C, F>(&mut self, ctx: &mut C, mut handler: F)
    where
        F: FnMut(&mut Self, &mut C, ScheduledEvent<T>) -> bool,
    {
        while let Some(event) = self.next_event() {
            if !handler(self, ctx, event) {
                break;
            }
        }
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
    use crate::time::SimDuration;

    /// Events still queued: every push not yet popped.
    fn pending<T>(engine: &Engine<T>) -> u64 {
        let stats = engine.queue_stats();
        stats.pushes - stats.pops
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

    #[test]
    fn horizon_bounded_delivery() {
        let mut engine = Engine::new();
        engine.schedule_at(SimTime::from_secs(1), "a");
        engine.schedule_at(SimTime::from_secs(100), "b");
        assert!(engine.next_event_before(SimTime::from_secs(10)).is_some());
        assert!(engine.next_event_before(SimTime::from_secs(10)).is_none());
        // Clock advanced to the horizon, event "b" still pending.
        assert_eq!(engine.now, SimTime::from_secs(10));
        assert_eq!(pending(&engine), 1);
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
        engine.run_with(&mut counters, |engine, counters, event| {
            counters.fired += 1;
            if event.payload < 2 {
                counters.rescheduled += 1;
                engine.schedule_at(event.time + SimDuration::from_secs(1), event.payload + 1);
            }
            true
        });
        assert_eq!(counters.fired, 3);
        assert_eq!(counters.rescheduled, 2);
        assert_eq!(engine.now, SimTime::from_secs(3));
    }

    #[test]
    fn run_with_can_stop_early() {
        let mut engine = Engine::new();
        for i in 0..5u32 {
            engine.schedule_at(SimTime::from_secs(i as u64 + 1), i);
        }
        let mut seen = Vec::new();
        engine.run_with(&mut seen, |_, seen, event| {
            seen.push(event.payload);
            event.payload < 2
        });
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(pending(&engine), 2);
    }
}
