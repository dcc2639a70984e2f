//! Reliable Read-Only Clock (RROC).
//!
//! SMART+ requires a clock that software cannot modify; the paper realizes
//! it as a 64-bit register incremented every cycle with its write-enable
//! wire removed (Section 4.1). HYDRA builds the same property in software
//! from the i.MX6 General Purpose Timer, with the attestation process owning
//! the wrap-around handler (Section 4.2); the simulation models the result,
//! a 64-bit nanosecond count, not the wraps. ERASMUS relies on the RROC so
//! that malware cannot influence *when* measurements are taken or back-date
//! them (Section 3.4).

use erasmus_sim::{SimDuration, SimTime};

/// A monotonically increasing, software-immutable clock.
///
/// The public API only allows reading the clock and advancing it by elapsed
/// simulated time (which models the passage of real time, not a software
/// write). The only way to move it backwards is
/// [`Rroc::physical_rollback`], which models a *physical* attack outside the
/// paper's threat model and exists so that negative tests can demonstrate
/// what the RROC requirement protects against.
///
/// # Example
///
/// ```
/// use erasmus_hw::Rroc;
/// use erasmus_sim::SimDuration;
///
/// let mut rroc = Rroc::new();
/// rroc.advance(SimDuration::from_secs(5));
/// assert_eq!(rroc.now().as_secs_f64(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rroc {
    now: SimTime,
}

impl Rroc {
    /// Creates a clock reading zero (device boot).
    pub fn new() -> Self {
        Self { now: SimTime::ZERO }
    }

    /// Creates a clock starting at an arbitrary instant (e.g. a device that
    /// has been running for a while before the scenario starts).
    pub fn starting_at(start: SimTime) -> Self {
        Self { now: start }
    }

    /// Current clock value.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by `elapsed` real time.
    ///
    /// This models time passing, not a software write: there is no API to
    /// set the clock to an arbitrary value.
    pub fn advance(&mut self, elapsed: SimDuration) -> SimTime {
        self.now += elapsed;
        self.now
    }

    /// Advances the clock to `target` if it is in the future; does nothing
    /// otherwise. Returns the (possibly unchanged) clock value.
    pub fn advance_to(&mut self, target: SimTime) -> SimTime {
        if target > self.now {
            let delta = target.duration_since(self.now);
            self.advance(delta);
        }
        self.now
    }

    /// Models a **physical** clock-rollback attack.
    ///
    /// The paper's threat model excludes physical attacks; Section 3.4
    /// explains the measurement-discard/replay attack that becomes possible
    /// if the clock *could* be rolled back. This method exists solely so that
    /// tests and the security-analysis benches can demonstrate that attack;
    /// production code never calls it.
    pub fn physical_rollback(&mut self, to: SimTime) {
        self.now = to;
    }
}

impl Default for Rroc {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut rroc = Rroc::new();
        assert_eq!(rroc.now(), SimTime::ZERO);
        rroc.advance(SimDuration::from_secs(3));
        rroc.advance(SimDuration::from_millis(500));
        assert_eq!(rroc.now(), SimTime::from_millis(3500));
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut rroc = Rroc::starting_at(SimTime::from_secs(100));
        rroc.advance_to(SimTime::from_secs(50));
        assert_eq!(rroc.now(), SimTime::from_secs(100));
        rroc.advance_to(SimTime::from_secs(150));
        assert_eq!(rroc.now(), SimTime::from_secs(150));
    }

    #[test]
    fn physical_rollback_is_possible_but_explicit() {
        let mut rroc = Rroc::starting_at(SimTime::from_secs(1000));
        rroc.physical_rollback(SimTime::from_secs(10));
        assert_eq!(rroc.now(), SimTime::from_secs(10));
    }
}
