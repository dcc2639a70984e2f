//! Simulated time: instants and durations with nanosecond resolution.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, measured in nanoseconds since the start of the
/// simulation (device boot).
///
/// The paper's RROC (reliable read-only clock) exposes exactly this kind of
/// monotonically increasing counter; `erasmus-hw`'s `Rroc` is a thin wrapper
/// over a `SimTime`.
///
/// # Example
///
/// ```
/// use erasmus_sim::{SimDuration, SimTime};
///
/// let boot = SimTime::ZERO;
/// let later = boot + SimDuration::from_secs(10);
/// assert_eq!(later.duration_since(boot), SimDuration::from_secs(10));
/// assert!(later > boot);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    nanos: u64,
}

impl SimTime {
    /// The start of the simulation (device boot).
    pub const ZERO: SimTime = SimTime { nanos: 0 };

    /// Creates a time from nanoseconds since boot.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self { nanos }
    }

    /// Creates a time from microseconds since boot.
    pub const fn from_micros(micros: u64) -> Self {
        Self {
            nanos: micros * 1_000,
        }
    }

    /// Creates a time from milliseconds since boot.
    pub const fn from_millis(millis: u64) -> Self {
        Self {
            nanos: millis * 1_000_000,
        }
    }

    /// Creates a time from whole seconds since boot.
    pub const fn from_secs(secs: u64) -> Self {
        Self {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Nanoseconds since boot.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Seconds since boot as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulated clocks never run
    /// backwards, so this indicates a logic error in the caller.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            self.nanos >= earlier.nanos,
            "duration_since called with a later time ({} < {})",
            self.nanos,
            earlier.nanos
        );
        SimDuration::from_nanos(self.nanos - earlier.nanos)
    }

    /// Duration since `earlier`, or [`SimDuration::ZERO`] if `earlier` is in
    /// the future.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }

    /// Adds a duration, saturating at the maximum representable time.
    pub fn saturating_add(self, duration: SimDuration) -> SimTime {
        SimTime::from_nanos(self.nanos.saturating_add(duration.as_nanos()))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime::from_nanos(self.nanos + rhs.nanos)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.nanos += rhs.nanos;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime::from_nanos(self.nanos - rhs.nanos)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

/// A span of simulated time.
///
/// # Example
///
/// ```
/// use erasmus_sim::SimDuration;
///
/// let tm = SimDuration::from_secs(60);
/// assert_eq!(tm / 2, SimDuration::from_secs(30));
/// assert_eq!(tm * 3, SimDuration::from_secs(180));
/// assert_eq!(tm.as_millis_f64(), 60_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    nanos: u64,
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration { nanos: 0 };

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self { nanos }
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Self {
            nanos: micros * 1_000,
        }
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Self {
            nanos: millis * 1_000_000,
        }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Self {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        Self {
            nanos: (secs * 1e9).round() as u64,
        }
    }

    /// Duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Duration in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Whether the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.nanos == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_nanos(self.nanos.saturating_sub(rhs.nanos))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.nanos <= other.nanos {
            self
        } else {
            other
        }
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.nanos >= other.nanos {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos < 1_000 {
            write!(f, "{}ns", self.nanos)
        } else if self.nanos < 1_000_000 {
            write!(f, "{:.3}us", self.nanos as f64 / 1e3)
        } else if self.nanos < 1_000_000_000 {
            write!(f, "{:.3}ms", self.nanos as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_nanos(self.nanos + rhs.nanos)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.nanos += rhs.nanos;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::from_nanos(self.nanos - rhs.nanos)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.nanos -= rhs.nanos;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration::from_nanos(self.nanos * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration::from_nanos(self.nanos / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(2), SimTime::from_nanos(2_000_000_000));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let start = SimTime::from_secs(10);
        let later = start + SimDuration::from_millis(2500);
        assert_eq!(later.duration_since(start), SimDuration::from_millis(2500));
        assert_eq!(later - start, SimDuration::from_millis(2500));
        assert_eq!(later - SimDuration::from_millis(2500), start);
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(
            late.saturating_duration_since(early),
            SimDuration::from_secs(4)
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(3)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_future_panics() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn scalar_operations() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d * 3, SimDuration::from_secs(30));
        assert_eq!(d / 4, SimDuration::from_millis(2500));
        assert_eq!(d * 0.5, SimDuration::from_secs(5));
        assert_eq!(d.min(SimDuration::from_secs(3)), SimDuration::from_secs(3));
        assert_eq!(d.max(SimDuration::from_secs(3)), d);
    }

    #[test]
    fn float_seconds_roundtrip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d, SimDuration::from_millis(1500));
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((d.as_millis_f64() - 1500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_seconds_panics() {
        let _ = SimDuration::from_secs_f64(-0.5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "t=1.000000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
        assert!(!SimDuration::from_secs(1).is_zero());
        assert!(SimDuration::ZERO.is_zero());
    }
}
