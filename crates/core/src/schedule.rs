//! Measurement scheduling: regular, irregular (CSPRNG-driven) and lenient.
//!
//! * **Regular** — a measurement every `T_M`, the paper's baseline.
//! * **Irregular** (Section 3.5) — the next interval is drawn from a CSPRNG
//!   seeded with the device key and mapped into `[L, U)`, so schedule-aware
//!   mobile malware cannot predict when the next measurement fires.
//! * **Lenient** (Section 5) — measurements nominally fire every `T_M`, but a
//!   time-critical task may defer an individual measurement to the end of a
//!   window of `w × T_M`.

use std::fmt;

use erasmus_crypto::HmacDrbg;
use erasmus_sim::{SimDuration, SimTime};

/// Which scheduling policy a prover uses.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleKind {
    /// Fixed interval `T_M`.
    Regular,
    /// CSPRNG-driven interval bounded to `[lower, upper)` (Section 3.5).
    Irregular {
        /// Lower bound `L` on the interval.
        lower: SimDuration,
        /// Upper bound `U` on the interval (exclusive).
        upper: SimDuration,
    },
    /// Regular cadence with a deferral window of `window_factor × T_M`
    /// (Section 5). `window_factor ≥ 1`.
    Lenient {
        /// The factor `w`.
        window_factor: f64,
    },
}

impl fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleKind::Regular => f.write_str("regular"),
            ScheduleKind::Irregular { lower, upper } => {
                write!(f, "irregular [{lower}, {upper})")
            }
            ScheduleKind::Lenient { window_factor } => write!(f, "lenient (w = {window_factor})"),
        }
    }
}

/// Stateful scheduler deciding when the prover self-measures.
///
/// Only an irregular schedule holds a CSPRNG ([`HmacDrbg`], seeded with the
/// device key), in a box of its own. Regular and lenient schedules never
/// draw from one, so they are built without it and carry only an empty
/// pointer.
///
/// # Example
///
/// ```
/// use erasmus_core::{MeasurementScheduler, ScheduleKind};
/// use erasmus_sim::{SimDuration, SimTime};
///
/// let mut scheduler = MeasurementScheduler::new(
///     ScheduleKind::Regular,
///     SimDuration::from_secs(10),
///     &[0u8; 32],
///     SimDuration::ZERO,
/// );
/// assert_eq!(scheduler.next_due(), SimTime::from_secs(10));
/// scheduler.mark_completed(SimTime::from_secs(10));
/// assert_eq!(scheduler.next_due(), SimTime::from_secs(20));
/// ```
#[derive(Debug, Clone)]
pub struct MeasurementScheduler {
    kind: ScheduleKind,
    interval: SimDuration,
    /// Phase offset within `T_M`: every due time is shifted by this amount,
    /// so a fleet can stagger its devices' measurement instants (Section 6
    /// availability — see `erasmus_swarm::StaggeredSchedule`).
    phase: SimDuration,
    /// The CSPRNG behind irregular intervals, seeded with the device key.
    /// Only irregular schedules draw from it, so only they carry one, boxed
    /// so that every other schedule stays small.
    drbg: Option<Box<HmacDrbg>>,
    next_due: SimTime,
    /// Nominal due time of the pending measurement (lenient schedules only);
    /// deferral may push `next_due` past it, up to
    /// `nominal_due + (w − 1)·T_M`.
    nominal_due: SimTime,
    deferrals: u64,
}

impl MeasurementScheduler {
    /// Creates a scheduler whose due times are all shifted by `phase` within
    /// `T_M`: the first regular measurement fires at `T_M + phase` and every
    /// subsequent one `T_M` later, so devices with distinct phases never
    /// measure at the same simulated instant.
    ///
    /// `key` seeds the CSPRNG used by irregular schedules (the paper seeds it
    /// with the device key so the timer values are unpredictable to malware);
    /// regular and lenient schedules ignore it and build no CSPRNG.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero, if `phase >= interval` (a phase of a
    /// full interval or more would skip measurement windows instead of
    /// staggering them), if an irregular schedule has `lower >= upper`, or
    /// if a lenient schedule has `window_factor < 1`. Use
    /// [`crate::ProverConfig`] for error-returning validation.
    pub fn new(kind: ScheduleKind, interval: SimDuration, key: &[u8], phase: SimDuration) -> Self {
        assert!(!interval.is_zero(), "measurement interval must be non-zero");
        assert!(phase < interval, "phase offset must lie within T_M");
        if let ScheduleKind::Irregular { lower, upper } = &kind {
            assert!(lower < upper, "irregular schedule requires lower < upper");
            assert!(!lower.is_zero(), "irregular lower bound must be non-zero");
        }
        if let ScheduleKind::Lenient { window_factor } = &kind {
            assert!(*window_factor >= 1.0, "lenient window factor must be >= 1");
        }
        // The first due time: `T_M` for regular and lenient schedules, the
        // DRBG's first draw for irregular ones.
        let (drbg, first) = match &kind {
            ScheduleKind::Irregular { lower, upper } => {
                let mut drbg = HmacDrbg::new(key, b"erasmus-irregular-schedule");
                let nanos = drbg.next_in_range(lower.as_nanos(), upper.as_nanos());
                (Some(Box::new(drbg)), SimDuration::from_nanos(nanos))
            }
            ScheduleKind::Regular | ScheduleKind::Lenient { .. } => (None, interval),
        };
        let next_due = SimTime::ZERO + first + phase;
        Self {
            kind,
            interval,
            phase,
            drbg,
            next_due,
            nominal_due: next_due,
            deferrals: 0,
        }
    }

    /// The scheduling policy.
    pub fn kind(&self) -> &ScheduleKind {
        &self.kind
    }

    /// The nominal measurement interval `T_M`.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The phase offset within `T_M`.
    pub fn phase(&self) -> SimDuration {
        self.phase
    }

    /// When the next measurement is due.
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    /// Number of deferrals granted (lenient schedules only).
    pub fn deferrals(&self) -> u64 {
        self.deferrals
    }

    /// Records that the measurement due at (or before) `now` has completed
    /// and computes the next due time.
    pub fn mark_completed(&mut self, now: SimTime) {
        self.advance_past(now);
    }

    /// Fast-forwards the schedule past `now` *without* recording any
    /// completion: the measurements that were due meanwhile simply never
    /// happened (the device was powered off or absent from the network).
    ///
    /// Regular and lenient schedules stay phase-aligned — the next due time
    /// is the first `phase + k·T_M` (nominal window for lenient) strictly
    /// after `now`. Irregular schedules draw a fresh interval from `now`,
    /// exactly as [`MeasurementScheduler::mark_completed`] would.
    pub fn skip_until(&mut self, now: SimTime) {
        if self.next_due > now {
            return;
        }
        self.advance_past(now);
    }

    /// Moves `next_due` past `now`: the step shared by completing a
    /// measurement and skipping missed ones.
    fn advance_past(&mut self, now: SimTime) {
        match (&self.kind, &mut self.drbg) {
            (ScheduleKind::Irregular { lower, upper }, Some(drbg)) => {
                // T_next = map(CSPRNG_K(t_i)) with map(x) = x mod (U − L) + L.
                drbg.reseed(&now.as_nanos().to_be_bytes());
                let nanos = drbg.next_in_range(lower.as_nanos(), upper.as_nanos());
                self.next_due = now + SimDuration::from_nanos(nanos);
            }
            (ScheduleKind::Lenient { .. }, _) => {
                // The next nominal measurement is at the next multiple of
                // T_M past the phase offset.
                let origin = SimTime::ZERO + self.phase;
                let since_origin = now.saturating_duration_since(origin);
                let periods = since_origin.as_nanos() / self.interval.as_nanos() + 1;
                self.nominal_due =
                    origin + SimDuration::from_nanos(periods * self.interval.as_nanos());
                self.next_due = self.nominal_due;
            }
            // Regular. An irregular schedule always carries its DRBG (the
            // constructor pairs them), so it never reaches this arm.
            _ => {
                self.next_due += self.interval;
                // If the prover fell behind (e.g. it was busy), skip forward
                // so the next due time is in the future of `now`.
                while self.next_due <= now {
                    self.next_due += self.interval;
                }
            }
        }
    }

    /// Defers the pending measurement because the device is busy with a
    /// time-critical task (Section 5).
    ///
    /// For lenient schedules the measurement nominally due at `D` may slide
    /// to the end of its window, `D + (w − 1) × T_M`. Returns the new due
    /// time, or `None` if the schedule does not permit deferral (regular and
    /// irregular schedules, `w = 1`, or the window already exhausted).
    pub fn defer(&mut self, now: SimTime) -> Option<SimTime> {
        match &self.kind {
            ScheduleKind::Lenient { window_factor } => {
                let slack =
                    SimDuration::from_secs_f64(self.interval.as_secs_f64() * (window_factor - 1.0));
                let window_end = self.nominal_due + slack;
                if self.next_due < window_end && now < window_end {
                    self.deferrals += 1;
                    self.next_due = window_end;
                    Some(self.next_due)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 32] = [3u8; 32];
    const TM: SimDuration = SimDuration::from_secs(10);

    #[test]
    fn regular_schedule_fires_every_interval() {
        let mut s = MeasurementScheduler::new(ScheduleKind::Regular, TM, &KEY, SimDuration::ZERO);
        assert_eq!(s.next_due(), SimTime::from_secs(10));
        s.mark_completed(SimTime::from_secs(10));
        assert_eq!(s.next_due(), SimTime::from_secs(20));
        s.mark_completed(SimTime::from_secs(20));
        assert_eq!(s.next_due(), SimTime::from_secs(30));
    }

    #[test]
    fn phase_offset_staggers_regular_schedule() {
        let phase = SimDuration::from_secs(3);
        let mut s = MeasurementScheduler::new(ScheduleKind::Regular, TM, &KEY, phase);
        assert_eq!(s.phase(), phase);
        assert_eq!(s.next_due(), SimTime::from_secs(13));
        s.mark_completed(SimTime::from_secs(13));
        assert_eq!(s.next_due(), SimTime::from_secs(23));
        // The catch-up path stays phase-aligned.
        s.mark_completed(SimTime::from_secs(47));
        assert_eq!(s.next_due(), SimTime::from_secs(53));
    }

    #[test]
    fn phase_offset_staggers_lenient_schedule() {
        let phase = SimDuration::from_secs(4);
        let mut s = MeasurementScheduler::new(
            ScheduleKind::Lenient { window_factor: 2.0 },
            TM,
            &KEY,
            phase,
        );
        assert_eq!(s.next_due(), SimTime::from_secs(14));
        s.mark_completed(SimTime::from_secs(14));
        assert_eq!(s.next_due(), SimTime::from_secs(24));
        let deferred = s.defer(SimTime::from_secs(24)).expect("deferral granted");
        assert_eq!(deferred, SimTime::from_secs(34));
    }

    #[test]
    #[should_panic(expected = "phase offset must lie within T_M")]
    fn phase_of_a_full_interval_panics() {
        let _ = MeasurementScheduler::new(ScheduleKind::Regular, TM, &KEY, TM);
    }

    #[test]
    fn regular_schedule_catches_up_after_stall() {
        let mut s = MeasurementScheduler::new(ScheduleKind::Regular, TM, &KEY, SimDuration::ZERO);
        // Prover was busy and only completes the measurement at t = 47 s.
        s.mark_completed(SimTime::from_secs(47));
        assert_eq!(s.next_due(), SimTime::from_secs(50));
    }

    #[test]
    fn irregular_schedule_respects_bounds_and_is_key_dependent() {
        let lower = SimDuration::from_secs(5);
        let upper = SimDuration::from_secs(15);
        let kind = ScheduleKind::Irregular { lower, upper };
        let mut a = MeasurementScheduler::new(kind.clone(), TM, &KEY, SimDuration::ZERO);
        let mut b = MeasurementScheduler::new(kind.clone(), TM, &KEY, SimDuration::ZERO);
        let mut c = MeasurementScheduler::new(kind, TM, &[7u8; 32], SimDuration::ZERO);

        let mut now = SimTime::ZERO;
        let mut a_intervals = Vec::new();
        let mut c_intervals = Vec::new();
        for _ in 0..50 {
            let due_a = a.next_due();
            let due_b = b.next_due();
            let due_c = c.next_due();
            // Same key → same unpredictable schedule; different key → (almost
            // surely) different schedule.
            assert_eq!(due_a, due_b);
            let gap = due_a.saturating_duration_since(now);
            assert!(gap >= lower && gap < upper, "gap {gap} outside bounds");
            a_intervals.push(due_a);
            c_intervals.push(due_c);
            now = due_a;
            a.mark_completed(due_a);
            b.mark_completed(due_b);
            c.mark_completed(due_c);
        }
        assert_ne!(a_intervals, c_intervals);
    }

    #[test]
    fn irregular_stream_is_pinned() {
        // The initial draw, then completions with one skip in the middle. A
        // change here moves every irregular device's measurement instants.
        const PINNED: [u64; 8] = [
            9_020_324_976,
            15_844_696_799,
            27_779_132_997,
            37_017_075_150,
            87_799_731_625,
            96_888_050_972,
            107_327_516_746,
            119_200_489_825,
        ];
        let kind = ScheduleKind::Irregular {
            lower: SimDuration::from_secs(5),
            upper: SimDuration::from_secs(15),
        };
        let mut s =
            MeasurementScheduler::new(kind, TM, &[0x5a; 32], SimDuration::from_millis(1500));
        let step = |s: &mut MeasurementScheduler, index: usize| {
            if index == 3 {
                let at = s.next_due() + SimDuration::from_secs(40);
                s.skip_until(at);
            } else {
                let due = s.next_due();
                s.mark_completed(due);
            }
            s.next_due().as_nanos()
        };
        let mut dues = vec![s.next_due().as_nanos()];
        let mut fork = None;
        for index in 0..7 {
            if index == 2 {
                fork = Some((s.clone(), dues.clone()));
            }
            dues.push(step(&mut s, index));
        }
        assert_eq!(dues, PINNED);
        let (mut clone, mut cloned_dues) = fork.expect("forked mid-stream");
        for index in 2..7 {
            cloned_dues.push(step(&mut clone, index));
        }
        assert_eq!(cloned_dues, PINNED);
    }

    #[test]
    fn irregular_intervals_vary() {
        let kind = ScheduleKind::Irregular {
            lower: SimDuration::from_secs(5),
            upper: SimDuration::from_secs(15),
        };
        let mut s = MeasurementScheduler::new(kind, TM, &KEY, SimDuration::ZERO);
        let mut gaps = Vec::new();
        let mut prev = SimTime::ZERO;
        for _ in 0..20 {
            let due = s.next_due();
            gaps.push(due.saturating_duration_since(prev));
            prev = due;
            s.mark_completed(due);
        }
        let first = gaps[0];
        assert!(
            gaps.iter().any(|g| *g != first),
            "intervals never varied: {gaps:?}"
        );
    }

    #[test]
    fn lenient_schedule_defers_to_window_end() {
        let mut s = MeasurementScheduler::new(
            ScheduleKind::Lenient { window_factor: 3.0 },
            TM,
            &KEY,
            SimDuration::ZERO,
        );
        assert_eq!(s.next_due(), SimTime::from_secs(10));
        // The device is busy at t = 10; defer to the end of the 3×T_M window.
        let deferred = s.defer(SimTime::from_secs(10)).expect("deferral granted");
        assert_eq!(deferred, SimTime::from_secs(30));
        assert_eq!(s.deferrals(), 1);
        // Window exhausted: no further deferral.
        assert!(s.defer(SimTime::from_secs(30)).is_none());
        // Completing at the deferred time starts the next nominal window.
        s.mark_completed(SimTime::from_secs(30));
        assert_eq!(s.next_due(), SimTime::from_secs(40));
    }

    #[test]
    fn skip_until_fast_forwards_without_completions() {
        let phase = SimDuration::from_secs(3);
        let mut s = MeasurementScheduler::new(ScheduleKind::Regular, TM, &KEY, phase);
        assert_eq!(s.next_due(), SimTime::from_secs(13));
        // Device offline until t = 47: due times 13/23/33/43 never happened.
        s.skip_until(SimTime::from_secs(47));
        assert_eq!(s.next_due(), SimTime::from_secs(53));
        // A skip into the past (or to now before the due time) is a no-op.
        s.skip_until(SimTime::from_secs(10));
        assert_eq!(s.next_due(), SimTime::from_secs(53));
    }

    #[test]
    fn skip_until_keeps_lenient_windows_phase_aligned() {
        let phase = SimDuration::from_secs(4);
        let mut s = MeasurementScheduler::new(
            ScheduleKind::Lenient { window_factor: 2.0 },
            TM,
            &KEY,
            phase,
        );
        s.skip_until(SimTime::from_secs(31));
        assert_eq!(s.next_due(), SimTime::from_secs(34));
        // The post-skip window defers like any other nominal window.
        let deferred = s.defer(SimTime::from_secs(34)).expect("deferral granted");
        assert_eq!(deferred, SimTime::from_secs(44));
    }

    #[test]
    fn skip_until_redraws_irregular_intervals_in_bounds() {
        let lower = SimDuration::from_secs(5);
        let upper = SimDuration::from_secs(15);
        let mut s = MeasurementScheduler::new(
            ScheduleKind::Irregular { lower, upper },
            TM,
            &KEY,
            SimDuration::ZERO,
        );
        s.skip_until(SimTime::from_secs(100));
        let gap = s
            .next_due()
            .saturating_duration_since(SimTime::from_secs(100));
        assert!(gap >= lower && gap < upper, "gap {gap} outside bounds");
    }

    #[test]
    fn regular_and_irregular_do_not_defer() {
        let mut regular =
            MeasurementScheduler::new(ScheduleKind::Regular, TM, &KEY, SimDuration::ZERO);
        assert!(regular.defer(SimTime::from_secs(1)).is_none());
        let mut irregular = MeasurementScheduler::new(
            ScheduleKind::Irregular {
                lower: SimDuration::from_secs(1),
                upper: SimDuration::from_secs(2),
            },
            TM,
            &KEY,
            SimDuration::ZERO,
        );
        assert!(irregular.defer(SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn display_formats() {
        assert_eq!(ScheduleKind::Regular.to_string(), "regular");
        assert!(ScheduleKind::Lenient { window_factor: 2.0 }
            .to_string()
            .contains("w = 2"));
        let irregular = ScheduleKind::Irregular {
            lower: SimDuration::from_secs(1),
            upper: SimDuration::from_secs(2),
        };
        assert!(irregular.to_string().contains("irregular"));
    }

    #[test]
    #[should_panic(expected = "lower < upper")]
    fn invalid_irregular_bounds_panic() {
        let _ = MeasurementScheduler::new(
            ScheduleKind::Irregular {
                lower: SimDuration::from_secs(5),
                upper: SimDuration::from_secs(5),
            },
            TM,
            &KEY,
            SimDuration::ZERO,
        );
    }

    #[test]
    #[should_panic(expected = "window factor")]
    fn invalid_window_factor_panics() {
        let _ = MeasurementScheduler::new(
            ScheduleKind::Lenient { window_factor: 0.5 },
            TM,
            &KEY,
            SimDuration::ZERO,
        );
    }
}
