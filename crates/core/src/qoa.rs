//! Quality of Attestation (QoA), Section 3.1.
//!
//! QoA is determined by two parameters: `T_M`, the time between successive
//! self-measurements, and `T_C`, the time between successive collections by
//! the verifier. ERASMUS de-couples them; on-demand attestation conflates
//! them (`T_M = T_C`, measurements only exist when collected).
//!
//! This module provides the analytical side of the paper's QoA discussion:
//! expected freshness, detection probability of mobile malware as a function
//! of its dwell time, detection latency, and the buffer-sizing rule
//! `T_C ≤ n · T_M`. The Monte-Carlo counterpart lives in
//! [`crate::scenario`], and `repro qoa` compares the two.

use erasmus_sim::SimDuration;

use crate::error::Error;

/// The QoA parameters of a deployment.
///
/// # Example
///
/// ```
/// use erasmus_core::QoaParams;
/// use erasmus_sim::SimDuration;
///
/// # fn main() -> Result<(), erasmus_core::Error> {
/// let qoa = QoaParams::new(SimDuration::from_secs(60), SimDuration::from_secs(600))?;
/// assert_eq!(qoa.recommended_history(), 10);         // k = ⌈T_C / T_M⌉
/// assert_eq!(qoa.expected_freshness(), SimDuration::from_secs(30)); // T_M / 2
/// // Mobile malware dwelling for 30 s is caught with probability 0.5.
/// assert!((qoa.mobile_detection_probability(SimDuration::from_secs(30)) - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QoaParams {
    measurement_interval: SimDuration,
    collection_interval: SimDuration,
}

impl QoaParams {
    /// Creates QoA parameters from `T_M` and `T_C`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if either interval is zero.
    pub fn new(
        measurement_interval: SimDuration,
        collection_interval: SimDuration,
    ) -> Result<Self, Error> {
        if measurement_interval.is_zero() {
            return Err(Error::InvalidConfig {
                parameter: "measurement_interval",
                reason: "T_M must be non-zero".to_owned(),
            });
        }
        if collection_interval.is_zero() {
            return Err(Error::InvalidConfig {
                parameter: "collection_interval",
                reason: "T_C must be non-zero".to_owned(),
            });
        }
        Ok(Self {
            measurement_interval,
            collection_interval,
        })
    }

    /// `T_M`: time between successive self-measurements.
    pub fn measurement_interval(&self) -> SimDuration {
        self.measurement_interval
    }

    /// `T_C`: time between successive collections.
    pub fn collection_interval(&self) -> SimDuration {
        self.collection_interval
    }

    /// The number of measurements a verifier should fetch per collection so
    /// that each is collected exactly once: `k = ⌈T_C / T_M⌉` (Section 3.1).
    pub fn recommended_history(&self) -> usize {
        let tc = self.collection_interval.as_nanos();
        let tm = self.measurement_interval.as_nanos();
        (tc.div_ceil(tm)) as usize
    }

    /// The minimum buffer size `n` that guarantees no measurement is
    /// overwritten before collection: `T_C ≤ n · T_M` (Section 3.2).
    pub fn required_buffer_slots(&self) -> usize {
        self.recommended_history()
    }

    /// Worst-case freshness of the newest measurement at collection time:
    /// `f = T_M` (the measurement fired just after the previous collection
    /// window began).
    pub fn worst_case_freshness(&self) -> SimDuration {
        self.measurement_interval
    }

    /// Expected freshness under a uniformly random collection instant:
    /// `E[f] = T_M / 2` (Section 3.1).
    pub fn expected_freshness(&self) -> SimDuration {
        self.measurement_interval / 2
    }

    /// Probability that mobile malware dwelling on the prover for `dwell`
    /// time covers at least one measurement instant, assuming a regular
    /// schedule and an arrival time uniform within a `T_M` window:
    /// `P = min(1, dwell / T_M)`.
    ///
    /// This is the quantity ERASMUS improves over on-demand attestation: with
    /// on-demand RA the relevant interval is `T_C` (typically much larger),
    /// so short-lived malware escapes.
    pub fn mobile_detection_probability(&self, dwell: SimDuration) -> f64 {
        (dwell.as_secs_f64() / self.measurement_interval.as_secs_f64()).min(1.0)
    }

    /// Same probability for *on-demand* attestation with checks every `T_C`:
    /// `P = min(1, dwell / T_C)`. Used as the baseline in the QoA benches.
    pub fn on_demand_detection_probability(&self, dwell: SimDuration) -> f64 {
        (dwell.as_secs_f64() / self.collection_interval.as_secs_f64()).min(1.0)
    }

    /// Worst-case delay between an infection (that persists) and the
    /// verifier learning about it: one full measurement interval until the
    /// state is captured plus one full collection interval until it is
    /// fetched.
    pub fn worst_case_detection_delay(&self) -> SimDuration {
        self.measurement_interval + self.collection_interval
    }

    /// Whether a verifier collecting every `T_C` from a buffer of `n` slots
    /// can lose measurements (`T_C > n · T_M`).
    pub fn loses_measurements_with(&self, buffer_slots: usize) -> bool {
        self.collection_interval > self.measurement_interval * buffer_slots as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qoa(tm_secs: u64, tc_secs: u64) -> QoaParams {
        QoaParams::new(
            SimDuration::from_secs(tm_secs),
            SimDuration::from_secs(tc_secs),
        )
        .expect("valid params")
    }

    #[test]
    fn recommended_history_is_ceiling() {
        assert_eq!(qoa(60, 600).recommended_history(), 10);
        assert_eq!(qoa(60, 601).recommended_history(), 11);
        assert_eq!(qoa(60, 59).recommended_history(), 1);
        assert_eq!(qoa(60, 60).recommended_history(), 1);
    }

    #[test]
    fn freshness_bounds() {
        let q = qoa(60, 600);
        assert_eq!(q.worst_case_freshness(), SimDuration::from_secs(60));
        assert_eq!(q.expected_freshness(), SimDuration::from_secs(30));
    }

    #[test]
    fn mobile_detection_probability_scales_with_dwell() {
        let q = qoa(60, 600);
        assert_eq!(q.mobile_detection_probability(SimDuration::ZERO), 0.0);
        assert!((q.mobile_detection_probability(SimDuration::from_secs(30)) - 0.5).abs() < 1e-12);
        assert_eq!(
            q.mobile_detection_probability(SimDuration::from_secs(60)),
            1.0
        );
        assert_eq!(
            q.mobile_detection_probability(SimDuration::from_secs(3600)),
            1.0
        );
    }

    #[test]
    fn erasmus_beats_on_demand_for_short_dwell() {
        let q = qoa(60, 3600);
        let dwell = SimDuration::from_secs(45);
        let erasmus = q.mobile_detection_probability(dwell);
        let on_demand = q.on_demand_detection_probability(dwell);
        assert!(
            erasmus > on_demand * 10.0,
            "erasmus {erasmus} vs on-demand {on_demand}"
        );
    }

    #[test]
    fn detection_delay_bounds() {
        let q = qoa(60, 600);
        assert_eq!(q.worst_case_detection_delay(), SimDuration::from_secs(660));
    }

    #[test]
    fn buffer_sizing_rule() {
        let q = qoa(60, 600);
        assert_eq!(q.required_buffer_slots(), 10);
        assert!(!q.loses_measurements_with(10));
        assert!(!q.loses_measurements_with(16));
        assert!(q.loses_measurements_with(9));
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(QoaParams::new(SimDuration::ZERO, SimDuration::from_secs(1)).is_err());
        assert!(QoaParams::new(SimDuration::from_secs(1), SimDuration::ZERO).is_err());
    }

    #[test]
    fn accessors_roundtrip() {
        let q = qoa(30, 300);
        assert_eq!(q.measurement_interval(), SimDuration::from_secs(30));
        assert_eq!(q.collection_interval(), SimDuration::from_secs(300));
    }
}
