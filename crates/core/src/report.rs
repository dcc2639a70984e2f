//! Verification reports and attestation verdicts.

use std::fmt;

use erasmus_sim::{SimDuration, SimTime};

use crate::ids::DeviceId;
use crate::measurement::Measurement;

/// Verdict about a single collected measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeasurementVerdict {
    /// The MAC verifies and the memory digest matches the known-good
    /// reference (or no reference is configured).
    Healthy,
    /// The MAC verifies but the memory digest differs from the known-good
    /// reference: the device was running unexpected software at that time.
    Compromised,
    /// The MAC does not verify: the stored measurement was forged or
    /// corrupted — direct evidence of tampering.
    Forged,
}

impl MeasurementVerdict {
    /// The verdict's one-byte tag: 0 healthy, 1 compromised, 2 forged. It
    /// orders verdicts by how alarming they are (the history's "keep the
    /// worst verdict" rule), and it is the verdict byte of both the history
    /// hash chain and the hub snapshot codec, which restores a snapshot only
    /// if its tags refold to the stored head digest.
    pub(crate) fn tag(self) -> u8 {
        match self {
            MeasurementVerdict::Healthy => 0,
            MeasurementVerdict::Compromised => 1,
            MeasurementVerdict::Forged => 2,
        }
    }

    /// The verdict a [`MeasurementVerdict::tag`] byte stands for, or `None`
    /// for a byte no verdict writes.
    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(MeasurementVerdict::Healthy),
            1 => Some(MeasurementVerdict::Compromised),
            2 => Some(MeasurementVerdict::Forged),
            _ => None,
        }
    }
}

impl fmt::Display for MeasurementVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            MeasurementVerdict::Healthy => "healthy",
            MeasurementVerdict::Compromised => "compromised",
            MeasurementVerdict::Forged => "forged",
        };
        f.write_str(text)
    }
}

/// A collected measurement together with its verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedMeasurement {
    /// The measurement as received.
    pub measurement: Measurement,
    /// What the verifier concluded about it.
    pub verdict: MeasurementVerdict,
}

/// Overall verdict of one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttestationVerdict {
    /// Every expected measurement is present, authentic and healthy.
    AllHealthy,
    /// At least one authentic measurement shows unexpected software.
    CompromiseDetected,
    /// Measurements are missing, forged or out of order — something with
    /// write access to the store interfered (Section 3.2: tampering is
    /// self-incriminating).
    TamperingDetected,
}

impl AttestationVerdict {
    /// Whether this verdict should trigger corrective action.
    pub fn indicates_compromise(self) -> bool {
        !matches!(self, AttestationVerdict::AllHealthy)
    }
}

impl fmt::Display for AttestationVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            AttestationVerdict::AllHealthy => "all healthy",
            AttestationVerdict::CompromiseDetected => "compromise detected",
            AttestationVerdict::TamperingDetected => "tampering detected",
        };
        f.write_str(text)
    }
}

/// The verifier's conclusion after one collection phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionReport {
    device: DeviceId,
    verified: Vec<VerifiedMeasurement>,
    verdict: AttestationVerdict,
    missing: usize,
    freshness: SimDuration,
    collected_at: SimTime,
}

impl CollectionReport {
    /// Builds a report (used by [`crate::Verifier`]).
    pub(crate) fn new(
        device: DeviceId,
        verified: Vec<VerifiedMeasurement>,
        verdict: AttestationVerdict,
        missing: usize,
        freshness: SimDuration,
        collected_at: SimTime,
    ) -> Self {
        Self {
            device,
            verified,
            verdict,
            missing,
            freshness,
            collected_at,
        }
    }

    /// Which device this report is about.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The verified measurements, newest first.
    pub fn measurements(&self) -> &[VerifiedMeasurement] {
        &self.verified
    }

    /// Overall verdict.
    pub fn verdict(&self) -> AttestationVerdict {
        self.verdict
    }

    /// Convenience: `true` when the verdict is [`AttestationVerdict::AllHealthy`].
    pub fn all_valid(&self) -> bool {
        self.verdict == AttestationVerdict::AllHealthy
    }

    /// Number of measurements the verifier expected but did not receive.
    pub fn missing(&self) -> usize {
        self.missing
    }

    /// Freshness `f` of the newest measurement: how old it was at collection
    /// time. The paper expects `f ≈ T_M / 2` on average for ERASMUS and
    /// `f = 0` for on-demand attestation.
    pub fn freshness(&self) -> SimDuration {
        self.freshness
    }

    /// When the collection was verified.
    pub fn collected_at(&self) -> SimTime {
        self.collected_at
    }

    /// Iterator over measurements with a given verdict.
    pub fn with_verdict(
        &self,
        verdict: MeasurementVerdict,
    ) -> impl Iterator<Item = &VerifiedMeasurement> {
        self.verified.iter().filter(move |vm| vm.verdict == verdict)
    }
}

impl fmt::Display for CollectionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({} measurements, {} missing, freshness {})",
            self.device,
            self.verdict,
            self.verified.len(),
            self.missing,
            self.freshness
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasmus_crypto::{Digest, MacAlgorithm, Sha256};

    fn sample_measurement(secs: u64) -> Measurement {
        Measurement::from_digest_keyed(
            &MacAlgorithm::HmacSha256.with_key(&[1u8; 32]),
            SimTime::from_secs(secs),
            Sha256::digest(b"m"),
        )
    }

    fn sample_report(verdict: AttestationVerdict) -> CollectionReport {
        CollectionReport::new(
            DeviceId::new(3),
            vec![
                VerifiedMeasurement {
                    measurement: sample_measurement(20),
                    verdict: MeasurementVerdict::Healthy,
                },
                VerifiedMeasurement {
                    measurement: sample_measurement(10),
                    verdict: MeasurementVerdict::Compromised,
                },
            ],
            verdict,
            1,
            SimDuration::from_secs(5),
            SimTime::from_secs(25),
        )
    }

    #[test]
    fn accessors() {
        let report = sample_report(AttestationVerdict::CompromiseDetected);
        assert_eq!(report.device(), DeviceId::new(3));
        assert_eq!(report.measurements().len(), 2);
        assert_eq!(report.missing(), 1);
        assert_eq!(report.freshness(), SimDuration::from_secs(5));
        assert_eq!(report.collected_at(), SimTime::from_secs(25));
        assert!(!report.all_valid());
        assert_eq!(report.with_verdict(MeasurementVerdict::Healthy).count(), 1);
        assert_eq!(report.with_verdict(MeasurementVerdict::Forged).count(), 0);
    }

    #[test]
    fn verdict_semantics() {
        assert!(!AttestationVerdict::AllHealthy.indicates_compromise());
        assert!(AttestationVerdict::CompromiseDetected.indicates_compromise());
        assert!(AttestationVerdict::TamperingDetected.indicates_compromise());
        assert!(sample_report(AttestationVerdict::AllHealthy).all_valid());
    }

    #[test]
    fn display_formats() {
        assert_eq!(MeasurementVerdict::Forged.to_string(), "forged");
        assert_eq!(
            AttestationVerdict::TamperingDetected.to_string(),
            "tampering detected"
        );
        let text = sample_report(AttestationVerdict::CompromiseDetected).to_string();
        assert!(text.contains("device-3"));
        assert!(text.contains("compromise detected"));
        assert!(text.contains("2 measurements"));
    }
}
