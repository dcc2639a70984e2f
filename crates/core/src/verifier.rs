//! The verifier: collects measurements and reconstructs the prover's state
//! history.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::as_conversions
)]

use erasmus_crypto::{KeyedMac, MacAlgorithm};
use erasmus_hw::DeviceKey;
use erasmus_sim::{SimDuration, SimTime};

use crate::encoding::ResponseView;
use crate::error::Error;
use crate::ids::DeviceId;
use crate::measurement::{Measurement, MemoryDigest};
use crate::protocol::{CollectionRequest, CollectionResponse, OnDemandRequest, OnDemandResponse};
use crate::report::{
    AttestationVerdict, CollectionReport, MeasurementVerdict, VerifiedMeasurement,
};

/// The (possibly untrusted-network-facing, but key-holding) verifier.
///
/// The verifier shares `K` with the prover, knows the MAC algorithm the
/// prover was provisioned with, and optionally knows:
///
/// * the **reference digest** of the prover's healthy software image — needed
///   to tell "authentic measurement of compromised software" from "authentic
///   measurement of healthy software";
/// * the **expected measurement interval** `T_M` — needed to notice that
///   measurements are *missing* (deleted by malware or lost to buffer
///   overwrites).
///
/// # Example
///
/// ```
/// use erasmus_core::{DeviceId, Prover, ProverConfig, Verifier, CollectionRequest};
/// use erasmus_crypto::MacAlgorithm;
/// use erasmus_hw::{DeviceKey, DeviceProfile};
/// use erasmus_sim::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), erasmus_core::Error> {
/// let key = DeviceKey::from_bytes([2; 32]);
/// let config = ProverConfig::builder()
///     .measurement_interval(SimDuration::from_secs(10))
///     .buffer_slots(8)
///     .build()?;
/// let mut prover = Prover::new(DeviceId::new(1), DeviceProfile::msp430_8mhz(1024), key.clone(), config)?;
/// let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
///
/// prover.run_until(SimTime::from_secs(40))?;
/// let response = prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
/// let report = verifier.verify_collection(&response, SimTime::from_secs(40))?;
/// assert!(report.all_valid());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Verifier {
    /// Precomputed key schedule shared by every measurement check: one
    /// keyed state is derived per device and reused across whole collection
    /// responses instead of re-keying per measurement. The raw key is
    /// dropped at construction; only the schedule is retained.
    keyed: KeyedMac,
    reference_digest: Option<MemoryDigest>,
    expected_interval: Option<SimDuration>,
    last_collection: Option<SimTime>,
    last_request_issued: SimTime,
}

impl Verifier {
    /// Creates a verifier holding the shared key and MAC algorithm.
    pub fn new(key: DeviceKey, alg: MacAlgorithm) -> Self {
        Self {
            keyed: alg.with_key(key.as_bytes()),
            reference_digest: None,
            expected_interval: None,
            last_collection: None,
            last_request_issued: SimTime::ZERO,
        }
    }

    /// Registers the digest of the prover's known-good software image.
    /// Measurements whose digest differs will be flagged
    /// [`MeasurementVerdict::Compromised`].
    pub fn set_reference_digest(&mut self, digest: MemoryDigest) {
        self.reference_digest = Some(digest);
    }

    /// The registered reference digest, if any.
    pub fn reference_digest(&self) -> Option<&MemoryDigest> {
        self.reference_digest.as_ref()
    }

    /// Convenience: computes and registers the reference digest from a copy
    /// of the healthy memory image.
    pub fn learn_reference_image(&mut self, image: &[u8]) {
        use erasmus_crypto::{Digest, Sha256};
        self.reference_digest = Some(Sha256::digest(image));
    }

    /// Registers the prover's measurement interval `T_M`, enabling
    /// missing-measurement (gap) detection.
    pub fn set_expected_interval(&mut self, interval: SimDuration) {
        self.expected_interval = Some(interval);
    }

    /// Timestamp of the last successful collection, if any.
    pub fn last_collection(&self) -> Option<SimTime> {
        self.last_collection
    }

    /// Builds a plain ERASMUS collection request for the latest `k`
    /// measurements. Unauthenticated by design (Section 3).
    pub fn make_collection_request(&self, k: usize) -> CollectionRequest {
        CollectionRequest::latest(k)
    }

    /// Builds an authenticated on-demand / ERASMUS+OD request at time `now`.
    ///
    /// Timestamps are forced to be strictly increasing so the prover's
    /// anti-replay check never rejects a legitimate request.
    pub fn make_on_demand_request(&mut self, k: usize, now: SimTime) -> OnDemandRequest {
        let treq = if now > self.last_request_issued {
            now
        } else {
            self.last_request_issued + SimDuration::from_nanos(1)
        };
        self.last_request_issued = treq;
        OnDemandRequest::new_keyed(&self.keyed, treq, k)
    }

    /// Number of measurements expected since the previous collection, based
    /// on the configured `T_M` (zero when unknown).
    fn expected_since_last_collection(&self, now: SimTime) -> usize {
        match (self.expected_interval, self.last_collection) {
            (Some(interval), Some(last)) => usize::try_from(
                now.saturating_duration_since(last).as_nanos() / interval.as_nanos(),
            )
            .unwrap_or(usize::MAX),
            _ => 0,
        }
    }

    /// Verifies an ERASMUS collection response (Figure 2, verifier side).
    ///
    /// Each measurement's MAC is checked in constant time; timestamps are
    /// checked for plausibility (not in the future, strictly decreasing in
    /// the newest-first response); and, if `T_M` is known, the number of
    /// measurements covering the interval since the previous collection is
    /// compared against the expected count.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoMeasurements`] if the response is empty — an empty
    /// response from a prover that should have a history is itself suspicious
    /// and is treated as missing evidence by callers.
    pub fn verify_collection(
        &mut self,
        response: &CollectionResponse,
        now: SimTime,
    ) -> Result<CollectionReport, Error> {
        self.verify_evidence(response.device, response.measurements.iter().cloned(), now)
    }

    /// Verifies one response record straight off a validated wire frame —
    /// the zero-copy half of [`crate::VerifierHub::ingest_frame`].
    ///
    /// Each record is copied once, into the report it ends up in, and its
    /// MAC is checked there. The result is bit-identical to
    /// [`Verifier::verify_collection`] over the decoded equivalent: both
    /// entry points share one verification loop.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoMeasurements`] if the record carries no
    /// measurements, exactly like the struct path.
    pub fn verify_frame_response(
        &mut self,
        response: &ResponseView<'_>,
        now: SimTime,
    ) -> Result<CollectionReport, Error> {
        let measurements = response.measurements().map(|view| view.to_measurement());
        self.verify_evidence(response.device(), measurements, now)
    }

    /// The shared verification loop behind [`Verifier::verify_collection`]
    /// and [`Verifier::verify_frame_response`]: the measurements land in
    /// the report's `Vec` first, then each gets its tag, reference-digest
    /// and timestamp checks in one pass.
    fn verify_evidence(
        &mut self,
        device: DeviceId,
        measurements: impl Iterator<Item = Measurement>,
        now: SimTime,
    ) -> Result<CollectionReport, Error> {
        let mut verified: Vec<VerifiedMeasurement> = measurements
            .map(|measurement| VerifiedMeasurement {
                measurement,
                verdict: MeasurementVerdict::Healthy,
            })
            .collect();
        if verified.is_empty() {
            return Err(Error::NoMeasurements);
        }

        let mut any_forged = false;
        let mut any_compromised = false;
        let mut out_of_order = false;
        let mut previous: Option<SimTime> = None;
        let mut newest: Option<SimTime> = None;
        for vm in &mut verified {
            let timestamp = vm.measurement.timestamp();
            if !vm.measurement.verify_keyed(&self.keyed) {
                vm.verdict = MeasurementVerdict::Forged;
            } else if self
                .reference_digest
                .as_ref()
                .is_some_and(|reference| vm.measurement.digest() != reference)
            {
                vm.verdict = MeasurementVerdict::Compromised;
            }
            // Timestamps must not lie in the verifier's future; a "future"
            // measurement can only come from a tampered store or clock.
            if timestamp > now {
                vm.verdict = MeasurementVerdict::Forged;
            }
            if previous.is_some_and(|prev| timestamp >= prev) {
                out_of_order = true;
            }
            previous = Some(timestamp);
            newest = Some(newest.map_or(timestamp, |n| n.max(timestamp)));
            match vm.verdict {
                MeasurementVerdict::Forged => any_forged = true,
                MeasurementVerdict::Compromised => any_compromised = true,
                MeasurementVerdict::Healthy => {}
            }
        }

        // Coverage check: did we receive as many measurements as the schedule
        // should have produced since the last collection?
        let expected = self.expected_since_last_collection(now);
        let usable = verified
            .iter()
            .filter(|vm| vm.verdict != MeasurementVerdict::Forged)
            .filter(|vm| match self.last_collection {
                Some(last) => vm.measurement.timestamp() > last,
                None => true,
            })
            .count();
        let missing = expected.saturating_sub(usable);

        let verdict = if any_forged || out_of_order || missing > 0 {
            AttestationVerdict::TamperingDetected
        } else if any_compromised {
            AttestationVerdict::CompromiseDetected
        } else {
            AttestationVerdict::AllHealthy
        };

        let freshness = newest
            .map(|t| now.saturating_duration_since(t))
            .unwrap_or(SimDuration::ZERO);

        self.last_collection = Some(now);
        Ok(CollectionReport::new(
            device, verified, verdict, missing, freshness, now,
        ))
    }

    /// Verifies an ERASMUS+OD response (Figure 4, verifier side): the fresh
    /// measurement `M_0` is checked first, then the history is verified like
    /// a normal collection.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidResponse`] if the fresh measurement fails MAC
    /// verification or does not match the request timing.
    pub fn verify_on_demand(
        &mut self,
        request: &OnDemandRequest,
        response: &OnDemandResponse,
        now: SimTime,
    ) -> Result<CollectionReport, Error> {
        if !response.fresh.verify_keyed(&self.keyed) {
            return Err(Error::InvalidResponse {
                reason: "fresh measurement failed MAC verification".to_owned(),
            });
        }
        if response.fresh.timestamp() < request.treq {
            return Err(Error::InvalidResponse {
                reason: "fresh measurement predates the request".to_owned(),
            });
        }

        // Verify the fresh measurement and the history exactly like a plain
        // collection, newest first.
        let measurements = std::iter::once(&response.fresh).chain(&response.history);
        self.verify_evidence(response.device, measurements.cloned(), now)
    }
}

#[cfg(test)]
#[expect(
    clippy::as_conversions,
    reason = "the reference oracle turns a nanosecond span into a slot count"
)]
mod tests {
    use super::*;
    use crate::config::ProverConfig;
    use crate::ids::DeviceId;
    use crate::prover::Prover;
    use erasmus_hw::DeviceProfile;

    const KEY_BYTES: [u8; 32] = [0x77u8; 32];

    fn setup() -> (Prover, Verifier) {
        let key = DeviceKey::from_bytes(KEY_BYTES);
        let config = ProverConfig::builder()
            .measurement_interval(SimDuration::from_secs(10))
            .buffer_slots(16)
            .build()
            .expect("valid config");
        let prover = Prover::new(
            DeviceId::new(1),
            DeviceProfile::msp430_8mhz(1024),
            key.clone(),
            config,
        )
        .expect("provisioning");
        let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
        verifier.set_expected_interval(SimDuration::from_secs(10));
        (prover, verifier)
    }

    #[test]
    fn healthy_history_verifies() {
        let (mut prover, mut verifier) = setup();
        verifier.learn_reference_image(prover.mcu().app_memory());
        prover
            .run_until(SimTime::from_secs(60))
            .expect("measurements");
        let response =
            prover.handle_collection(&CollectionRequest::latest(6), SimTime::from_secs(60));
        let report = verifier
            .verify_collection(&response, SimTime::from_secs(60))
            .expect("report");
        assert!(report.all_valid());
        assert_eq!(report.verdict(), AttestationVerdict::AllHealthy);
        assert_eq!(report.measurements().len(), 6);
        assert_eq!(report.missing(), 0);
        // The newest measurement was taken at t = 60, collected at t = 60.
        assert_eq!(report.freshness(), SimDuration::ZERO);
        assert_eq!(verifier.last_collection(), Some(SimTime::from_secs(60)));
    }

    #[test]
    fn compromised_memory_is_detected() {
        let (mut prover, mut verifier) = setup();
        verifier.learn_reference_image(prover.mcu().app_memory());
        prover
            .run_until(SimTime::from_secs(20))
            .expect("measurements");
        prover
            .mcu_mut()
            .write_app_memory(0, b"persistent malware")
            .expect("infection");
        prover
            .run_until(SimTime::from_secs(40))
            .expect("measurements");
        let response =
            prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
        let report = verifier
            .verify_collection(&response, SimTime::from_secs(40))
            .expect("report");
        assert_eq!(report.verdict(), AttestationVerdict::CompromiseDetected);
        assert_eq!(
            report.with_verdict(MeasurementVerdict::Compromised).count(),
            2
        );
        assert_eq!(report.with_verdict(MeasurementVerdict::Healthy).count(), 2);
    }

    #[test]
    fn forged_measurement_is_detected() {
        let (mut prover, mut verifier) = setup();
        prover
            .run_until(SimTime::from_secs(40))
            .expect("measurements");
        // Malware replaces a stored measurement with garbage.
        let forged = Measurement::from_parts(
            SimTime::from_secs(30),
            [0u8; 32],
            erasmus_crypto::MacTag::new(vec![0u8; 32]),
        );
        let slot = prover.buffer().slot_for(SimTime::from_secs(30));
        prover.buffer_mut().tamper_replace(slot, forged);
        let response =
            prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
        let report = verifier
            .verify_collection(&response, SimTime::from_secs(40))
            .expect("report");
        assert_eq!(report.verdict(), AttestationVerdict::TamperingDetected);
        assert_eq!(report.with_verdict(MeasurementVerdict::Forged).count(), 1);
    }

    #[test]
    fn deleted_measurements_show_up_as_missing() {
        let (mut prover, mut verifier) = setup();
        verifier.learn_reference_image(prover.mcu().app_memory());
        // First collection establishes a baseline.
        prover
            .run_until(SimTime::from_secs(20))
            .expect("measurements");
        let response =
            prover.handle_collection(&CollectionRequest::latest(16), SimTime::from_secs(20));
        verifier
            .verify_collection(&response, SimTime::from_secs(20))
            .expect("baseline");

        // Malware deletes everything recorded afterwards.
        prover
            .run_until(SimTime::from_secs(60))
            .expect("measurements");
        prover.buffer_mut().tamper_clear();
        let response =
            prover.handle_collection(&CollectionRequest::latest(16), SimTime::from_secs(60));
        match verifier.verify_collection(&response, SimTime::from_secs(60)) {
            // Either the buffer is completely empty (NoMeasurements)…
            Err(Error::NoMeasurements) => {}
            // …or the report flags the gap.
            Ok(report) => assert_eq!(report.verdict(), AttestationVerdict::TamperingDetected),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn partial_deletion_is_detected_as_gap() {
        let (mut prover, mut verifier) = setup();
        verifier.learn_reference_image(prover.mcu().app_memory());
        prover
            .run_until(SimTime::from_secs(20))
            .expect("measurements");
        let response =
            prover.handle_collection(&CollectionRequest::latest(16), SimTime::from_secs(20));
        verifier
            .verify_collection(&response, SimTime::from_secs(20))
            .expect("baseline");

        prover
            .run_until(SimTime::from_secs(60))
            .expect("measurements");
        // Delete two of the four new measurements (t = 30 and t = 40).
        for secs in [30u64, 40] {
            let slot = prover.buffer().slot_for(SimTime::from_secs(secs));
            assert!(prover.buffer_mut().tamper_delete(slot));
        }
        let response =
            prover.handle_collection(&CollectionRequest::latest(16), SimTime::from_secs(60));
        let report = verifier
            .verify_collection(&response, SimTime::from_secs(60))
            .expect("report");
        assert_eq!(report.verdict(), AttestationVerdict::TamperingDetected);
        assert_eq!(report.missing(), 2);
    }

    #[test]
    fn empty_response_is_an_error() {
        let (_, mut verifier) = setup();
        let response = CollectionResponse {
            device: DeviceId::new(1),
            measurements: Vec::new(),
            prover_time: SimDuration::ZERO,
        };
        assert!(matches!(
            verifier.verify_collection(&response, SimTime::from_secs(10)),
            Err(Error::NoMeasurements)
        ));
    }

    #[test]
    fn future_timestamps_are_flagged() {
        let (mut prover, mut verifier) = setup();
        prover
            .run_until(SimTime::from_secs(20))
            .expect("measurements");
        let response =
            prover.handle_collection(&CollectionRequest::latest(2), SimTime::from_secs(20));
        // Verify "in the past": the measurements' timestamps are now in the future.
        let report = verifier
            .verify_collection(&response, SimTime::from_secs(5))
            .expect("report");
        assert_eq!(report.verdict(), AttestationVerdict::TamperingDetected);
    }

    #[test]
    fn on_demand_roundtrip_and_freshness() {
        let (mut prover, mut verifier) = setup();
        verifier.learn_reference_image(prover.mcu().app_memory());
        prover
            .run_until(SimTime::from_secs(35))
            .expect("measurements");
        let request = verifier.make_on_demand_request(2, SimTime::from_secs(36));
        let response = prover
            .handle_on_demand(&request, SimTime::from_secs(36))
            .expect("response");
        let report = verifier
            .verify_on_demand(&request, &response, SimTime::from_secs(36))
            .expect("report");
        assert!(report.all_valid());
        // Maximal freshness: the fresh measurement was taken at collection time.
        assert_eq!(report.freshness(), SimDuration::ZERO);
        assert_eq!(report.measurements().len(), 3);
    }

    #[test]
    fn on_demand_response_with_forged_fresh_measurement_rejected() {
        let (mut prover, mut verifier) = setup();
        prover
            .run_until(SimTime::from_secs(35))
            .expect("measurements");
        let request = verifier.make_on_demand_request(1, SimTime::from_secs(36));
        let mut response = prover
            .handle_on_demand(&request, SimTime::from_secs(36))
            .expect("response");
        response.fresh = Measurement::from_parts(
            response.fresh.timestamp(),
            [0u8; 32],
            erasmus_crypto::MacTag::new(vec![0u8; 32]),
        );
        assert!(matches!(
            verifier.verify_on_demand(&request, &response, SimTime::from_secs(36)),
            Err(Error::InvalidResponse { .. })
        ));
    }

    #[test]
    fn frame_path_matches_struct_path() {
        use crate::encoding::{encode_collection_batch, FrameView};

        let (mut prover, mut struct_verifier) = setup();
        struct_verifier.learn_reference_image(prover.mcu().app_memory());
        let mut frame_verifier = struct_verifier.clone();
        prover
            .run_until(SimTime::from_secs(60))
            .expect("measurements");
        let response =
            prover.handle_collection(&CollectionRequest::latest(6), SimTime::from_secs(60));

        let bytes = encode_collection_batch(std::slice::from_ref(&response));
        let frame = FrameView::parse(&bytes).expect("valid frame");
        let view = frame.responses().next().expect("one response");

        let struct_report = struct_verifier
            .verify_collection(&response, SimTime::from_secs(60))
            .expect("struct path verifies");
        let frame_report = frame_verifier
            .verify_frame_response(&view, SimTime::from_secs(60))
            .expect("frame path verifies");
        assert_eq!(struct_report, frame_report);
        assert_eq!(
            struct_verifier.last_collection(),
            frame_verifier.last_collection()
        );
    }

    /// One tampered measurement, placed at every position of a response by
    /// `verification_matches_a_per_measurement_oracle`.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        ForgedTag,
        FlippedDigest,
        NonReference,
        Future,
    }

    /// The report `verifier` must produce for `response` at `now`,
    /// recomputed one measurement at a time through
    /// `Measurement::verify_keyed`.
    fn oracle_report(
        verifier: &Verifier,
        response: &CollectionResponse,
        now: SimTime,
    ) -> CollectionReport {
        let measurements = &response.measurements;
        let verified: Vec<VerifiedMeasurement> = measurements
            .iter()
            .map(|m| {
                let verdict = if !m.verify_keyed(&verifier.keyed) || m.timestamp() > now {
                    MeasurementVerdict::Forged
                } else if Some(*m.digest()) != verifier.reference_digest {
                    MeasurementVerdict::Compromised
                } else {
                    MeasurementVerdict::Healthy
                };
                VerifiedMeasurement {
                    measurement: m.clone(),
                    verdict,
                }
            })
            .collect();
        let last = verifier.last_collection.expect("a previous collection");
        let interval = verifier.expected_interval.expect("a known T_M");
        let expected =
            (now.saturating_duration_since(last).as_nanos() / interval.as_nanos()) as usize;
        let usable = verified
            .iter()
            .filter(|vm| vm.verdict != MeasurementVerdict::Forged)
            .filter(|vm| vm.measurement.timestamp() > last)
            .count();
        let missing = expected.saturating_sub(usable);
        let out_of_order = measurements
            .windows(2)
            .any(|pair| pair[1].timestamp() >= pair[0].timestamp());
        let has = |verdict| verified.iter().any(|vm| vm.verdict == verdict);
        let verdict = if has(MeasurementVerdict::Forged) || out_of_order || missing > 0 {
            AttestationVerdict::TamperingDetected
        } else if has(MeasurementVerdict::Compromised) {
            AttestationVerdict::CompromiseDetected
        } else {
            AttestationVerdict::AllHealthy
        };
        let newest = measurements
            .iter()
            .map(Measurement::timestamp)
            .max()
            .expect("non-empty response");
        let freshness = now.saturating_duration_since(newest);
        CollectionReport::new(response.device, verified, verdict, missing, freshness, now)
    }

    #[test]
    fn verification_matches_a_per_measurement_oracle() {
        use crate::encoding::{encode_collection_batch, FrameView};
        use erasmus_crypto::{Digest, MacTag, Sha256};

        let device = DeviceId::new(1);
        let reference = Sha256::digest(b"healthy image");
        let implant = Sha256::digest(b"implanted image");
        let faults = [
            Fault::ForgedTag,
            Fault::FlippedDigest,
            Fault::NonReference,
            Fault::Future,
        ];
        for alg in MacAlgorithm::ALL {
            let keyed = alg.with_key(&KEY_BYTES);
            let mut verifier = Verifier::new(DeviceKey::from_bytes(KEY_BYTES), alg);
            verifier.set_reference_digest(reference);
            verifier.set_expected_interval(SimDuration::from_secs(10));
            verifier.last_collection = Some(SimTime::ZERO);
            // Every response length from 1 to 20, with each fault at
            // every position.
            for len in 1..=20u64 {
                let now = SimTime::from_secs(10 * len + 3);
                // Newest first: t = 10·len s down to 10 s.
                let honest: Vec<Measurement> = (0..len)
                    .map(|i| {
                        let at = SimTime::from_secs(10 * (len - i));
                        Measurement::from_digest_keyed(&keyed, at, reference)
                    })
                    .collect();
                for (position, target) in honest.iter().enumerate() {
                    for fault in faults {
                        let tampered = match fault {
                            Fault::ForgedTag => {
                                let mut tag = target.tag().as_bytes().to_vec();
                                tag[0] ^= 0x01;
                                Measurement::from_parts(
                                    target.timestamp(),
                                    *target.digest(),
                                    MacTag::new(tag),
                                )
                            }
                            Fault::FlippedDigest => {
                                let mut digest = *target.digest();
                                digest[0] ^= 0x01;
                                Measurement::from_parts(target.timestamp(), digest, *target.tag())
                            }
                            Fault::NonReference => {
                                Measurement::from_digest_keyed(&keyed, target.timestamp(), implant)
                            }
                            Fault::Future => Measurement::from_digest_keyed(
                                &keyed,
                                now + SimDuration::from_secs(1),
                                reference,
                            ),
                        };
                        let mut measurements = honest.clone();
                        measurements[position] = tampered;
                        let response = CollectionResponse {
                            device,
                            measurements,
                            prover_time: SimDuration::ZERO,
                        };
                        let expected = oracle_report(&verifier, &response, now);
                        let case = format!("{alg}, {len} measurements, {fault:?} at {position}");

                        let mut struct_verifier = verifier.clone();
                        let report = struct_verifier
                            .verify_collection(&response, now)
                            .expect("non-empty response");
                        assert_eq!(report, expected, "struct path: {case}");
                        assert_eq!(struct_verifier.last_collection(), Some(now), "{case}");

                        let bytes = encode_collection_batch(std::slice::from_ref(&response));
                        let frame = FrameView::parse(&bytes).expect("valid frame");
                        let view = frame.responses().next().expect("one response");
                        let mut frame_verifier = verifier.clone();
                        let report = frame_verifier
                            .verify_frame_response(&view, now)
                            .expect("non-empty response");
                        assert_eq!(report, expected, "frame path: {case}");
                        assert_eq!(frame_verifier.last_collection(), Some(now), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_frame_response_is_an_error() {
        use crate::encoding::{encode_collection_batch, FrameView};

        let (_, mut verifier) = setup();
        let response = CollectionResponse {
            device: DeviceId::new(1),
            measurements: Vec::new(),
            prover_time: SimDuration::ZERO,
        };
        let bytes = encode_collection_batch(std::slice::from_ref(&response));
        let frame = FrameView::parse(&bytes).expect("valid frame");
        let view = frame.responses().next().expect("one response");
        assert!(matches!(
            verifier.verify_frame_response(&view, SimTime::from_secs(10)),
            Err(Error::NoMeasurements)
        ));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_verifier_fits_in_160_bytes() {
        use std::mem::size_of;
        let verifier = size_of::<Verifier>();
        assert!(
            verifier <= 160,
            "a Verifier grew to {verifier} bytes (bound 160): KeyedMac {} B, \
             Option<MemoryDigest> {} B, Option<SimDuration> {} B, Option<SimTime> {} B; \
             keep only the key's chaining states and what differs per device",
            size_of::<KeyedMac>(),
            size_of::<Option<MemoryDigest>>(),
            size_of::<Option<SimDuration>>(),
            size_of::<Option<SimTime>>(),
        );
    }

    #[test]
    fn request_timestamps_are_strictly_increasing() {
        let (_, mut verifier) = setup();
        let first = verifier.make_on_demand_request(1, SimTime::from_secs(10));
        let second = verifier.make_on_demand_request(1, SimTime::from_secs(10));
        assert!(second.treq > first.treq);
    }
}
