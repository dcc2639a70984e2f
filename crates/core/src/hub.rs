//! Verifier-side history hub: per-device timelines for a whole fleet.
//!
//! A single [`crate::DeviceHistory`] reconstructs one device's state
//! timeline; an operator of an unattended swarm (Section 6) runs collections
//! against *thousands* of devices. [`VerifierHub`] is the map in front of
//! those histories: every [`CollectionReport`] produced during a run is
//! routed to the history of the device it is about, so the paper's "entire
//! history" property holds fleet-wide — and cross-device mixups are caught
//! instead of silently corrupting a neighbour's timeline.
//!
//! Hubs are cheap to create per worker/shard and can be [`merged`] back into
//! one fleet-wide view, which is how the parallel fleet harness in
//! `erasmus-bench` combines its shards.
//!
//! [`merged`]: VerifierHub::merge

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::as_conversions
)]

use std::collections::{BTreeMap, BTreeSet};

use crate::encoding::{DecodeError, FrameView, ResponseView};
use crate::history::{DeviceHistory, HistoryMode};
use crate::ids::DeviceId;
use crate::report::CollectionReport;

/// How far the per-flow dedup window trails the highest sequence seen.
/// Retransmissions and duplicated deliveries always carry the sequence of a
/// recent transmission, so anything older than this is stale by construction
/// and treated as a duplicate.
pub const DEDUP_WINDOW: u64 = 1024;

/// Per-flow receive window backing the hub's exactly-once accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FlowWindow {
    /// Sequences below this are stale: already accepted and pruned, or so
    /// old that accepting them could double-count.
    pub(crate) floor: u64,
    /// Sequences at or above `floor` already accepted.
    pub(crate) seen: BTreeSet<u64>,
}

impl FlowWindow {
    /// Records `sequence` if it is fresh; returns whether it was.
    fn note(&mut self, sequence: u64) -> bool {
        if sequence < self.floor || self.seen.contains(&sequence) {
            return false;
        }
        self.seen.insert(sequence);
        let horizon = sequence.saturating_sub(DEDUP_WINDOW);
        if horizon > self.floor {
            self.floor = horizon;
            self.seen = self.seen.split_off(&self.floor);
        }
        true
    }
}

/// Per-frame accounting returned by [`VerifierHub::ingest_frame`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameIngest {
    /// Response records the frame carried.
    pub responses: u64,
    /// Reports folded into a device history.
    pub accepted: u64,
    /// Reports rejected by the per-device device-ID cross-check.
    pub rejected: u64,
    /// Response records the verify callback refused to turn into a report
    /// (failed MAC-level verification, unknown device, empty record, …).
    pub verify_failed: u64,
    /// Size of the decoded frame in bytes, including the count header.
    pub bytes: u64,
}

/// Per-device [`DeviceHistory`] map covering a fleet.
///
/// # Example
///
/// ```
/// use erasmus_core::{DeviceId, VerifierHub};
///
/// let hub = VerifierHub::new();
/// assert!(hub.is_empty());
/// assert!(hub.history(DeviceId::new(1)).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifierHub {
    pub(crate) histories: BTreeMap<DeviceId, DeviceHistory>,
    /// Ring capacity every history this hub creates is born with.
    pub(crate) capacity: usize,
    pub(crate) ingested: u64,
    pub(crate) rejected: u64,
    /// Sequenced frames rejected as duplicates by the dedup window.
    pub(crate) duplicates: u64,
    /// Per-flow receive windows for [`VerifierHub::ingest_sequenced_frame`].
    pub(crate) dedup: BTreeMap<u64, FlowWindow>,
}

impl Default for VerifierHub {
    fn default() -> Self {
        Self::with_history(HistoryMode::default())
    }
}

impl VerifierHub {
    /// Creates an empty hub whose device histories hold up to
    /// [`crate::DEFAULT_RING_CAPACITY`] resident entries each.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty hub whose device histories follow `mode`, capping
    /// per-device verifier state at O(capacity) regardless of fleet
    /// lifetime. The capacity is clamped exactly as
    /// [`DeviceHistory::with_mode`] clamps it, so the hub's capacity always
    /// equals its histories'.
    pub fn with_history(mode: HistoryMode) -> Self {
        Self {
            histories: BTreeMap::new(),
            capacity: mode.capacity(),
            ingested: 0,
            rejected: 0,
            duplicates: 0,
            dedup: BTreeMap::new(),
        }
    }

    /// The ring capacity histories created by this hub use.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The history of `device`, created empty on first contact.
    fn history_mut(&mut self, device: DeviceId) -> &mut DeviceHistory {
        let mode = HistoryMode::Ring(self.capacity);
        self.histories
            .entry(device)
            .or_insert_with(|| DeviceHistory::with_mode(device, mode))
    }

    /// Ensures a (possibly empty) history exists for `device`, so that a
    /// fleet roster is visible even before its first collection.
    pub fn register(&mut self, device: DeviceId) {
        self.history_mut(device);
    }

    /// Routes a collection report to the history of the device it is about,
    /// creating that history on first contact. Every verified frame record
    /// folds in through here too, one report at a time.
    ///
    /// Returns `false` if the per-device history rejected the report (the
    /// [`DeviceHistory::ingest`] device-ID cross-check failed — impossible
    /// through this path unless the map was tampered with, but counted in
    /// [`VerifierHub::rejected`] as a defence-in-depth signal).
    pub fn ingest(&mut self, report: &CollectionReport) -> bool {
        let accepted = self.history_mut(report.device()).ingest(report);
        if accepted {
            self.ingested += 1;
        } else {
            self.rejected += 1;
        }
        accepted
    }

    /// Wire-native ingestion: validates one batch frame zero-copy, has
    /// `verify` (which owns the per-device key material) check each response
    /// record straight off the frame, and folds each report it returns into
    /// its device's history. Per-report accept/reject accounting, and every
    /// history, end up exactly as if each report had gone through
    /// [`VerifierHub::ingest`] before the next record was verified.
    ///
    /// `verify` is handed each [`ResponseView`] in wire order and returns
    /// the report to ingest, or `None` to drop the record (counted in
    /// [`FrameIngest::verify_failed`]) — e.g. for a record about an unknown
    /// device or one that fails MAC-level verification.
    ///
    /// Each record is verified in wire order, and the report it yields goes
    /// through [`VerifierHub::ingest`] before the next record is verified.
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeError`] when the frame violates the strict codec
    /// contract. The hub is left completely untouched in that case: a frame
    /// either decodes as a whole or contributes nothing.
    pub fn ingest_frame<F>(&mut self, frame: &[u8], verify: F) -> Result<FrameIngest, DecodeError>
    where
        F: FnMut(ResponseView<'_>) -> Option<CollectionReport>,
    {
        let parsed = FrameView::parse(frame)?;
        Ok(self.ingest_parsed(&parsed, verify))
    }

    /// ARQ-aware wire ingestion: like [`VerifierHub::ingest_frame`], but the
    /// frame carries a `(flow, sequence)` identity checked against the hub's
    /// per-flow dedup window first, so retransmissions and duplicated
    /// deliveries are accepted **exactly once**.
    ///
    /// Returns `Ok(None)` — and counts the frame in
    /// [`VerifierHub::duplicates`] — when the window has already accepted
    /// this sequence (or it fell below the window floor and is stale by
    /// construction). Only a frame that decodes *and* is fresh advances the
    /// window: a corrupted retransmission neither consumes the sequence nor
    /// touches the hub, so the sender's next copy still goes through.
    ///
    /// The `Ok(Some(ingest))` outcome doubles as the hub's acknowledgement:
    /// in a live deployment this is the point where an ack for `(flow,
    /// sequence)` would be sent back to the collector. A fresh frame is
    /// verified and folded in exactly as [`VerifierHub::ingest_frame`]
    /// does.
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeError`] when the frame violates the strict codec
    /// contract; the hub — including the dedup window — is left untouched.
    pub fn ingest_sequenced_frame<F>(
        &mut self,
        flow: u64,
        sequence: u64,
        frame: &[u8],
        verify: F,
    ) -> Result<Option<FrameIngest>, DecodeError>
    where
        F: FnMut(ResponseView<'_>) -> Option<CollectionReport>,
    {
        let parsed = FrameView::parse(frame)?;
        if !self.dedup.entry(flow).or_default().note(sequence) {
            self.duplicates += 1;
            return Ok(None);
        }
        Ok(Some(self.ingest_parsed(&parsed, verify)))
    }

    /// Shared tail of the frame-ingestion paths: verify each response off
    /// the already-validated frame and fold its report in (see
    /// [`VerifierHub::ingest_frame`]).
    fn ingest_parsed<F>(&mut self, parsed: &FrameView<'_>, mut verify: F) -> FrameIngest
    where
        F: FnMut(ResponseView<'_>) -> Option<CollectionReport>,
    {
        let mut outcome = FrameIngest {
            responses: u64::try_from(parsed.len()).unwrap_or(u64::MAX),
            bytes: u64::try_from(parsed.frame_len()).unwrap_or(u64::MAX),
            ..FrameIngest::default()
        };
        for view in parsed.responses() {
            let Some(report) = verify(view) else {
                outcome.verify_failed += 1;
                continue;
            };
            if self.ingest(&report) {
                outcome.accepted += 1;
            } else {
                outcome.rejected += 1;
            }
        }
        outcome
    }

    /// The history of one device, if any report (or registration) mentioned
    /// it.
    pub fn history(&self, device: DeviceId) -> Option<&DeviceHistory> {
        self.histories.get(&device)
    }

    /// Number of devices tracked.
    pub fn len(&self) -> usize {
        self.histories.len()
    }

    /// Whether no device is tracked yet.
    pub fn is_empty(&self) -> bool {
        self.histories.is_empty()
    }

    /// Iterator over the tracked histories in device order.
    pub fn histories(&self) -> impl Iterator<Item = &DeviceHistory> {
        self.histories.values()
    }

    /// Reports successfully folded in across all devices.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Reports rejected by the per-device device-ID cross-check.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Sequenced frames dropped by the dedup window as duplicates.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Total collection reports recorded across all device histories.
    pub fn total_collections(&self) -> u64 {
        self.histories.values().map(|h| h.collections()).sum()
    }

    /// Total distinct measurements ever recorded across all device
    /// histories, resident or evicted (lifetime count — invariant across
    /// ring capacities).
    pub fn total_entries(&self) -> u64 {
        self.histories
            .values()
            .map(|h| u64::try_from(h.len()).unwrap_or(u64::MAX))
            .sum()
    }

    /// Total entries currently resident in the per-device rings, bounded by
    /// `devices × ring capacity`.
    pub fn total_resident(&self) -> u64 {
        self.histories
            .values()
            .map(|h| u64::try_from(h.resident_len()).unwrap_or(u64::MAX))
            .sum()
    }

    /// Total entries sealed into per-device hash chains and evicted.
    /// Conservation: `total_evictions() + total_resident() ==
    /// total_entries()`.
    pub fn total_evictions(&self) -> u64 {
        self.histories.values().map(|h| h.evictions()).sum()
    }

    /// Total measurements discarded for predating an already-evicted
    /// window.
    pub fn total_stale_discards(&self) -> u64 {
        self.histories.values().map(|h| h.stale_discards()).sum()
    }

    /// Re-verifies every device's hash chain — `head == fold(chain,
    /// resident entries)`, [`DeviceHistory::verify_chain`] — and returns
    /// how many devices passed. A healthy hub returns [`VerifierHub::len`].
    pub fn verified_chains(&self) -> usize {
        self.histories.values().filter(|h| h.verify_chain()).count()
    }

    /// Devices whose timeline contains at least one non-healthy measurement,
    /// in device order.
    pub fn compromised_devices(&self) -> Vec<DeviceId> {
        self.histories
            .values()
            .filter(|h| h.first_compromise().is_some())
            .map(|h| h.device())
            .collect()
    }

    /// Whether every tracked device's timeline is entirely healthy.
    pub fn all_healthy(&self) -> bool {
        self.histories
            .values()
            .all(|h| h.first_compromise().is_none())
    }

    /// Absorbs another shard's hub as a disjoint union: its device
    /// histories and per-flow dedup windows move over wholesale, and its
    /// ingestion counters are summed. Sharded runs give every device and
    /// every frame flow to exactly one shard, so nothing needs combining.
    ///
    /// Returns `false` and leaves `self` untouched when the hubs differ in
    /// ring capacity (moved-over histories would keep a different bound
    /// than the ones the receiving hub creates) or when both track the same
    /// device or the same flow (two partial timelines of one device cannot
    /// be re-chained from their resident windows alone).
    pub fn merge(&mut self, other: VerifierHub) -> bool {
        let shares_device = other
            .histories
            .keys()
            .any(|device| self.histories.contains_key(device));
        let shares_flow = other.dedup.keys().any(|flow| self.dedup.contains_key(flow));
        if self.capacity != other.capacity || shares_device || shares_flow {
            return false;
        }
        self.ingested += other.ingested;
        self.rejected += other.rejected;
        self.duplicates += other.duplicates;
        self.histories.extend(other.histories);
        self.dedup.extend(other.dedup);
        true
    }
}

#[cfg(test)]
#[expect(
    clippy::as_conversions,
    reason = "test fixtures index verifiers by device id and compare byte counts"
)]
mod tests {
    use super::*;
    use crate::config::ProverConfig;
    use crate::protocol::CollectionRequest;
    use crate::prover::Prover;
    use crate::report::MeasurementVerdict;
    use crate::verifier::Verifier;
    use erasmus_crypto::MacAlgorithm;
    use erasmus_hw::{DeviceKey, DeviceProfile};
    use erasmus_sim::{SimDuration, SimTime};

    fn provision(id: u64) -> (Prover, Verifier) {
        let key = DeviceKey::derive(b"hub-test", id);
        let config = ProverConfig::builder()
            .measurement_interval(SimDuration::from_secs(10))
            .buffer_slots(16)
            .build()
            .expect("valid config");
        let prover = Prover::new(
            DeviceId::new(id),
            DeviceProfile::msp430_8mhz(512),
            key.clone(),
            config,
        )
        .expect("provisioning");
        let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
        verifier.learn_reference_image(prover.mcu().app_memory());
        verifier.set_expected_interval(SimDuration::from_secs(10));
        (prover, verifier)
    }

    fn collect(
        prover: &mut Prover,
        verifier: &mut Verifier,
        at_secs: u64,
        k: usize,
    ) -> CollectionReport {
        prover
            .run_until(SimTime::from_secs(at_secs))
            .expect("measurements");
        let response =
            prover.handle_collection(&CollectionRequest::latest(k), SimTime::from_secs(at_secs));
        verifier
            .verify_collection(&response, SimTime::from_secs(at_secs))
            .expect("report")
    }

    #[test]
    fn routes_reports_to_per_device_histories() {
        let mut hub = VerifierHub::new();
        for id in 0..4u64 {
            let (mut prover, mut verifier) = provision(id);
            let report = collect(&mut prover, &mut verifier, 40, 4);
            assert!(hub.ingest(&report));
        }
        assert_eq!(hub.len(), 4);
        assert_eq!(hub.ingested(), 4);
        assert_eq!(hub.rejected(), 0);
        assert_eq!(hub.total_collections(), 4);
        assert_eq!(hub.total_entries(), 16);
        assert!(hub.all_healthy());
        for id in 0..4u64 {
            let history = hub.history(DeviceId::new(id)).expect("tracked");
            assert_eq!(history.device(), DeviceId::new(id));
            assert_eq!(history.len(), 4);
        }
    }

    #[test]
    fn register_makes_silent_devices_visible() {
        let mut hub = VerifierHub::new();
        hub.register(DeviceId::new(9));
        assert_eq!(hub.len(), 1);
        let history = hub.history(DeviceId::new(9)).expect("registered");
        assert!(history.is_empty());
        assert!(hub.all_healthy());
    }

    #[test]
    fn compromised_device_is_singled_out() {
        let mut hub = VerifierHub::new();
        let (mut healthy_p, mut healthy_v) = provision(1);
        assert!(hub.ingest(&collect(&mut healthy_p, &mut healthy_v, 40, 4)));

        let (mut sick_p, mut sick_v) = provision(2);
        sick_p.run_until(SimTime::from_secs(20)).expect("run");
        sick_p
            .mcu_mut()
            .write_app_memory(0, b"implant")
            .expect("infect");
        assert!(hub.ingest(&collect(&mut sick_p, &mut sick_v, 40, 4)));

        assert!(!hub.all_healthy());
        assert_eq!(hub.compromised_devices(), vec![DeviceId::new(2)]);
        let history = hub.history(DeviceId::new(2)).expect("tracked");
        assert!(history.count(MeasurementVerdict::Compromised) >= 1);
        // The healthy neighbour's timeline is untouched.
        let neighbour = hub.history(DeviceId::new(1)).expect("tracked");
        assert_eq!(neighbour.count(MeasurementVerdict::Healthy), 4);
        assert!(neighbour.first_compromise().is_none());
    }

    #[test]
    fn wire_batch_decodes_verifies_and_ingests_end_to_end() {
        // The full networked-hub pipeline over the batch framing: provers
        // answer collections, the responses cross the wire as one batch
        // frame, the receiving side decodes, verifies each response and
        // folds each report in via ingest.
        use crate::encoding::{decode_collection_batch, encode_collection_batch};
        use crate::protocol::CollectionResponse;

        let mut responses: Vec<CollectionResponse> = Vec::new();
        let mut verifiers = Vec::new();
        for id in 0..3u64 {
            let (mut prover, verifier) = provision(id);
            prover.run_until(SimTime::from_secs(40)).expect("runs");
            responses.push(
                prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40)),
            );
            verifiers.push(verifier);
        }

        let frame = encode_collection_batch(&responses);
        let decoded = decode_collection_batch(&frame).expect("frame decodes");
        assert_eq!(decoded.len(), 3);

        let reports: Vec<CollectionReport> = decoded
            .iter()
            .zip(verifiers.iter_mut())
            .map(|(response, verifier)| {
                verifier
                    .verify_collection(response, SimTime::from_secs(40))
                    .expect("decoded response verifies")
            })
            .collect();
        assert!(reports.iter().all(CollectionReport::all_valid));

        let mut hub = VerifierHub::new();
        assert!(reports.iter().all(|report| hub.ingest(report)));
        assert_eq!(hub.ingested(), 3);
        assert_eq!(hub.len(), 3);
        assert_eq!(hub.total_entries(), 12);
        assert!(hub.all_healthy());
    }

    #[test]
    fn ingest_frame_matches_struct_path_bit_identically() {
        use crate::encoding::encode_collection_batch;
        use crate::protocol::{CollectionRequest, CollectionResponse};

        let mut responses: Vec<CollectionResponse> = Vec::new();
        let mut verifiers = Vec::new();
        for id in 0..3u64 {
            let (mut prover, verifier) = provision(id);
            prover.run_until(SimTime::from_secs(40)).expect("runs");
            responses.push(
                prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40)),
            );
            verifiers.push(verifier);
        }
        let frame = encode_collection_batch(&responses);

        // Struct path: decode, verify, ingest each report.
        let mut struct_hub = VerifierHub::new();
        let mut struct_verifiers = verifiers.clone();
        let reports: Vec<CollectionReport> = responses
            .iter()
            .zip(struct_verifiers.iter_mut())
            .map(|(response, verifier)| {
                verifier
                    .verify_collection(response, SimTime::from_secs(40))
                    .expect("verifies")
            })
            .collect();
        for report in &reports {
            assert!(struct_hub.ingest(report));
        }

        // Frame path: verify straight off the frame inside ingest_frame.
        let mut frame_hub = VerifierHub::new();
        let outcome = frame_hub
            .ingest_frame(&frame, |view| {
                let verifier = &mut verifiers[view.device().value() as usize];
                Some(
                    verifier
                        .verify_frame_response(&view, SimTime::from_secs(40))
                        .expect("verifies"),
                )
            })
            .expect("frame decodes");

        assert_eq!(outcome.responses, 3);
        assert_eq!(outcome.accepted, struct_hub.ingested());
        assert_eq!(outcome.rejected, struct_hub.rejected());
        assert_eq!(outcome.verify_failed, 0);
        assert_eq!(outcome.bytes, frame.len() as u64);
        assert_eq!(frame_hub, struct_hub);
        for (a, b) in struct_verifiers.iter().zip(&verifiers) {
            assert_eq!(a.last_collection(), b.last_collection());
        }
    }

    #[test]
    fn malformed_frame_leaves_hub_untouched() {
        use crate::encoding::{encode_collection_batch, DecodeErrorKind};
        use crate::protocol::CollectionRequest;

        let (mut prover, mut verifier) = provision(0);
        prover.run_until(SimTime::from_secs(40)).expect("runs");
        let response =
            prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
        let mut frame = encode_collection_batch(std::slice::from_ref(&response));
        frame.truncate(frame.len() - 1);

        let mut hub = VerifierHub::new();
        let err = hub
            .ingest_frame(&frame, |view| {
                verifier
                    .verify_frame_response(&view, SimTime::from_secs(40))
                    .ok()
            })
            .unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::Truncated);
        assert!(hub.is_empty());
        assert_eq!(hub.ingested(), 0);
        assert_eq!(hub.rejected(), 0);
    }

    #[test]
    fn verify_failures_are_counted_not_ingested() {
        use crate::encoding::encode_collection_batch;
        use crate::protocol::CollectionRequest;

        let (mut prover, mut verifier) = provision(0);
        prover.run_until(SimTime::from_secs(40)).expect("runs");
        let response =
            prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
        let mut frame = encode_collection_batch(std::slice::from_ref(&response));
        // Flip a digest byte: the frame still parses, the MAC check fails,
        // and the callback sees a tampering report it chooses to drop.
        // Layout: count(2) + device(8) + mcount(2) + t(8) + dlen(2) puts the
        // first digest byte at offset 22.
        frame[22] ^= 0x01;

        let mut hub = VerifierHub::new();
        let outcome = hub
            .ingest_frame(&frame, |view| {
                use crate::report::AttestationVerdict;
                let report = verifier
                    .verify_frame_response(&view, SimTime::from_secs(40))
                    .expect("still a report");
                assert_eq!(report.verdict(), AttestationVerdict::TamperingDetected);
                None
            })
            .expect("frame decodes");
        assert_eq!(outcome.responses, 1);
        assert_eq!(outcome.verify_failed, 1);
        assert_eq!(outcome.accepted, 0);
        assert!(hub.is_empty());
    }

    #[test]
    fn sequenced_frames_are_accepted_exactly_once() {
        use crate::encoding::encode_collection_batch;
        use crate::protocol::CollectionRequest;

        let (mut prover, mut verifier) = provision(0);
        prover.run_until(SimTime::from_secs(40)).expect("runs");
        let response =
            prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
        let frame = encode_collection_batch(std::slice::from_ref(&response));

        let mut hub = VerifierHub::new();
        let mut verify = |view: ResponseView<'_>| {
            verifier
                .verify_frame_response(&view, SimTime::from_secs(40))
                .ok()
        };
        let first = hub
            .ingest_sequenced_frame(7, 0, &frame, &mut verify)
            .expect("decodes")
            .expect("fresh");
        assert_eq!(first.accepted, 1);
        assert_eq!(hub.ingested(), 1);

        // The duplicated delivery (or a retransmission whose ack was lost)
        // is rejected by the window, not double-counted.
        let echo = hub
            .ingest_sequenced_frame(7, 0, &frame, &mut verify)
            .expect("decodes");
        assert!(echo.is_none());
        assert_eq!(hub.duplicates(), 1);
        assert_eq!(hub.ingested(), 1);
        assert_eq!(hub.total_collections(), 1);

        // A later sequence on the same flow and the same sequence on another
        // flow are both fresh.
        assert!(hub
            .ingest_sequenced_frame(7, 1, &frame, &mut verify)
            .expect("decodes")
            .is_some());
        assert!(hub
            .ingest_sequenced_frame(8, 0, &frame, &mut verify)
            .expect("decodes")
            .is_some());
        assert_eq!(hub.duplicates(), 1);
    }

    #[test]
    fn corrupted_sequenced_frame_does_not_consume_the_sequence() {
        use crate::encoding::encode_collection_batch;
        use crate::protocol::CollectionRequest;

        let (mut prover, mut verifier) = provision(0);
        prover.run_until(SimTime::from_secs(40)).expect("runs");
        let response =
            prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
        let frame = encode_collection_batch(std::slice::from_ref(&response));
        let mut corrupted = frame.clone();
        corrupted[0] ^= 0xff; // count header: guaranteed decode failure

        let mut hub = VerifierHub::new();
        let mut verify = |view: ResponseView<'_>| {
            verifier
                .verify_frame_response(&view, SimTime::from_secs(40))
                .ok()
        };
        // The corrupted first attempt is rejected wholesale...
        assert!(hub
            .ingest_sequenced_frame(7, 0, &corrupted, &mut verify)
            .is_err());
        assert!(hub.is_empty());
        assert_eq!(hub.duplicates(), 0);
        // ...and the clean retransmission of the same sequence still lands.
        let retry = hub
            .ingest_sequenced_frame(7, 0, &frame, &mut verify)
            .expect("decodes");
        assert!(retry.is_some());
        assert_eq!(hub.ingested(), 1);
    }

    #[test]
    fn snapshot_roundtrip_preserves_live_ingestion_state() {
        use crate::encoding::{decode_hub_snapshot, encode_collection_batch, encode_hub_snapshot};
        use crate::protocol::CollectionRequest;

        let (mut prover, mut verifier) = provision(0);
        prover.run_until(SimTime::from_secs(40)).expect("runs");
        let response =
            prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
        let frame = encode_collection_batch(std::slice::from_ref(&response));

        let mut hub = VerifierHub::new();
        let mut verify = |view: ResponseView<'_>| {
            verifier
                .verify_frame_response(&view, SimTime::from_secs(40))
                .ok()
        };
        for sequence in [0u64, 1, 1, 3] {
            let _ = hub
                .ingest_sequenced_frame(7, sequence, &frame, &mut verify)
                .expect("decodes");
        }
        assert_eq!(hub.duplicates(), 1);

        // Crash: all that survives is the snapshot bytes.
        let snapshot = encode_hub_snapshot(&hub);
        let restored = decode_hub_snapshot(&snapshot).expect("snapshot decodes");
        assert_eq!(restored, hub);

        // The restored hub still deduplicates pre-crash sequences and still
        // accepts fresh ones — exactly-once accounting survives the crash.
        let mut hub = restored;
        assert!(hub
            .ingest_sequenced_frame(7, 1, &frame, &mut verify)
            .expect("decodes")
            .is_none());
        assert!(hub
            .ingest_sequenced_frame(7, 4, &frame, &mut verify)
            .expect("decodes")
            .is_some());
        assert_eq!(hub.duplicates(), 2);
    }

    #[test]
    fn dedup_window_treats_sequences_below_the_floor_as_stale() {
        let mut window = FlowWindow::default();
        assert!(window.note(0));
        assert!(window.note(DEDUP_WINDOW + 5));
        assert_eq!(window.floor, 5);
        // Replays of pruned or below-floor sequences are stale.
        assert!(!window.note(0));
        assert!(!window.note(4));
        // In-window sequences are still tracked individually.
        assert!(window.note(5));
        assert!(!window.note(5));
        assert!(!window.note(DEDUP_WINDOW + 5));
    }

    /// One single-response frame per device `0..count`, all collected at
    /// t = 40 s, with the verifiers that check them (indexed by device).
    fn frames(count: u64) -> (Vec<Vec<u8>>, Vec<Verifier>) {
        use crate::encoding::encode_collection_batch;

        let at = SimTime::from_secs(40);
        (0..count)
            .map(|id| {
                let (mut prover, verifier) = provision(id);
                prover.run_until(at).expect("runs");
                let response = prover.handle_collection(&CollectionRequest::latest(4), at);
                (
                    encode_collection_batch(std::slice::from_ref(&response)),
                    verifier,
                )
            })
            .unzip()
    }

    #[test]
    fn merge_carries_dedup_state_and_duplicate_counts() {
        let (frames, mut verifiers) = frames(2);
        let mut verify = |view: ResponseView<'_>| {
            verifiers[view.device().value() as usize]
                .verify_frame_response(&view, SimTime::from_secs(40))
                .ok()
        };
        // Shard A: device 0 on flow 1. Shard B: device 1 on flow 2.
        let mut a = VerifierHub::new();
        let mut b = VerifierHub::new();
        assert!(a
            .ingest_sequenced_frame(1, 0, &frames[0], &mut verify)
            .expect("decodes")
            .is_some());
        assert!(b
            .ingest_sequenced_frame(2, 0, &frames[1], &mut verify)
            .expect("decodes")
            .is_some());
        assert!(b
            .ingest_sequenced_frame(2, 0, &frames[1], &mut verify)
            .expect("decodes")
            .is_none());

        assert!(a.merge(b));
        assert_eq!(a.duplicates(), 1);
        // The merged hub still remembers both flows' accepted sequences.
        assert!(a
            .ingest_sequenced_frame(1, 0, &frames[0], &mut verify)
            .expect("decodes")
            .is_none());
        assert!(a
            .ingest_sequenced_frame(2, 0, &frames[1], &mut verify)
            .expect("decodes")
            .is_none());
        assert_eq!(a.duplicates(), 3);
        assert_eq!(a.ingested(), 2);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn merge_unions_disjoint_hubs() {
        // Shard A: devices 0 and 1. Shard B: device 2.
        let mut a = VerifierHub::new();
        let mut b = VerifierHub::new();

        let (mut p0, mut v0) = provision(0);
        assert!(a.ingest(&collect(&mut p0, &mut v0, 40, 4)));
        let (mut p1, mut v1) = provision(1);
        assert!(a.ingest(&collect(&mut p1, &mut v1, 40, 4)));
        assert!(a.ingest(&collect(&mut p1, &mut v1, 80, 4)));
        let (mut p2, mut v2) = provision(2);
        assert!(b.ingest(&collect(&mut p2, &mut v2, 40, 4)));
        let moved = b.history(DeviceId::new(2)).expect("tracked").clone();

        assert!(a.merge(b));
        assert_eq!(a.len(), 3);
        assert_eq!(a.ingested(), 4);
        assert_eq!(a.total_collections(), 4);
        assert_eq!(a.total_entries(), 16);
        // Device 1 kept both windows: t = 10..40 and t = 50..80.
        let history = a.history(DeviceId::new(1)).expect("tracked");
        assert_eq!(history.len(), 8);
        assert_eq!(history.collections(), 2);
        // Device 2's history moved over unchanged.
        assert_eq!(a.history(DeviceId::new(2)), Some(&moved));
    }

    #[test]
    fn merge_refuses_hubs_that_share_a_device_or_a_flow() {
        // Two partial timelines of one device: the merge cannot re-chain
        // them from their resident windows, so it must refuse.
        let (mut p0, mut v0) = provision(0);
        let mut early = VerifierHub::new();
        assert!(early.ingest(&collect(&mut p0, &mut v0, 40, 4)));
        let mut late = VerifierHub::new();
        assert!(late.ingest(&collect(&mut p0, &mut v0, 80, 4)));
        let before = early.clone();
        assert!(!early.merge(late));
        assert_eq!(early, before);

        // Disjoint devices that were sent on one flow.
        let (frames, mut verifiers) = frames(2);
        let mut verify = |view: ResponseView<'_>| {
            verifiers[view.device().value() as usize]
                .verify_frame_response(&view, SimTime::from_secs(40))
                .ok()
        };
        let mut a = VerifierHub::new();
        let mut b = VerifierHub::new();
        assert!(a
            .ingest_sequenced_frame(7, 0, &frames[0], &mut verify)
            .expect("decodes")
            .is_some());
        assert!(b
            .ingest_sequenced_frame(7, 1, &frames[1], &mut verify)
            .expect("decodes")
            .is_some());
        let before = a.clone();
        assert!(!a.merge(b));
        assert_eq!(a, before);
    }

    #[test]
    fn ring_hub_matches_a_covering_ring_with_bounded_state() {
        // Each device records 8 lifetime entries: Ring(8) never evicts and
        // stands in for a retain-everything hub.
        let mut ring = VerifierHub::with_history(HistoryMode::Ring(2));
        let mut covering = VerifierHub::with_history(HistoryMode::Ring(8));
        for id in 0..3u64 {
            let (mut prover, mut verifier) = provision(id);
            for at in [40u64, 80] {
                let report = collect(&mut prover, &mut verifier, at, 4);
                assert!(ring.ingest(&report));
                assert!(covering.ingest(&report));
            }
        }
        assert_eq!(covering.total_evictions(), 0);
        // Lifetime totals do not depend on the capacity...
        assert_eq!(ring.total_entries(), covering.total_entries());
        assert_eq!(ring.total_collections(), covering.total_collections());
        assert_eq!(ring.ingested(), covering.ingested());
        // ...while resident state is capped and the remainder is sealed.
        assert_eq!(ring.total_resident(), 6); // 3 devices × capacity 2
        assert_eq!(
            ring.total_evictions() + ring.total_resident(),
            ring.total_entries()
        );
        assert_eq!(ring.total_stale_discards(), 0);
        assert_eq!(ring.verified_chains(), ring.len());
        // Ring heads equal the covering heads: eviction never changes them.
        for (compact, full) in ring.histories().zip(covering.histories()) {
            assert_eq!(compact.head_digest(), full.head_digest());
        }
    }

    /// A report about `device` collected at `collected_secs`, carrying one
    /// measurement per `(timestamp secs, verdict)` in the given order, with
    /// placeholder digests and tags: what a verifier would have concluded,
    /// without the crypto.
    fn report_of(
        device: u64,
        entries: impl IntoIterator<Item = (u64, MeasurementVerdict)>,
        collected_secs: u64,
    ) -> CollectionReport {
        use crate::measurement::Measurement;
        use crate::report::{AttestationVerdict, VerifiedMeasurement};
        use erasmus_crypto::MacTag;

        let verified = entries
            .into_iter()
            .map(|(secs, verdict)| VerifiedMeasurement {
                measurement: Measurement::from_parts(
                    SimTime::from_secs(secs),
                    [0u8; 32],
                    MacTag::new([0u8; 32]),
                ),
                verdict,
            })
            .collect();
        CollectionReport::new(
            DeviceId::new(device),
            verified,
            AttestationVerdict::AllHealthy,
            0,
            SimDuration::ZERO,
            SimTime::from_secs(collected_secs),
        )
    }

    #[test]
    fn verified_chains_catches_a_bad_head_on_every_device() {
        // 19 devices with windows of 1 to 6 entries into a ring of 4, so
        // some chains are sealed and some are not.
        let mut hub = VerifierHub::with_history(HistoryMode::Ring(4));
        for id in 0..19u64 {
            let entries = (1..=id % 6 + 1)
                .rev()
                .map(|tick| (10 * tick + id, MeasurementVerdict::Healthy));
            assert!(hub.ingest(&report_of(id, entries, 100)));
        }
        assert_eq!(hub.verified_chains(), 19);
        for id in 0..19u64 {
            let mut corrupted = hub.clone();
            let history = corrupted
                .histories
                .get_mut(&DeviceId::new(id))
                .expect("tracked");
            history.head[0] ^= 0x01;
            assert_eq!(corrupted.verified_chains(), 18, "device {id}");
        }
    }

    #[test]
    fn a_stale_forged_entry_flags_its_device_and_survives_a_snapshot() {
        use crate::encoding::{decode_hub_snapshot, encode_hub_snapshot};

        let device = DeviceId::new(7);
        let healthy = [40, 30, 20, 10].map(|secs| (secs, MeasurementVerdict::Healthy));
        let mut hub = VerifierHub::with_history(HistoryMode::Ring(2));
        assert!(hub.ingest(&report_of(7, healthy, 45)));
        assert!(hub.all_healthy());
        // A late report carries a forged entry from behind the sealed ring.
        assert!(hub.ingest(&report_of(7, [(15, MeasurementVerdict::Forged)], 50)));
        assert_eq!(hub.total_stale_discards(), 1);
        assert!(!hub.all_healthy());
        assert_eq!(hub.compromised_devices(), vec![device]);

        // Crash recovery keeps the evidence.
        let restored = decode_hub_snapshot(&encode_hub_snapshot(&hub)).expect("snapshot decodes");
        assert_eq!(restored, hub);
        assert!(!restored.all_healthy());
        let history = restored.history(device).expect("tracked");
        assert_eq!(history.first_compromise(), Some(SimTime::from_secs(15)));
        assert_eq!(
            history.first_compromise_detected_at(),
            Some(SimTime::from_secs(50))
        );
    }

    #[test]
    fn merge_refuses_a_hub_of_another_capacity() {
        let mut small = VerifierHub::with_history(HistoryMode::Ring(2));
        let mut large = VerifierHub::with_history(HistoryMode::Ring(8));
        let (mut p0, mut v0) = provision(0);
        assert!(small.ingest(&collect(&mut p0, &mut v0, 40, 4)));
        let (mut p1, mut v1) = provision(1);
        assert!(large.ingest(&collect(&mut p1, &mut v1, 40, 4)));
        let before = large.clone();

        // Release builds must refuse too, not only debug ones: the
        // mismatch is a returned `false`, and the receiver is untouched.
        assert!(!large.merge(small));
        assert_eq!(large, before);
        assert!(large.history(DeviceId::new(0)).is_none());
        assert_eq!(large.capacity(), 8);
    }
}
