//! Property tests: a small ring history against a never-evicting oracle.
//!
//! The oracle is a ring whose capacity covers every arrival a workload can
//! make, so it retains the whole timeline. The compact history must be a
//! *lossy view with honest books*, never a different timeline: in-order
//! arrival produces identical lifetime tallies and head digests to the
//! oracle, and arbitrary arrival keeps every conservation law.
//!
//! A hub that folds whole frames, whose chains it extends several devices
//! at a time, must end up equal to a hub fed the same reports one at a
//! time.

use std::collections::BTreeMap;

use erasmus_core::{
    encode_collection_batch, CollectionReport, CollectionResponse, DeviceHistory, DeviceId,
    FrameIngest, HistoryEntry, HistoryMode, Measurement, MeasurementVerdict, Verifier, VerifierHub,
};
use erasmus_crypto::{KeyedMac, MacAlgorithm, MacTag};
use erasmus_hw::DeviceKey;
use erasmus_sim::{SimDuration, SimTime};
use proptest::collection::vec;
use proptest::prelude::*;

const VERDICTS: [MeasurementVerdict; 3] = [
    MeasurementVerdict::Healthy,
    MeasurementVerdict::Compromised,
    MeasurementVerdict::Forged,
];

fn entry(ts_secs: u64, selector: u8) -> HistoryEntry {
    HistoryEntry {
        timestamp: SimTime::from_secs(ts_secs),
        verdict: VERDICTS[usize::from(selector) % VERDICTS.len()],
        collected_at: SimTime::from_secs(ts_secs + 5),
    }
}

/// Most arrivals one generated timeline carries.
const MAX_ARRIVALS: usize = 64;

/// Arbitrary arrival stream: timestamps collide on purpose (dedup and
/// verdict-upgrade paths) and arrive in any order (stale-discard path).
fn arb_timeline() -> impl Strategy<Value = Vec<HistoryEntry>> {
    vec((0u64..256, any::<u8>()), 0..MAX_ARRIVALS)
        .prop_map(|draws| draws.into_iter().map(|(ts, v)| entry(ts, v)).collect())
}

/// A history that can hold every arrival of a timeline, so it never
/// evicts: the retain-everything model the rings are checked against.
fn never_evicting(device: DeviceId) -> DeviceHistory {
    DeviceHistory::with_mode(device, HistoryMode::Ring(MAX_ARRIVALS))
}

fn lifetime_verdicts(history: &DeviceHistory) -> usize {
    VERDICTS.iter().map(|v| history.count(*v)).sum()
}

proptest! {
    /// In-order, duplicate-free arrival: the ring is exactly the oracle
    /// with the oldest entries folded into the chain — same lifetime
    /// tallies, same head digest, retained window equal to the oracle's
    /// newest suffix.
    #[test]
    fn in_order_ring_matches_the_never_evicting_oracle(
        entries in arb_timeline(),
        capacity in 1usize..8,
    ) {
        let mut entries = entries;
        entries.sort_by_key(|e| e.timestamp);
        entries.dedup_by_key(|e| e.timestamp);
        let device = DeviceId::new(7);
        let mut ring = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        let mut oracle = never_evicting(device);
        for e in &entries {
            ring.observe(e.clone());
            oracle.observe(e.clone());
        }

        prop_assert_eq!(ring.stale_discards(), 0);
        prop_assert_eq!(ring.len(), oracle.len());
        for verdict in VERDICTS {
            prop_assert_eq!(ring.count(verdict), oracle.count(verdict));
        }
        prop_assert_eq!(ring.first_timestamp(), oracle.first_timestamp());
        prop_assert_eq!(ring.last_timestamp(), oracle.last_timestamp());
        prop_assert_eq!(ring.first_compromise(), oracle.first_compromise());
        prop_assert_eq!(ring.head_digest(), oracle.head_digest());
        prop_assert!(ring.verify_chain());
        prop_assert_eq!(
            ring.evictions() + ring.resident_len() as u64,
            ring.len() as u64,
            "conservation: evictions + resident == entries"
        );

        let tail: Vec<HistoryEntry> = oracle
            .entries()
            .skip(oracle.resident_len() - ring.resident_len())
            .cloned()
            .collect();
        let resident: Vec<HistoryEntry> = ring.entries().cloned().collect();
        prop_assert_eq!(resident, tail, "ring retains the newest suffix");
    }

    /// Arbitrary arrival (shuffled, duplicated): every conservation law
    /// holds, the chain always verifies, and whenever nothing was discarded
    /// as stale the head still matches the oracle.
    #[test]
    fn arbitrary_arrival_keeps_the_books(
        entries in arb_timeline(),
        capacity in 1usize..8,
    ) {
        let device = DeviceId::new(3);
        let mut ring = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        let mut oracle = never_evicting(device);
        for e in &entries {
            ring.observe(e.clone());
            oracle.observe(e.clone());
        }

        prop_assert!(ring.verify_chain());
        prop_assert!(oracle.verify_chain());
        prop_assert_eq!(oracle.evictions(), 0);
        prop_assert_eq!(oracle.stale_discards(), 0);
        prop_assert!(ring.resident_len() <= capacity);
        prop_assert_eq!(lifetime_verdicts(&ring), ring.len());
        prop_assert_eq!(
            ring.evictions() + ring.resident_len() as u64,
            ring.len() as u64
        );
        // A bounded ring can only lose distinct timestamps to stale
        // discards, never invent them.
        prop_assert!(ring.len() <= oracle.len());
        prop_assert!(ring.len() as u64 + ring.stale_discards() >= oracle.len() as u64);
        if ring.stale_discards() == 0 {
            prop_assert_eq!(ring.head_digest(), oracle.head_digest());
            prop_assert_eq!(ring.len(), oracle.len());
        }
    }
}

/// Devices a generated frame's records are about: more than a lane group
/// holds, and few enough that one frame often repeats a device.
const FRAME_DEVICES: u8 = 12;

/// One generated response record: `((device selector, (step, back)),
/// length, shape, verdict selectors)`. Selectors from `8 * FRAME_DEVICES`
/// on stand for a record `verify` refuses. See `FrameFleet::record`.
type RecordDraw = ((u8, (u64, u64)), usize, u8, Vec<u8>);

fn arb_frames() -> impl Strategy<Value = Vec<Vec<RecordDraw>>> {
    let record = (
        (0..9 * FRAME_DEVICES, (0u64..24, 0u64..24)),
        1usize..21,
        0u8..8,
        vec(any::<u8>(), 20),
    );
    vec(vec(record, 0..41), 1..4)
}

const HEALTHY_IMAGE: &[u8] = b"reference application image";
const INFECTED_IMAGE: &[u8] = b"implanted application image";

/// Builds genuine responses, and the verifier's reports on them, for
/// generated records.
struct FrameFleet {
    keyed: KeyedMac,
    verifier: Verifier,
    /// Newest tick each device has been collected up to.
    cursors: BTreeMap<u64, u64>,
}

impl FrameFleet {
    fn new() -> Self {
        let key = DeviceKey::from_bytes([0x44; 32]);
        let keyed = MacAlgorithm::HmacSha256.with_key(key.as_bytes());
        let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
        verifier.learn_reference_image(HEALTHY_IMAGE);
        Self {
            keyed,
            verifier,
            cursors: BTreeMap::new(),
        }
    }

    /// The response a draw describes, and the report `verify` returns for
    /// it (`None` for a refused record).
    ///
    /// Like `report_at` in `history.rs`: the record's window of `len`
    /// consecutive 10 s ticks starts `step` ticks past the device's cursor,
    /// pulled back `back` ticks, so it lands newer than, straddling,
    /// overlapping or predating what the device sent before. Shapes 0–5
    /// keep the prover's newest-first order, 6 reverses it and 7 repeats
    /// the middle timestamp. Selectors pick mostly healthy measurements,
    /// some over an infected image and some with a forged tag.
    fn record(
        &mut self,
        draw: &RecordDraw,
        collected_at: SimTime,
    ) -> (CollectionResponse, Option<CollectionReport>) {
        let ((selector, (step, back)), len, shape, verdicts) = draw;
        let device = u64::from(selector % FRAME_DEVICES);
        let cursor = self.cursors.entry(device).or_default();
        let start = (*cursor + step).saturating_sub(*back);
        let mut ticks: Vec<u64> = (start..start + *len as u64).rev().collect();
        *cursor = (*cursor).max(start + *len as u64);
        match shape {
            6 => ticks.reverse(),
            7 => ticks.insert(ticks.len() / 2, ticks[ticks.len() / 2]),
            _ => {}
        }
        let measurements = ticks
            .iter()
            .zip(verdicts.iter().cycle())
            .map(|(&tick, &verdict)| {
                let at = SimTime::from_secs(10 * tick);
                match verdict % 8 {
                    0..=4 => Measurement::compute_keyed(&self.keyed, at, HEALTHY_IMAGE),
                    5 | 6 => Measurement::compute_keyed(&self.keyed, at, INFECTED_IMAGE),
                    _ => Measurement::from_parts(at, [0; 32], MacTag::new([0u8; 32])),
                }
            })
            .collect();
        let response = CollectionResponse {
            device: DeviceId::new(device),
            measurements,
            prover_time: SimDuration::ZERO,
        };
        let report = (*selector < 8 * FRAME_DEVICES).then(|| {
            self.verifier
                .verify_collection(&response, collected_at)
                .expect("a non-empty response verifies")
        });
        (response, report)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frame ingest takes its records in lane groups and extends the
    /// chains of several devices at once. Whatever the records (repeated
    /// devices, ragged lengths, overlaps, stale, shuffled or refused
    /// reports), the hub and the frame's accounting must equal those of a
    /// hub that ingests the same reports one at a time, and every chain
    /// must verify.
    #[test]
    fn frame_ingest_matches_one_report_at_a_time(frames in arb_frames()) {
        let mut fleet = FrameFleet::new();
        let frames: Vec<(Vec<u8>, Vec<Option<CollectionReport>>)> = (0u64..)
            .zip(&frames)
            .map(|(index, records)| {
                let collected_at = SimTime::from_secs(1_000_000 + index);
                let (responses, reports): (Vec<_>, Vec<_>) = records
                    .iter()
                    .map(|draw| fleet.record(draw, collected_at))
                    .unzip();
                (encode_collection_batch(&responses), reports)
            })
            .collect();
        for capacity in [1usize, 2, 4, 8, 64] {
            let mut framed = VerifierHub::with_history(HistoryMode::Ring(capacity));
            let mut one_at_a_time = framed.clone();
            for (index, (frame, reports)) in frames.iter().enumerate() {
                let mut verified = reports.iter();
                let outcome = framed
                    .ingest_frame(frame, |view| {
                        let report = verified.next().expect("one report per record").clone();
                        if let Some(report) = &report {
                            assert_eq!(report.device(), view.device());
                        }
                        report
                    })
                    .expect("frame decodes");
                let mut expected = FrameIngest {
                    responses: reports.len() as u64,
                    bytes: frame.len() as u64,
                    ..FrameIngest::default()
                };
                for report in reports {
                    match report {
                        Some(report) if one_at_a_time.ingest(report) => expected.accepted += 1,
                        Some(_) => expected.rejected += 1,
                        None => expected.verify_failed += 1,
                    }
                }
                prop_assert_eq!(outcome, expected, "capacity {capacity}, frame {index}");
                prop_assert_eq!(&framed, &one_at_a_time, "capacity {capacity}, frame {index}");
                prop_assert_eq!(framed.verified_chains(), framed.len());
            }
        }
    }
}
