//! Property tests: a small ring history against a never-evicting oracle.
//!
//! The oracle is a ring whose capacity covers every arrival a workload can
//! make, so it retains the whole timeline. The compact history must be a
//! *lossy view with honest books*, never a different timeline: in-order
//! arrival produces identical lifetime tallies and head digests to the
//! oracle, arbitrary arrival keeps every
//! conservation law, and `merge_from` over a shard split reproduces the
//! sequential-ingest state bit for bit (including the hash chain).

use erasmus_core::{DeviceHistory, DeviceId, HistoryEntry, HistoryMode, MeasurementVerdict};
use erasmus_sim::SimTime;
use proptest::collection::vec;
use proptest::prelude::*;

const VERDICTS: [MeasurementVerdict; 3] = [
    MeasurementVerdict::Healthy,
    MeasurementVerdict::Compromised,
    MeasurementVerdict::Forged,
];

/// The worst-verdict-wins order shared with `DeviceHistory`.
fn rank(verdict: MeasurementVerdict) -> u8 {
    match verdict {
        MeasurementVerdict::Healthy => 0,
        MeasurementVerdict::Compromised => 1,
        MeasurementVerdict::Forged => 2,
    }
}

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

    /// Shard split: ingest a prefix into a ring, the suffix into a
    /// never-evicting sibling (a recovering shard), merge — the result must be
    /// bit-identical to one ring ingesting the whole timeline, hash chain
    /// included.
    #[test]
    fn merge_from_matches_sequential_ingest(
        entries in arb_timeline(),
        capacity in 1usize..8,
        split_selector in 0usize..64,
    ) {
        let mut entries = entries;
        entries.sort_by_key(|e| e.timestamp);
        entries.dedup_by_key(|e| e.timestamp);
        let split = split_selector % (entries.len() + 1);
        let device = DeviceId::new(9);

        let mut sequential = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        for e in &entries {
            sequential.observe(e.clone());
        }

        let mut left = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        for e in &entries[..split] {
            left.observe(e.clone());
        }
        let mut right = never_evicting(device);
        for e in &entries[split..] {
            right.observe(e.clone());
        }

        prop_assert!(left.merge_from(&right));
        prop_assert_eq!(left, sequential);
    }

    /// Merging two rings with overlapping (or disjoint) retained windows:
    /// the books stay balanced, the chain verifies, and any timestamp
    /// retained on both sides keeps the worse verdict.
    #[test]
    fn merge_across_overlapping_windows_keeps_the_books(
        left_entries in arb_timeline(),
        right_entries in arb_timeline(),
        capacity in 1usize..8,
    ) {
        let device = DeviceId::new(5);
        let mut left = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        for e in &left_entries {
            left.observe(e.clone());
        }
        let mut right = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
        for e in &right_entries {
            right.observe(e.clone());
        }
        let entries_before = left.len();

        prop_assert!(left.merge_from(&right));

        prop_assert!(left.verify_chain());
        prop_assert!(left.len() >= entries_before);
        prop_assert!(left.resident_len() <= capacity);
        prop_assert_eq!(lifetime_verdicts(&left), left.len());
        prop_assert_eq!(
            left.evictions() + left.resident_len() as u64,
            left.len() as u64
        );
        for theirs in right.entries() {
            if let Some(mine) = left
                .entries()
                .find(|mine| mine.timestamp == theirs.timestamp)
            {
                prop_assert!(
                    rank(mine.verdict) >= rank(theirs.verdict),
                    "worst verdict wins on the shared window"
                );
            }
        }
    }
}

#[test]
fn merge_from_refuses_a_different_device() {
    let mut left = DeviceHistory::with_mode(DeviceId::new(1), HistoryMode::Ring(4));
    let right = DeviceHistory::new(DeviceId::new(2));
    assert!(!left.merge_from(&right));
}
