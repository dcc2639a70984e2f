//! Verifier-side device history: the state timeline reconstructed from
//! successive collections, in O(ring capacity) memory per device.
//!
//! ERASMUS's selling point is that the verifier obtains the prover's *entire
//! history* of measurements rather than a single point-in-time snapshot.
//! Early versions of this crate stored that history literally — every entry
//! in an unbounded `BTreeMap` — which capped fleet runs at a few thousand
//! devices. [`DeviceHistory`] now keeps compact state instead:
//!
//! * a fixed-size **ring** of the K most recent entries (the operator-facing
//!   window: spans, gaps, per-entry verdicts),
//! * a **rollup** of lifetime tallies that survive eviction (entry and
//!   verdict counts, first/last timestamps, first-compromise evidence),
//! * a PCR-style **hash chain**: every entry extends a 32-byte digest,
//!   `H_new = SHA256(H_old || t || verdict || collected_at)`, so the entire
//!   timeline authenticates from one digest no matter how many entries have
//!   been evicted.
//!
//! The chain is split in two: [`DeviceHistory::chain_digest`] covers the
//! sealed prefix (entries already evicted from the ring, folded in eviction
//! order) and [`DeviceHistory::head_digest`] covers the whole timeline.
//! Evicting an entry moves it from the resident window into the sealed
//! prefix without changing the head — the invariant
//! `head == fold(chain, resident entries)` holds at all times and is
//! checked by [`DeviceHistory::verify_chain`].
//!
//! Retention is a capacity: [`HistoryMode::Ring`] sets how many entries stay
//! resident, and [`DeviceHistory::new`] uses [`DEFAULT_RING_CAPACITY`]. A
//! ring whose capacity covers a device's lifetime never evicts, which is how
//! tests stand in for the retain-everything oracle.
//!
//! Chains of different devices are independent, so the hub folds up to
//! eight of them at once through [`extend_digest_x8`], one lane per device.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::as_conversions
)]

use std::collections::VecDeque;

use erasmus_crypto::{Digest, Sha256, Sha256x8};
use erasmus_sim::{SimDuration, SimTime};

use crate::ids::DeviceId;
use crate::report::{CollectionReport, MeasurementVerdict, VerifiedMeasurement};

/// One point of the reconstructed timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// When the prover took the measurement.
    pub timestamp: SimTime,
    /// What the verifier concluded about it.
    pub verdict: MeasurementVerdict,
    /// When the verifier learned about it (collection time).
    pub collected_at: SimTime,
}

/// A contiguous run of measurements sharing the same verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistorySpan {
    /// Verdict shared by every measurement in the span.
    pub verdict: MeasurementVerdict,
    /// Timestamp of the first measurement in the span.
    pub start: SimTime,
    /// Timestamp of the last measurement in the span.
    pub end: SimTime,
    /// Number of measurements in the span.
    pub measurements: usize,
}

/// Resident entries per device when no capacity is given: large enough to
/// cover any in-flight reordering window the fleet's fault injection
/// produces, so lifetime totals match a retain-everything history.
pub const DEFAULT_RING_CAPACITY: usize = 64;

/// Retention policy for a [`DeviceHistory`]'s resident entry window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryMode {
    /// Keep only the most recent entries, up to the given capacity; older
    /// entries are sealed into the hash chain and evicted. Memory is
    /// O(capacity) per device regardless of lifetime.
    Ring(usize),
}

impl HistoryMode {
    /// The resident-window capacity. A `Ring(0)` capacity is treated as
    /// `Ring(1)` — an empty resident window would make every query blind.
    pub fn capacity(self) -> usize {
        let HistoryMode::Ring(capacity) = self;
        capacity.max(1)
    }
}

impl Default for HistoryMode {
    fn default() -> Self {
        HistoryMode::Ring(DEFAULT_RING_CAPACITY)
    }
}

/// Extends a history chain digest by one entry:
/// `SHA256(prev || t_be || verdict_tag || collected_at_be)`.
///
/// `verdict_tag` is the verdict's 0/1/2 tag, the byte the snapshot codec
/// writes (healthy/compromised/forged — the severity order). This is the
/// scalar fold primitive behind both [`DeviceHistory::chain_digest`] and
/// [`DeviceHistory::head_digest`], and the reference its lane twin
/// [`extend_digest_x8`] must match. It is exported so external tooling (the
/// snapshot fuzz model, swarm aggregation) can recompute chains from raw
/// wire fields without a `DeviceHistory` in hand.
pub fn extend_digest(
    prev: &[u8; 32],
    timestamp_nanos: u64,
    verdict_tag: u8,
    collected_at_nanos: u64,
) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(prev);
    hasher.update(&timestamp_nanos.to_be_bytes());
    hasher.update(&[verdict_tag]);
    hasher.update(&collected_at_nanos.to_be_bytes());
    hasher.finalize()
}

/// Bytes one chain step hashes: a digest, two timestamps and a tag.
const CHAIN_MESSAGE_LEN: usize = 32 + 8 + 1 + 8;

/// Eight independent chain steps in one [`Sha256x8`] pass: lane `l` equals
/// [`extend_digest`] on `prev[l]`, `timestamp_nanos[l]`, `verdict_tag[l]`
/// and `collected_at_nanos[l]`.
///
/// Each lane's 49-byte message and its padding fit one SHA-256 block, so a
/// step costs one lane-interleaved compression. [`crate::VerifierHub`]
/// folds up to eight devices' chains through it when it ingests a frame
/// and when it re-verifies its chains.
pub fn extend_digest_x8(
    prev: &[[u8; 32]; 8],
    timestamp_nanos: [u64; 8],
    verdict_tag: [u8; 8],
    collected_at_nanos: [u64; 8],
) -> [[u8; 32]; 8] {
    let mut messages = [[0u8; CHAIN_MESSAGE_LEN]; 8];
    let fields = prev
        .iter()
        .zip(timestamp_nanos)
        .zip(verdict_tag)
        .zip(collected_at_nanos);
    for (message, (((prev, timestamp), tag), collected)) in messages.iter_mut().zip(fields) {
        let (digest, rest) = message.split_at_mut(32);
        digest.copy_from_slice(prev);
        let (timestamp_be, rest) = rest.split_at_mut(8);
        timestamp_be.copy_from_slice(&timestamp.to_be_bytes());
        let (tag_byte, collected_be) = rest.split_at_mut(1);
        tag_byte.fill(tag);
        collected_be.copy_from_slice(&collected.to_be_bytes());
    }
    Sha256x8::digest(messages.each_ref().map(|message| message.as_slice()))
}

fn extend_with_entry(prev: &[u8; 32], entry: &HistoryEntry) -> [u8; 32] {
    extend_digest(
        prev,
        entry.timestamp.as_nanos(),
        entry.verdict.tag(),
        entry.collected_at.as_nanos(),
    )
}

/// Chains [`fold_chains`] extends in one lockstep pass: the width of
/// [`extend_digest_x8`].
pub(crate) const LANES: usize = 8;

/// A folded [`ChainFold`]: its final digest, and the digest it kept.
pub(crate) type Folded = ([u8; 32], Option<[u8; 32]>);

/// One chain for [`fold_chains`]: a digest, the entries to extend it by
/// (oldest first), and optionally the point at which to keep the digest.
pub(crate) struct ChainFold<I> {
    digest: [u8; 32],
    entries: I,
    /// Steps left until `sealed` is taken; 0 once taken or if never wanted.
    seal_in: usize,
    sealed: Option<[u8; 32]>,
}

impl<I: ExactSizeIterator<Item = HistoryEntry>> ChainFold<I> {
    /// Extends `digest` by every entry of `entries`. With `seal_after > 0`,
    /// the digest right after the `seal_after`-th entry is kept too.
    pub(crate) fn new(digest: [u8; 32], entries: I, seal_after: usize) -> Self {
        Self {
            digest,
            entries,
            seal_in: seal_after,
            sealed: None,
        }
    }

    fn step(&mut self, digest: [u8; 32]) {
        self.digest = digest;
        if self.seal_in == 1 {
            self.sealed = Some(digest);
        }
        self.seal_in = self.seal_in.saturating_sub(1);
    }

    /// Folds the entries left in scalar and returns the final digest and
    /// the kept one.
    fn finish(mut self) -> Folded {
        while let Some(entry) = self.entries.next() {
            self.step(extend_with_entry(&self.digest, &entry));
        }
        (self.digest, self.sealed)
    }
}

/// Folds up to [`LANES`] independent chains, one per occupied lane, and
/// returns each lane's final and kept digests in the same positions.
///
/// While two or more lanes are occupied, the lanes step together through
/// [`extend_digest_x8`] as long as every one of them still has an entry;
/// the ragged tails then finish in scalar. A lone chain folds in scalar
/// throughout, since one lane of an 8-lane pass costs more than one
/// [`extend_digest`].
pub(crate) fn fold_chains<I>(mut lanes: [Option<ChainFold<I>>; LANES]) -> [Option<Folded>; LANES]
where
    I: ExactSizeIterator<Item = HistoryEntry>,
{
    let steps = if lanes.iter().flatten().count() > 1 {
        lanes
            .iter()
            .flatten()
            .map(|lane| lane.entries.len())
            .min()
            .unwrap_or(0)
    } else {
        0
    };
    for _ in 0..steps {
        let mut prev = [[0u8; 32]; LANES];
        let mut timestamps = [0u64; LANES];
        let mut tags = [0u8; LANES];
        let mut collected = [0u64; LANES];
        let inputs = prev
            .iter_mut()
            .zip(&mut timestamps)
            .zip(&mut tags)
            .zip(&mut collected);
        for ((((prev, timestamp), tag), collected), lane) in inputs.zip(&mut lanes) {
            let Some(lane) = lane else { continue };
            let Some(entry) = lane.entries.next() else {
                continue;
            };
            *prev = lane.digest;
            *timestamp = entry.timestamp.as_nanos();
            *tag = entry.verdict.tag();
            *collected = entry.collected_at.as_nanos();
        }
        let digests = extend_digest_x8(&prev, timestamps, tags, collected);
        for (lane, digest) in lanes.iter_mut().zip(digests) {
            if let Some(lane) = lane {
                lane.step(digest);
            }
        }
    }
    lanes.map(|lane| lane.map(ChainFold::finish))
}

/// A report's entries oldest first: the order in which
/// [`DeviceHistory::ingest`] appends a newest-first report.
pub(crate) fn oldest_first(
    report: &CollectionReport,
) -> impl ExactSizeIterator<Item = HistoryEntry> + Clone + '_ {
    let collected_at = report.collected_at();
    report
        .measurements()
        .iter()
        .rev()
        .map(move |vm| HistoryEntry {
            timestamp: vm.measurement.timestamp(),
            verdict: vm.verdict,
            collected_at,
        })
}

/// Whether `measurements` are strictly newest first, as provers send them.
fn newest_first(measurements: &[VerifiedMeasurement]) -> bool {
    measurements
        .iter()
        .zip(measurements.iter().skip(1))
        .all(|(newer, older)| newer.measurement.timestamp() > older.measurement.timestamp())
}

/// Lifetime tallies that survive ring eviction. Every field is monotone
/// under ingestion, which keeps the rollup order-independent where the
/// resident window cannot be.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct HistoryRollup {
    /// Distinct measurements ever recorded (resident + evicted).
    pub(crate) entries: u64,
    /// Entries sealed into the chain and dropped from the ring.
    pub(crate) evictions: u64,
    /// Measurements discarded because they predate the retained window of a
    /// ring that has already evicted (late, reordered deliveries).
    pub(crate) stale_discards: u64,
    /// Lifetime verdict tallies; a worst-verdict downgrade of a resident
    /// entry moves one count between buckets.
    pub(crate) healthy: u64,
    /// See [`HistoryRollup::healthy`].
    pub(crate) compromised: u64,
    /// See [`HistoryRollup::healthy`].
    pub(crate) forged: u64,
    /// Earliest measurement timestamp ever recorded.
    pub(crate) first_timestamp: Option<SimTime>,
    /// Earliest measurement timestamp that ever carried a non-healthy
    /// verdict.
    pub(crate) first_compromise_at: Option<SimTime>,
    /// Earliest collection time at which non-healthy evidence was seen.
    pub(crate) compromise_detected_at: Option<SimTime>,
}

impl HistoryRollup {
    fn verdict_count_mut(&mut self, verdict: MeasurementVerdict) -> &mut u64 {
        match verdict {
            MeasurementVerdict::Healthy => &mut self.healthy,
            MeasurementVerdict::Compromised => &mut self.compromised,
            MeasurementVerdict::Forged => &mut self.forged,
        }
    }

    fn verdict_count(&self, verdict: MeasurementVerdict) -> u64 {
        match verdict {
            MeasurementVerdict::Healthy => self.healthy,
            MeasurementVerdict::Compromised => self.compromised,
            MeasurementVerdict::Forged => self.forged,
        }
    }

    fn note_compromise(&mut self, measured: SimTime, collected: SimTime) {
        self.first_compromise_at = Some(match self.first_compromise_at {
            Some(at) => at.min(measured),
            None => measured,
        });
        self.compromise_detected_at = Some(match self.compromise_detected_at {
            Some(at) => at.min(collected),
            None => collected,
        });
    }
}

/// The reconstructed state timeline of one device, in compact form.
///
/// # Example
///
/// ```
/// use erasmus_core::{history::DeviceHistory, DeviceId, HistoryMode};
///
/// let history = DeviceHistory::with_mode(DeviceId::new(1), HistoryMode::Ring(16));
/// assert!(history.is_empty());
/// assert!(history.first_compromise().is_none());
/// assert!(history.verify_chain());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceHistory {
    pub(crate) device: DeviceId,
    /// Most entries the resident window holds (at least 1).
    pub(crate) capacity: usize,
    /// Resident window, strictly ascending by timestamp.
    pub(crate) ring: VecDeque<HistoryEntry>,
    /// Digest of the sealed (evicted) prefix, folded in eviction order.
    /// All-zero until the first eviction.
    pub(crate) chain: [u8; 32],
    /// Digest of the entire timeline: the sealed prefix extended by every
    /// resident entry in timestamp order.
    pub(crate) head: [u8; 32],
    pub(crate) collections: u64,
    pub(crate) rollup: HistoryRollup,
}

impl DeviceHistory {
    /// Creates an empty history for `device` holding up to
    /// [`DEFAULT_RING_CAPACITY`] resident entries.
    pub fn new(device: DeviceId) -> Self {
        Self::with_mode(device, HistoryMode::default())
    }

    /// Creates an empty history for `device` under the given retention
    /// mode (see [`HistoryMode::capacity`] for the clamp).
    pub fn with_mode(device: DeviceId, mode: HistoryMode) -> Self {
        Self {
            device,
            capacity: mode.capacity(),
            ring: VecDeque::new(),
            chain: [0u8; 32],
            head: [0u8; 32],
            collections: 0,
            rollup: HistoryRollup::default(),
        }
    }

    /// The device this history belongs to.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Most entries the resident window holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct measurements ever recorded, resident or evicted.
    pub fn len(&self) -> usize {
        usize::try_from(self.rollup.entries).unwrap_or(usize::MAX)
    }

    /// Whether no measurement has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.rollup.entries == 0
    }

    /// Number of entries currently resident in the ring.
    pub fn resident_len(&self) -> usize {
        self.ring.len()
    }

    /// Number of entries sealed into the chain and evicted from the ring.
    /// Conservation: `evictions() + resident_len() == len()`.
    pub fn evictions(&self) -> u64 {
        self.rollup.evictions
    }

    /// Number of measurements discarded for predating an already-evicted
    /// window (late, reordered deliveries).
    pub fn stale_discards(&self) -> u64 {
        self.rollup.stale_discards
    }

    /// Number of collection reports folded in.
    pub fn collections(&self) -> u64 {
        self.collections
    }

    /// Digest of the sealed (evicted) prefix of the timeline. All-zero
    /// until the first eviction.
    pub fn chain_digest(&self) -> &[u8; 32] {
        &self.chain
    }

    /// Digest of the entire timeline: the sealed prefix extended by every
    /// resident entry. This is the device's PCR — it authenticates the
    /// full history in 32 bytes and is invariant under eviction.
    pub fn head_digest(&self) -> &[u8; 32] {
        &self.head
    }

    /// Recomputes the head from the sealed chain and the resident window
    /// and checks it against the stored head. O(resident entries).
    pub fn verify_chain(&self) -> bool {
        self.fold_resident() == self.head
    }

    fn fold_resident(&self) -> [u8; 32] {
        self.resident_fold().finish().0
    }

    /// [`DeviceHistory::verify_chain`]'s fold, as a [`fold_chains`] lane:
    /// the sealed chain extended by the resident window.
    pub(crate) fn resident_fold(
        &self,
    ) -> ChainFold<impl ExactSizeIterator<Item = HistoryEntry> + '_> {
        ChainFold::new(self.chain, self.ring.iter().cloned(), 0)
    }

    /// Folds a collection report into the history.
    ///
    /// Measurements already known (same timestamp) keep their existing
    /// verdict unless the new report downgrades them (e.g. a re-collected
    /// measurement now fails verification, which indicates tampering after
    /// the fact).
    ///
    /// A newest-first report's entries that are newer than every resident
    /// are appended with one [`extend_digest`] each. When the report is
    /// wholly such an append and seals either none or all of the old
    /// residents, [`crate::VerifierHub`]'s frame ingest places it with the
    /// same code and extends its chain in a lane beside other devices'
    /// chains; the resulting history is identical.
    ///
    /// Reports about a *different* device are rejected wholesale: nothing is
    /// recorded, [`DeviceHistory::collections`] does not advance, and the
    /// call returns `false`. Mixing devices' timelines would corrupt the
    /// reconstruction (a healthy neighbour could mask a compromise window);
    /// route multi-device fleets through [`crate::VerifierHub`] instead.
    pub fn ingest(&mut self, report: &CollectionReport) -> bool {
        if report.device() != self.device {
            return false;
        }
        self.collections += 1;
        let measurements = report.measurements();
        let entry = |vm: &VerifiedMeasurement| HistoryEntry {
            timestamp: vm.measurement.timestamp(),
            verdict: vm.verdict,
            collected_at: report.collected_at(),
        };
        if !newest_first(measurements) {
            // Shuffled or repeated timestamps: sort a copy so the ring never
            // mistakes an in-report older entry for one behind the sealed
            // window.
            let mut entries: Vec<HistoryEntry> = measurements.iter().map(entry).collect();
            entries.sort_by_key(|entry| entry.timestamp);
            for entry in entries {
                self.observe(entry);
            }
            return true;
        }
        // Provers answer `latest k` strictly newest-first, so reverse order
        // is oldest-first. Entries no newer than the newest resident go
        // through `observe` (dedup, downgrade, gap fill or stale discard);
        // the rest are all newer than every resident and are appended.
        let newest_resident = self.last_timestamp();
        let mut entries = oldest_first(report).peekable();
        while let Some(known) =
            entries.next_if(|e| newest_resident.is_some_and(|newest| e.timestamp <= newest))
        {
            self.observe(known);
        }
        self.append(entries);
        true
    }

    /// Places `report` the way [`DeviceHistory::ingest`] would, but only
    /// when `ingest` would append it wholesale without folding old
    /// residents into the chain one by one: a non-empty report about this
    /// device, strictly newest first, every entry newer than the newest
    /// resident, sealing none or all of the old residents.
    ///
    /// Returns `None`, with the history untouched, for any other report.
    /// Otherwise the head is left to extend: fold [`oldest_first`] onto the
    /// current head with the returned `sealed_new` count (see
    /// [`DeviceHistory::place`]) and hand the result to
    /// [`DeviceHistory::settle`].
    pub(crate) fn place_append(&mut self, report: &CollectionReport) -> Option<usize> {
        let measurements = report.measurements();
        let oldest = measurements.last()?.measurement.timestamp();
        let resident = self.ring.len();
        let evicted = self.evicted_by(measurements.len());
        let wholesale = report.device() == self.device
            && newest_first(measurements)
            && self.last_timestamp().is_none_or(|newest| oldest > newest)
            && (evicted == 0 || evicted >= resident);
        if !wholesale {
            return None;
        }
        self.collections += 1;
        Some(self.place(oldest_first(report)))
    }

    /// Records one verified measurement under the worst-verdict-wins rule
    /// that [`DeviceHistory::ingest`] applies to every entry it cannot
    /// simply append: a known timestamp keeps its verdict unless the
    /// incoming one is more alarming; a fresh timestamp extends the hash
    /// chain; a timestamp older than an already-evicted window is counted
    /// as a stale discard and dropped.
    pub fn observe(&mut self, entry: HistoryEntry) {
        match self
            .ring
            .binary_search_by_key(&entry.timestamp, |resident| resident.timestamp)
        {
            Ok(index) => {
                let Some(resident) = self.ring.get_mut(index) else {
                    return;
                };
                let old = resident.verdict;
                if entry.verdict.tag() > old.tag() {
                    resident.verdict = entry.verdict;
                    resident.collected_at = entry.collected_at;
                    *self.rollup.verdict_count_mut(old) -= 1;
                    *self.rollup.verdict_count_mut(entry.verdict) += 1;
                    self.rollup
                        .note_compromise(entry.timestamp, entry.collected_at);
                    self.head = self.fold_resident();
                }
            }
            Err(index) if index == self.ring.len() => {
                // In-order arrival is a pure PCR extend.
                self.append(std::iter::once(entry));
            }
            Err(index) => {
                if index == 0 && self.rollup.evictions > 0 {
                    // The entry predates the retained window: the chain has
                    // already sealed past it.
                    self.rollup.stale_discards += 1;
                    return;
                }
                self.record_new(&entry);
                self.ring.insert(index, entry);
                self.head = self.fold_resident();
                while self.ring.len() > self.capacity {
                    let Some(evicted) = self.ring.pop_front() else {
                        break;
                    };
                    self.chain = extend_with_entry(&self.chain, &evicted);
                    self.rollup.evictions += 1;
                }
            }
        }
    }

    /// Appends entries that are strictly ascending and newer than every
    /// resident, with one `extend_digest` each: [`DeviceHistory::place`]
    /// them, then extend the head in scalar.
    fn append(&mut self, entries: impl ExactSizeIterator<Item = HistoryEntry> + Clone) {
        let sealed_new = self.place(entries.clone());
        let (head, sealed) = ChainFold::new(self.head, entries, sealed_new).finish();
        self.settle(head, sealed);
    }

    /// How many residents appending `appended` entries pushes out.
    fn evicted_by(&self, appended: usize) -> usize {
        (self.ring.len() + appended).saturating_sub(self.capacity)
    }

    /// The placement half of an append of entries that are strictly
    /// ascending and newer than every resident: rollup, ring push and
    /// evict, eviction count, and the sealed chain. The head is left for
    /// the caller to extend by the same entries.
    ///
    /// The ring evicts in timestamp order: first the old residents, then
    /// the new entries. So the sealed chain needs no hashing of its own.
    /// Once every old resident is sealed, the chain equals the head before
    /// the append, which this sets. Once new entry `j` is sealed, it equals
    /// the head right after `j` was appended: the returned `sealed_new` is
    /// the last such `j` (0 if no new entry is sealed), whose head the
    /// caller stores as the chain. Only a partial seal of the old residents
    /// folds them into the chain one by one, here.
    fn place(&mut self, entries: impl ExactSizeIterator<Item = HistoryEntry>) -> usize {
        let resident = self.ring.len();
        let evicted = self.evicted_by(entries.len());
        if evicted >= resident {
            self.chain = self.head;
        } else {
            for sealed in self.ring.iter().take(evicted) {
                self.chain = extend_with_entry(&self.chain, sealed);
            }
        }
        for entry in entries {
            self.record_new(&entry);
            self.ring.push_back(entry);
            while self.ring.len() > self.capacity && self.ring.pop_front().is_some() {
                self.rollup.evictions += 1;
            }
        }
        evicted.saturating_sub(resident)
    }

    /// The hashing half of an append: stores the extended head, and the
    /// chain when the append sealed new entries.
    pub(crate) fn settle(&mut self, head: [u8; 32], sealed: Option<[u8; 32]>) {
        self.head = head;
        if let Some(chain) = sealed {
            self.chain = chain;
        }
    }

    /// Rollup bookkeeping for a timestamp the history has not seen before.
    fn record_new(&mut self, entry: &HistoryEntry) {
        self.rollup.entries += 1;
        *self.rollup.verdict_count_mut(entry.verdict) += 1;
        self.rollup.first_timestamp = Some(match self.rollup.first_timestamp {
            Some(at) => at.min(entry.timestamp),
            None => entry.timestamp,
        });
        if entry.verdict != MeasurementVerdict::Healthy {
            self.rollup
                .note_compromise(entry.timestamp, entry.collected_at);
        }
    }

    /// Resident entries in timestamp order.
    pub fn entries(&self) -> impl Iterator<Item = &HistoryEntry> {
        self.ring.iter()
    }

    /// Timestamp of the earliest measurement ever recorded (survives
    /// eviction).
    pub fn first_timestamp(&self) -> Option<SimTime> {
        self.rollup.first_timestamp
    }

    /// Timestamp of the most recent measurement recorded.
    pub fn last_timestamp(&self) -> Option<SimTime> {
        self.ring.back().map(|entry| entry.timestamp)
    }

    /// The timestamp of the earliest measurement showing compromise or
    /// tampering, if any (survives eviction).
    pub fn first_compromise(&self) -> Option<SimTime> {
        self.rollup.first_compromise_at
    }

    /// The time at which the verifier *learned* of the first compromise:
    /// the earliest collection time that carried non-healthy evidence.
    pub fn first_compromise_detected_at(&self) -> Option<SimTime> {
        self.rollup.compromise_detected_at
    }

    /// Detection latency: from the first incriminating measurement to the
    /// collection that delivered it.
    pub fn detection_latency(&self) -> Option<SimDuration> {
        match (self.first_compromise(), self.first_compromise_detected_at()) {
            (Some(measured), Some(collected)) => {
                Some(collected.saturating_duration_since(measured))
            }
            _ => None,
        }
    }

    /// Lifetime number of measurements with a given verdict (survives
    /// eviction; a resident downgrade moves one count between buckets).
    pub fn count(&self, verdict: MeasurementVerdict) -> usize {
        usize::try_from(self.rollup.verdict_count(verdict)).unwrap_or(usize::MAX)
    }

    /// Collapses the resident window into contiguous spans of equal
    /// verdict. Allocation-free: spans are produced lazily off the ring.
    pub fn spans(&self) -> impl Iterator<Item = HistorySpan> + '_ {
        let mut entries = self.ring.iter().peekable();
        std::iter::from_fn(move || {
            let first = entries.next()?;
            let mut span = HistorySpan {
                verdict: first.verdict,
                start: first.timestamp,
                end: first.timestamp,
                measurements: 1,
            };
            while let Some(next) = entries.peek() {
                if next.verdict != span.verdict {
                    break;
                }
                span.end = next.timestamp;
                span.measurements += 1;
                entries.next();
            }
            Some(span)
        })
    }

    /// Largest gap between consecutive resident measurement timestamps, if
    /// at least two are retained. Large gaps relative to `T_M` point at
    /// deleted evidence or an undersized buffer. Allocation-free.
    pub fn largest_gap(&self) -> Option<SimDuration> {
        self.ring
            .iter()
            .zip(self.ring.iter().skip(1))
            .map(|(earlier, later)| later.timestamp.duration_since(earlier.timestamp))
            .max()
    }
}

#[cfg(test)]
#[expect(
    clippy::as_conversions,
    reason = "test fixtures widen ring lengths to entry counts and ticks"
)]
mod tests {
    use super::*;
    use crate::config::ProverConfig;
    use crate::protocol::CollectionRequest;
    use crate::prover::Prover;
    use crate::verifier::Verifier;
    use erasmus_crypto::MacAlgorithm;
    use erasmus_hw::{DeviceKey, DeviceProfile};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn provision() -> (Prover, Verifier) {
        let key = DeviceKey::from_bytes([0x44u8; 32]);
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
        verifier.learn_reference_image(prover.mcu().app_memory());
        verifier.set_expected_interval(SimDuration::from_secs(10));
        (prover, verifier)
    }

    fn collect_into(
        history: &mut DeviceHistory,
        prover: &mut Prover,
        verifier: &mut Verifier,
        at_secs: u64,
        k: usize,
    ) {
        prover
            .run_until(SimTime::from_secs(at_secs))
            .expect("measurements");
        let response =
            prover.handle_collection(&CollectionRequest::latest(k), SimTime::from_secs(at_secs));
        let report = verifier
            .verify_collection(&response, SimTime::from_secs(at_secs))
            .expect("report");
        assert!(
            history.ingest(&report),
            "report matches the history's device"
        );
    }

    fn healthy_at(secs: u64) -> HistoryEntry {
        HistoryEntry {
            timestamp: SimTime::from_secs(secs),
            verdict: MeasurementVerdict::Healthy,
            collected_at: SimTime::from_secs(secs + 5),
        }
    }

    #[test]
    fn accumulates_and_deduplicates_across_collections() {
        let (mut prover, mut verifier) = provision();
        let mut history = DeviceHistory::new(DeviceId::new(1));
        collect_into(&mut history, &mut prover, &mut verifier, 60, 6);
        // Overlapping second collection re-delivers some measurements.
        collect_into(&mut history, &mut prover, &mut verifier, 120, 12);
        assert_eq!(history.collections(), 2);
        assert_eq!(history.len(), 12); // measurements at 10..120, deduplicated
        assert!(history.first_compromise().is_none());
        assert_eq!(history.count(MeasurementVerdict::Healthy), 12);
        assert_eq!(history.largest_gap(), Some(SimDuration::from_secs(10)));
        assert_eq!(history.spans().count(), 1);
        assert!(history.verify_chain());
        assert_eq!(history.evictions(), 0);
        assert_eq!(history.resident_len(), 12);
    }

    #[test]
    fn compromise_window_is_reconstructed() {
        let (mut prover, mut verifier) = provision();
        let mut history = DeviceHistory::new(DeviceId::new(1));
        collect_into(&mut history, &mut prover, &mut verifier, 60, 6);

        // Persistent implant lands at t = 73 s.
        prover
            .run_until(SimTime::from_secs(73))
            .expect("measurements");
        prover
            .mcu_mut()
            .write_app_memory(0, b"implant")
            .expect("infect");
        collect_into(&mut history, &mut prover, &mut verifier, 120, 6);

        assert_eq!(history.first_compromise(), Some(SimTime::from_secs(80)));
        assert_eq!(
            history.first_compromise_detected_at(),
            Some(SimTime::from_secs(120))
        );
        assert_eq!(
            history.detection_latency(),
            Some(SimDuration::from_secs(40))
        );
        let spans: Vec<HistorySpan> = history.spans().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].verdict, MeasurementVerdict::Healthy);
        assert_eq!(spans[0].measurements, 7); // t = 10..70
        assert_eq!(spans[1].verdict, MeasurementVerdict::Compromised);
        assert_eq!(spans[1].start, SimTime::from_secs(80));
        assert_eq!(spans[1].end, SimTime::from_secs(120));
    }

    #[test]
    fn wrong_device_reports_are_rejected() {
        let (mut prover, mut verifier) = provision();
        prover
            .run_until(SimTime::from_secs(40))
            .expect("measurements");
        let response =
            prover.handle_collection(&CollectionRequest::latest(4), SimTime::from_secs(40));
        let report = verifier
            .verify_collection(&response, SimTime::from_secs(40))
            .expect("report");

        // The prover is device 1; this history tracks device 2.
        let mut other = DeviceHistory::new(DeviceId::new(2));
        assert!(!other.ingest(&report));
        assert!(other.is_empty(), "rejected report must record nothing");
        assert_eq!(other.collections(), 0, "rejected report must not count");

        // The right history still accepts it.
        let mut own = DeviceHistory::new(DeviceId::new(1));
        assert!(own.ingest(&report));
        assert_eq!(own.len(), 4);
        assert_eq!(own.collections(), 1);
    }

    #[test]
    fn empty_history_queries() {
        let history = DeviceHistory::new(DeviceId::new(9));
        assert!(history.is_empty());
        assert_eq!(history.len(), 0);
        assert!(history.spans().next().is_none());
        assert!(history.largest_gap().is_none());
        assert!(history.detection_latency().is_none());
        assert!(history.first_timestamp().is_none());
        assert!(history.last_timestamp().is_none());
        assert_eq!(history.device(), DeviceId::new(9));
        assert_eq!(history.chain_digest(), &[0u8; 32]);
        assert_eq!(history.head_digest(), &[0u8; 32]);
        assert!(history.verify_chain());
    }

    #[test]
    fn worst_verdict_wins_on_reingestion() {
        let (mut prover, mut verifier) = provision();
        let mut history = DeviceHistory::new(DeviceId::new(1));
        collect_into(&mut history, &mut prover, &mut verifier, 40, 4);
        assert_eq!(history.count(MeasurementVerdict::Healthy), 4);

        // Malware later replaces the stored measurement for t = 30 with a
        // forgery; a second collection re-delivers that slot.
        let slot = prover.buffer().slot_for(SimTime::from_secs(30));
        prover.buffer_mut().tamper_replace(
            slot,
            crate::Measurement::from_parts(
                SimTime::from_secs(30),
                [0u8; 32],
                erasmus_crypto::MacTag::new(vec![0u8; 32]),
            ),
        );
        collect_into(&mut history, &mut prover, &mut verifier, 80, 8);
        assert_eq!(history.count(MeasurementVerdict::Forged), 1);
        // The forged verdict replaced the previously healthy one for t = 30.
        let entry = history
            .entries()
            .find(|e| e.timestamp == SimTime::from_secs(30))
            .expect("entry exists");
        assert_eq!(entry.verdict, MeasurementVerdict::Forged);
        // The downgrade rewrote the resident window, so the head must have
        // been refolded over it.
        assert!(history.verify_chain());
    }

    #[test]
    fn ring_evicts_oldest_and_seals_the_chain() {
        // The oracle's capacity covers all 8 lifetime entries: it never
        // evicts.
        let mut ring = DeviceHistory::with_mode(DeviceId::new(3), HistoryMode::Ring(4));
        let mut covering = DeviceHistory::with_mode(DeviceId::new(3), HistoryMode::Ring(8));
        for secs in (10..=80).step_by(10) {
            ring.observe(healthy_at(secs));
            covering.observe(healthy_at(secs));
        }
        assert_eq!(ring.len(), 8, "lifetime count survives eviction");
        assert_eq!(ring.resident_len(), 4);
        assert_eq!(ring.evictions(), 4);
        assert_eq!(
            ring.evictions() + ring.resident_len() as u64,
            ring.len() as u64
        );
        assert_eq!(ring.first_timestamp(), Some(SimTime::from_secs(10)));
        assert_eq!(ring.last_timestamp(), Some(SimTime::from_secs(80)));
        assert_eq!(
            ring.entries().next().map(|e| e.timestamp),
            Some(SimTime::from_secs(50)),
            "resident window holds the most recent K"
        );
        assert!(ring.verify_chain());
        assert_ne!(ring.chain_digest(), &[0u8; 32]);
        // The head authenticates the whole timeline: eviction must not
        // change it, so the ring and the never-evicting oracle agree.
        assert_eq!(ring.head_digest(), covering.head_digest());
        assert_eq!(covering.evictions(), 0);
        assert_eq!(covering.chain_digest(), &[0u8; 32]);
    }

    #[test]
    fn ring_discards_stale_arrivals_behind_the_sealed_window() {
        let mut history = DeviceHistory::with_mode(DeviceId::new(4), HistoryMode::Ring(2));
        for secs in [10, 20, 30, 40] {
            history.observe(healthy_at(secs));
        }
        assert_eq!(history.evictions(), 2);
        let head_before = *history.head_digest();
        // t = 15 predates the retained window [30, 40]: sealed history
        // cannot be rewritten, so the arrival is counted and dropped.
        history.observe(healthy_at(15));
        assert_eq!(history.stale_discards(), 1);
        assert_eq!(history.len(), 4, "stale arrivals do not count as entries");
        assert_eq!(history.head_digest(), &head_before);
        assert!(history.verify_chain());
        // A duplicate of a resident entry is still a dedup, not a discard.
        history.observe(healthy_at(30));
        assert_eq!(history.stale_discards(), 1);
        assert_eq!(history.len(), 4);
    }

    #[test]
    fn out_of_order_arrivals_refold_the_head() {
        let mut in_order = DeviceHistory::new(DeviceId::new(5));
        let mut shuffled = DeviceHistory::new(DeviceId::new(5));
        for secs in [10, 20, 30, 40] {
            in_order.observe(healthy_at(secs));
        }
        for secs in [30, 10, 40, 20] {
            shuffled.observe(healthy_at(secs));
        }
        assert_eq!(in_order, shuffled, "same set, same compact state");
        assert!(shuffled.verify_chain());
        assert_eq!(in_order.head_digest(), shuffled.head_digest());
    }

    /// One generated report: `(start shift, length, shape, verdict
    /// selectors)`. See `report_at`.
    type ReportDraw = ((u64, u64), usize, u8, Vec<u8>);

    fn arb_reports() -> impl Strategy<Value = Vec<ReportDraw>> {
        vec(
            (
                (0u64..24, 0u64..24),
                1usize..20,
                0u8..8,
                vec(any::<u8>(), 20),
            ),
            1..12,
        )
    }

    /// Builds the report a draw describes. Its window of `len` consecutive
    /// 10 s ticks starts `step` ticks past `cursor`, pulled back `back`
    /// ticks, so successive reports land newer than, straddling,
    /// overlapping or predating what came before; `cursor` then moves to
    /// the newest tick seen. Shapes 0–5 keep the prover's newest-first
    /// order, 6 reverses it and 7 repeats the middle timestamp. Selectors
    /// pick mostly healthy verdicts, so re-deliveries can downgrade.
    fn report_at(cursor: &mut u64, draw: &ReportDraw, collected_at: SimTime) -> CollectionReport {
        let ((step, back), len, shape, selectors) = draw;
        let start = (*cursor + step).saturating_sub(*back);
        let mut ticks: Vec<u64> = (start..start + *len as u64).rev().collect();
        *cursor = (*cursor).max(start + *len as u64);
        match shape {
            6 => ticks.reverse(),
            7 => ticks.insert(ticks.len() / 2, ticks[ticks.len() / 2]),
            _ => {}
        }
        let verified = ticks
            .iter()
            .zip(selectors.iter().cycle())
            .map(|(&tick, &selector)| VerifiedMeasurement {
                measurement: crate::Measurement::from_parts(
                    SimTime::from_secs(10 * tick),
                    [0u8; 32],
                    erasmus_crypto::MacTag::new([0u8; 32]),
                ),
                verdict: match selector % 8 {
                    0..=4 => MeasurementVerdict::Healthy,
                    5 | 6 => MeasurementVerdict::Compromised,
                    _ => MeasurementVerdict::Forged,
                },
            })
            .collect();
        CollectionReport::new(
            DeviceId::new(1),
            verified,
            crate::AttestationVerdict::AllHealthy,
            0,
            SimDuration::ZERO,
            collected_at,
        )
    }

    /// The entry-at-a-time model of `ingest`: one collection, then every
    /// entry oldest-first through `observe`.
    fn observe_oldest_first(history: &mut DeviceHistory, report: &CollectionReport) {
        history.collections += 1;
        let mut entries: Vec<HistoryEntry> = report
            .measurements()
            .iter()
            .map(|vm| HistoryEntry {
                timestamp: vm.measurement.timestamp(),
                verdict: vm.verdict,
                collected_at: report.collected_at(),
            })
            .collect();
        entries.sort_by_key(|entry| entry.timestamp);
        for entry in entries {
            history.observe(entry);
        }
    }

    proptest! {
        /// Every lane of the 8-lane chain step is the scalar step.
        #[test]
        fn extend_digest_x8_matches_extend_digest_in_every_lane(
            digests in vec(any::<u8>(), 8 * 32),
            fields in vec((any::<u64>(), any::<u8>(), any::<u64>()), 8),
        ) {
            let prev: [[u8; 32]; 8] =
                std::array::from_fn(|lane| digests[32 * lane..32 * (lane + 1)].try_into().unwrap());
            let lanes = extend_digest_x8(
                &prev,
                std::array::from_fn(|lane| fields[lane].0),
                std::array::from_fn(|lane| fields[lane].1),
                std::array::from_fn(|lane| fields[lane].2),
            );
            for (lane, (digest, &(timestamp, tag, collected))) in lanes.iter().zip(&fields).enumerate() {
                prop_assert_eq!(
                    *digest,
                    extend_digest(&prev[lane], timestamp, tag, collected),
                    "lane {lane}"
                );
            }
        }

        /// Bulk sealing in `ingest` is invisible: after every report the
        /// history equals one that saw the same entries one at a time, its
        /// chain verifies, and while nothing went stale its head equals a
        /// never-evicting history's.
        #[test]
        fn bulk_sealing_matches_entry_at_a_time_ingest(draws in arb_reports()) {
            let device = DeviceId::new(1);
            for capacity in [1usize, 2, 4, 8, 64] {
                let mut bulk = DeviceHistory::with_mode(device, HistoryMode::Ring(capacity));
                let mut one_at_a_time = bulk.clone();
                let mut covering = DeviceHistory::with_mode(device, HistoryMode::Ring(1024));
                let mut cursor = 0;
                for (index, draw) in (0u64..).zip(&draws) {
                    let collected_at = SimTime::from_secs(1_000 + index);
                    let report = report_at(&mut cursor, draw, collected_at);
                    prop_assert!(bulk.ingest(&report));
                    observe_oldest_first(&mut one_at_a_time, &report);
                    observe_oldest_first(&mut covering, &report);
                    prop_assert_eq!(&bulk, &one_at_a_time, "capacity {capacity}, report {index}");
                    prop_assert!(bulk.verify_chain());
                    if bulk.stale_discards() == 0 {
                        prop_assert_eq!(bulk.head_digest(), covering.head_digest());
                    }
                }
            }
        }
    }
}
