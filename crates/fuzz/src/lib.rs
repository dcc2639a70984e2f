//! Seeded, deterministic fuzz harness for the ERASMUS wire-frame decoder.
//!
//! The collection batch frame ([`erasmus_core::encoding`]) is the one spot
//! where the verifier side parses bytes an adversary controls: everything a
//! compromised network (or prover) sends reaches
//! [`erasmus_core::FrameView::parse`] before any cryptography runs. This
//! crate promotes that decoder to a first-class hot path with its own fuzz
//! harness — pure `std`, seeded by [`erasmus_sim::SimRng`], reproducible
//! from a single `u64`, and free of any crates.io dependency so it runs in
//! the offline build environment and in CI.
//!
//! Every iteration generates a *valid* frame (real devices, real MACs),
//! applies one surgical mutation — truncation, extension, bit flips,
//! length-field lies, duplicated or reordered records, zeroed regions —
//! and checks the **decoder contract**:
//!
//! 1. **No panic, no over-read.** The decoder either accepts or returns a
//!    structured [`erasmus_core::DecodeError`]; a panic crashes the harness, which is the
//!    failure signal. Accepted frames must re-encode to the exact input
//!    bytes (the codec is canonical), which rules out silent over- or
//!    under-reads.
//! 2. **Differential agreement.** An independent model decoder — written
//!    against the documented wire format with explicit checked arithmetic,
//!    sharing no code with the real one — must agree byte-for-byte:
//!    accept/reject, the [`DecodeErrorKind`], and the failure offset.
//! 3. **Owned/zero-copy agreement.** [`decode_collection_batch`] and
//!    [`FrameView::parse`] must accept and reject exactly the same inputs.
//! 4. **MAC forgery check.** Any decoded measurement that *verifies* under
//!    its device's key must be byte-identical to a measurement the
//!    generator actually produced — mutations may truncate evidence, but
//!    they must never mint new valid evidence.
//!
//! The hub crash-recovery snapshot ([`erasmus_core::decode_hub_snapshot`])
//! is held to the same standard by [`check_snapshot_contract`] and the
//! [`FuzzSession::run_snapshots`] loop: a snapshot file is
//! attacker-reachable bytes too, and a hub restored from one must be
//! byte-canonical so recovery cannot drift. The snapshot side has its own
//! differential oracle, [`model_decode_snapshot`], which re-derives every
//! v3 compact-history rule — a non-zero ring capacity, rollup
//! conservation (`evictions + resident == entries`,
//! `healthy + compromised + forged == entries`), ring-capacity bounds, and
//! the hash-chain fold (`head == fold(chain, resident entries)` via
//! [`erasmus_core::extend_digest`]) — independently of the real decoder.
//!
//! The `frame_fuzz` binary drives [`FuzzSession::run`] and
//! [`FuzzSession::run_snapshots`] for a bounded, seeded iteration budget
//! and replays the committed regression corpus (`crates/fuzz/corpus/*.bin`;
//! `snap-*.bin` files route to the snapshot contract) on every run; CI
//! pins both.

#![forbid(unsafe_code)]
#![deny(
    clippy::dbg_macro,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use erasmus_core::{
    decode_collection_batch, decode_hub_snapshot, encode_collection_batch, encode_hub_snapshot,
    encode_measurement, extend_digest, CollectionResponse, DecodeErrorKind, DeviceId, FrameView,
    Measurement, DIGEST_LEN, MAX_BATCH_RESPONSES, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
use erasmus_crypto::{Digest, KeyedMac, MacAlgorithm, Sha256, MAX_TAG_LEN};
use erasmus_sim::{SimDuration, SimRng, SimTime};

/// What one input did to the decoder, per the contract checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The frame validated; carries the response and measurement counts.
    Accepted {
        /// Response records in the frame.
        responses: usize,
        /// Measurement records across all responses.
        measurements: usize,
    },
    /// The frame was rejected with this contract-rule kind.
    Rejected(DecodeErrorKind),
}

/// A decoder-contract violation: the bug report the harness exists to
/// produce. Carries everything needed to reproduce the failure offline.
#[derive(Debug, Clone)]
pub struct ContractViolation {
    /// Which contract rule broke.
    pub rule: String,
    /// The offending input, hex-encoded for replay.
    pub input_hex: String,
}

impl ContractViolation {
    fn new(rule: impl Into<String>, input: &[u8]) -> Self {
        Self {
            rule: rule.into(),
            input_hex: hex(input),
        }
    }
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decoder contract violated: {}\n  input ({} bytes): {}",
            self.rule,
            self.input_hex.len() / 2,
            self.input_hex
        )
    }
}

impl std::error::Error for ContractViolation {}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for byte in bytes {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

// ---------------------------------------------------------------------------
// Model decoder
// ---------------------------------------------------------------------------

/// Independent reimplementation of the strict frame contract, used as the
/// differential oracle. Shares no code with `erasmus_core::encoding`; every
/// bound is an explicit checked comparison against the documented wire
/// format: `count:u16 | (device:u64 | mcount:u16 | (t:u64 | dlen:u16 |
/// digest | tlen:u16 | tag)*)*`, big-endian, `dlen == 32`,
/// `1 <= tlen <= MAX_TAG_LEN`, `count <= MAX_BATCH_RESPONSES`, no trailing
/// bytes.
///
/// # Errors
///
/// Returns `(kind, offset)` describing the first contract rule the input
/// violates, mirroring [`erasmus_core::DecodeError`].
pub fn model_decode(bytes: &[u8]) -> Result<Verdict, (DecodeErrorKind, usize)> {
    let mut offset = 0usize;
    let count = model_u16(bytes, &mut offset)? as usize;
    if count > MAX_BATCH_RESPONSES {
        return Err((DecodeErrorKind::BatchCount, 0));
    }
    let mut measurements = 0usize;
    for _ in 0..count {
        model_take(bytes, &mut offset, 8)?; // device id
        let mcount = model_u16(bytes, &mut offset)? as usize;
        for _ in 0..mcount {
            model_take(bytes, &mut offset, 8)?; // timestamp
            let dlen = model_u16(bytes, &mut offset)? as usize;
            if dlen != DIGEST_LEN {
                return Err((DecodeErrorKind::DigestLength, offset));
            }
            model_take(bytes, &mut offset, dlen)?;
            let tlen = model_u16(bytes, &mut offset)? as usize;
            if tlen == 0 || tlen > MAX_TAG_LEN {
                return Err((DecodeErrorKind::TagLength, offset));
            }
            model_take(bytes, &mut offset, tlen)?;
            measurements += 1;
        }
    }
    if offset != bytes.len() {
        return Err((DecodeErrorKind::TrailingBytes, offset));
    }
    Ok(Verdict::Accepted {
        responses: count,
        measurements,
    })
}

fn model_take(
    bytes: &[u8],
    offset: &mut usize,
    len: usize,
) -> Result<(), (DecodeErrorKind, usize)> {
    let end = offset
        .checked_add(len)
        .ok_or((DecodeErrorKind::Truncated, *offset))?;
    if end > bytes.len() {
        return Err((DecodeErrorKind::Truncated, *offset));
    }
    *offset = end;
    Ok(())
}

fn model_u16(bytes: &[u8], offset: &mut usize) -> Result<u16, (DecodeErrorKind, usize)> {
    let at = *offset;
    model_take(bytes, offset, 2)?;
    Ok(u16::from_be_bytes([bytes[at], bytes[at + 1]]))
}

fn model_u8(bytes: &[u8], offset: &mut usize) -> Result<u8, (DecodeErrorKind, usize)> {
    let at = *offset;
    model_take(bytes, offset, 1)?;
    Ok(bytes[at])
}

fn model_u32(bytes: &[u8], offset: &mut usize) -> Result<u32, (DecodeErrorKind, usize)> {
    let at = *offset;
    model_take(bytes, offset, 4)?;
    Ok(u32::from_be_bytes([
        bytes[at],
        bytes[at + 1],
        bytes[at + 2],
        bytes[at + 3],
    ]))
}

fn model_u64(bytes: &[u8], offset: &mut usize) -> Result<u64, (DecodeErrorKind, usize)> {
    let at = *offset;
    model_take(bytes, offset, 8)?;
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[at..at + 8]);
    Ok(u64::from_be_bytes(raw))
}

fn model_digest(bytes: &[u8], offset: &mut usize) -> Result<[u8; 32], (DecodeErrorKind, usize)> {
    let at = *offset;
    model_take(bytes, offset, 32)?;
    let mut digest = [0u8; 32];
    digest.copy_from_slice(&bytes[at..at + 32]);
    Ok(digest)
}

/// Independent reimplementation of the strict v3 hub-snapshot contract,
/// used as the differential oracle for [`erasmus_core::decode_hub_snapshot`].
/// Shares no code with `erasmus_core::encoding`; every bound, ordering rule,
/// conservation law and digest fold is an explicit check against the
/// documented wire layout (see `encode_hub_snapshot_into`): header
/// `magic | version | capacity` (capacity ≥ 1), counters, strictly ascending dedup
/// flows/sequences, then per device (ascending ids) the rollup tallies
/// (`healthy + compromised + forged == entries`), optional compromise pair
/// and first timestamp, the sealed chain digest, the head digest (which
/// must equal the chain folded over the resident window via
/// [`erasmus_core::extend_digest`]), and the resident entries (strictly
/// ascending, `evictions + resident == entries`, within the ring capacity,
/// non-empty whenever `entries > 0`).
///
/// Accepted inputs report `(device count, lifetime entry total)` through
/// [`Verdict::Accepted`], matching what [`check_snapshot_contract`] reads
/// off the restored hub.
///
/// # Errors
///
/// Returns `(kind, offset)` describing the first contract rule the input
/// violates, mirroring [`erasmus_core::DecodeError`].
pub fn model_decode_snapshot(bytes: &[u8]) -> Result<Verdict, (DecodeErrorKind, usize)> {
    let mut offset = 0usize;
    let magic = model_u16(bytes, &mut offset)?;
    if magic != SNAPSHOT_MAGIC {
        return Err((DecodeErrorKind::BatchCount, 0));
    }
    let version = model_u8(bytes, &mut offset)?;
    if version != SNAPSHOT_VERSION {
        return Err((DecodeErrorKind::BatchCount, 2));
    }
    let capacity_at = offset;
    let capacity = model_u32(bytes, &mut offset)? as usize;
    if capacity == 0 {
        return Err((DecodeErrorKind::BatchCount, capacity_at));
    }
    for _ in 0..3 {
        model_u64(bytes, &mut offset)?; // ingested, rejected, duplicates
    }

    let flow_count = model_u32(bytes, &mut offset)? as usize;
    let mut previous_flow: Option<u64> = None;
    for _ in 0..flow_count {
        let flow_at = offset;
        let flow = model_u64(bytes, &mut offset)?;
        if previous_flow.is_some_and(|previous| previous >= flow) {
            return Err((DecodeErrorKind::BatchCount, flow_at));
        }
        previous_flow = Some(flow);
        let floor = model_u64(bytes, &mut offset)?;
        let seq_count = model_u32(bytes, &mut offset)? as usize;
        let mut previous_seq: Option<u64> = None;
        for _ in 0..seq_count {
            let seq_at = offset;
            let sequence = model_u64(bytes, &mut offset)?;
            if sequence < floor {
                return Err((DecodeErrorKind::BatchCount, seq_at));
            }
            if previous_seq.is_some_and(|previous| previous >= sequence) {
                return Err((DecodeErrorKind::BatchCount, seq_at));
            }
            previous_seq = Some(sequence);
        }
    }

    let device_count = model_u32(bytes, &mut offset)? as usize;
    let mut previous_device: Option<u64> = None;
    let mut total_entries = 0u64;
    for _ in 0..device_count {
        let device_at = offset;
        let device = model_u64(bytes, &mut offset)?;
        if previous_device.is_some_and(|previous| previous >= device) {
            return Err((DecodeErrorKind::BatchCount, device_at));
        }
        previous_device = Some(device);
        model_take(bytes, &mut offset, 8)?; // collections
        let entries = model_u64(bytes, &mut offset)?;
        let evictions = model_u64(bytes, &mut offset)?;
        model_u64(bytes, &mut offset)?; // stale discards
        let healthy_at = offset;
        let healthy = model_u64(bytes, &mut offset)?;
        let compromised = model_u64(bytes, &mut offset)?;
        let forged = model_u64(bytes, &mut offset)?;
        let verdict_sum = healthy
            .checked_add(compromised)
            .and_then(|sum| sum.checked_add(forged));
        if verdict_sum != Some(entries) {
            return Err((DecodeErrorKind::BatchCount, healthy_at));
        }
        let flags_at = offset;
        let flags = model_u8(bytes, &mut offset)?;
        if flags & !1 != 0 {
            return Err((DecodeErrorKind::TagLength, flags_at));
        }
        if flags & 1 != 0 {
            model_u64(bytes, &mut offset)?; // compromise measured timestamp
            model_u64(bytes, &mut offset)?; // compromise detected timestamp
        }
        let first_ts_at = offset;
        let first_timestamp = if entries > 0 {
            Some(model_u64(bytes, &mut offset)?)
        } else {
            None
        };
        let chain_at = offset;
        let chain = model_digest(bytes, &mut offset)?;
        let head_at = offset;
        let head = model_digest(bytes, &mut offset)?;
        let resident_at = offset;
        let resident_count = model_u32(bytes, &mut offset)? as usize;
        if evictions.checked_add(resident_count as u64) != Some(entries) {
            return Err((DecodeErrorKind::BatchCount, resident_at));
        }
        if entries > 0 && resident_count == 0 {
            return Err((DecodeErrorKind::BatchCount, resident_at));
        }
        if resident_count > capacity {
            return Err((DecodeErrorKind::BatchCount, resident_at));
        }
        let mut folded = chain;
        let mut previous_timestamp: Option<u64> = None;
        let mut oldest_resident: Option<u64> = None;
        for _ in 0..resident_count {
            let entry_at = offset;
            let timestamp = model_u64(bytes, &mut offset)?;
            if previous_timestamp.is_some_and(|previous| previous >= timestamp) {
                return Err((DecodeErrorKind::BatchCount, entry_at));
            }
            previous_timestamp = Some(timestamp);
            if oldest_resident.is_none() {
                oldest_resident = Some(timestamp);
            }
            let collected_at = model_u64(bytes, &mut offset)?;
            let tag_at = offset;
            let tag = model_u8(bytes, &mut offset)?;
            if tag > 2 {
                return Err((DecodeErrorKind::TagLength, tag_at));
            }
            folded = extend_digest(&folded, timestamp, tag, collected_at);
        }
        if let (Some(first), Some(oldest)) = (first_timestamp, oldest_resident) {
            if first > oldest {
                return Err((DecodeErrorKind::BatchCount, first_ts_at));
            }
        }
        if evictions == 0 && chain != [0u8; 32] {
            return Err((DecodeErrorKind::DigestLength, chain_at));
        }
        if folded != head {
            return Err((DecodeErrorKind::DigestLength, head_at));
        }
        total_entries = total_entries.saturating_add(entries);
    }
    if offset != bytes.len() {
        return Err((DecodeErrorKind::TrailingBytes, offset));
    }
    Ok(Verdict::Accepted {
        responses: device_count,
        measurements: total_entries as usize,
    })
}

// ---------------------------------------------------------------------------
// Contract check
// ---------------------------------------------------------------------------

/// Runs every structural contract check against one input.
///
/// This is the corpus-replay entry point: it needs no generator state, so
/// it applies to arbitrary bytes (hand-crafted regression frames included).
/// The MAC forgery check needs the generator's keys and runs in
/// [`FuzzSession::check`] instead.
///
/// # Errors
///
/// Returns the [`ContractViolation`] describing the first broken rule.
pub fn check_contract(bytes: &[u8]) -> Result<Verdict, ContractViolation> {
    let model = model_decode(bytes);
    let real = FrameView::parse(bytes);
    let owned = decode_collection_batch(bytes);

    let verdict = match (&real, &model) {
        (
            Ok(frame),
            Ok(Verdict::Accepted {
                responses,
                measurements,
            }),
        ) => {
            if frame.len() != *responses {
                return Err(ContractViolation::new(
                    format!(
                        "response count mismatch: decoder {} vs model {responses}",
                        frame.len()
                    ),
                    bytes,
                ));
            }
            let decoded: usize = frame.responses().map(|r| r.len()).sum();
            if decoded != *measurements {
                return Err(ContractViolation::new(
                    format!(
                        "measurement count mismatch: decoder {decoded} vs model {measurements}"
                    ),
                    bytes,
                ));
            }
            if frame.frame_len() != bytes.len() {
                return Err(ContractViolation::new(
                    format!(
                        "frame_len {} != input length {}",
                        frame.frame_len(),
                        bytes.len()
                    ),
                    bytes,
                ));
            }
            // Canonicality: accepted bytes re-encode to themselves, which
            // also proves no record was over- or under-read.
            let responses: Vec<CollectionResponse> =
                frame.responses().map(|r| r.to_response()).collect();
            let reencoded = encode_collection_batch(&responses);
            if reencoded != bytes {
                return Err(ContractViolation::new(
                    "accepted frame is not canonical: re-encode differs from input",
                    bytes,
                ));
            }
            Verdict::Accepted {
                responses: responses.len(),
                measurements: decoded,
            }
        }
        (Err(error), Err((kind, offset))) => {
            if error.kind() != *kind {
                return Err(ContractViolation::new(
                    format!(
                        "rejection kind mismatch: decoder {:?} vs model {kind:?}",
                        error.kind()
                    ),
                    bytes,
                ));
            }
            if error.offset() != *offset {
                return Err(ContractViolation::new(
                    format!(
                        "rejection offset mismatch: decoder {} vs model {offset}",
                        error.offset()
                    ),
                    bytes,
                ));
            }
            if error.offset() > bytes.len() {
                return Err(ContractViolation::new(
                    format!(
                        "rejection offset {} beyond input length {}",
                        error.offset(),
                        bytes.len()
                    ),
                    bytes,
                ));
            }
            Verdict::Rejected(*kind)
        }
        (Ok(_), Err((kind, _))) => {
            return Err(ContractViolation::new(
                format!("decoder accepted what the model rejects ({kind:?})"),
                bytes,
            ));
        }
        (Err(error), Ok(_)) => {
            return Err(ContractViolation::new(
                format!(
                    "decoder rejected ({:?}) what the model accepts",
                    error.kind()
                ),
                bytes,
            ));
        }
        // The model signals rejection through Err, never Ok(Rejected).
        (_, Ok(Verdict::Rejected(kind))) => {
            return Err(ContractViolation::new(
                format!("model produced Ok(Rejected({kind:?})) — model bug"),
                bytes,
            ));
        }
    };

    // The owned decoder is a thin wrapper over the view path; the two
    // public entry points must agree on every input.
    match (&verdict, &owned) {
        (Verdict::Accepted { responses, .. }, Ok(decoded)) if decoded.len() == *responses => {}
        (Verdict::Rejected(kind), Err(error)) if error.kind() == *kind => {}
        _ => {
            return Err(ContractViolation::new(
                "owned decode_collection_batch disagrees with FrameView::parse",
                bytes,
            ));
        }
    }
    Ok(verdict)
}

/// Runs the hub-snapshot codec contract against one input.
///
/// The snapshot ([`erasmus_core::decode_hub_snapshot`]) is the second spot
/// where the verifier side parses attacker-reachable bytes: a crash-recovery
/// file an adversary with filesystem access may have damaged or forged. The
/// contract mirrors the frame decoder's:
///
/// 1. **No panic, no over-read.** Accept or structured
///    [`erasmus_core::DecodeError`] with an in-bounds offset — nothing else.
/// 2. **Canonical.** An accepted snapshot re-encodes byte-identically, so
///    recovery state cannot drift across restart cycles.
/// 3. **Deterministic.** Decoding twice restores equal hubs.
/// 4. **Differential agreement.** [`model_decode_snapshot`] — an
///    independent reimplementation of the v3 layout — must reach the same
///    accept/reject verdict, the same restored device/entry totals, and on
///    rejection the same error kind and offset.
///
/// Accepted inputs report the restored hub's device count and total entry
/// count through [`Verdict::Accepted`], reusing the frame verdict shape so
/// snapshot replays share the [`FuzzReport`] histogram.
///
/// # Errors
///
/// Returns the [`ContractViolation`] describing the first broken rule.
pub fn check_snapshot_contract(bytes: &[u8]) -> Result<Verdict, ContractViolation> {
    let model = model_decode_snapshot(bytes);
    match decode_hub_snapshot(bytes) {
        Ok(hub) => {
            match model {
                Ok(Verdict::Accepted {
                    responses,
                    measurements,
                }) if responses == hub.len() && measurements == hub.total_entries() as usize => {}
                Ok(verdict) => {
                    return Err(ContractViolation::new(
                        format!(
                            "decoder accepted ({} devices, {} entries) but model saw {verdict:?}",
                            hub.len(),
                            hub.total_entries()
                        ),
                        bytes,
                    ));
                }
                Err((kind, offset)) => {
                    return Err(ContractViolation::new(
                        format!("decoder accepted but model rejected {kind:?} at {offset}"),
                        bytes,
                    ));
                }
            }
            let reencoded = encode_hub_snapshot(&hub);
            if reencoded != bytes {
                return Err(ContractViolation::new(
                    "accepted snapshot is not canonical: re-encode differs from input",
                    bytes,
                ));
            }
            let again = decode_hub_snapshot(bytes).map_err(|error| {
                ContractViolation::new(
                    format!("snapshot decode is nondeterministic: second pass rejected ({error})"),
                    bytes,
                )
            })?;
            if again != hub {
                return Err(ContractViolation::new(
                    "snapshot decode is nondeterministic: second pass restored a different hub",
                    bytes,
                ));
            }
            Ok(Verdict::Accepted {
                responses: hub.len(),
                measurements: hub.total_entries() as usize,
            })
        }
        Err(error) => {
            if error.offset() > bytes.len() {
                return Err(ContractViolation::new(
                    format!(
                        "snapshot rejection offset {} beyond input length {}",
                        error.offset(),
                        bytes.len()
                    ),
                    bytes,
                ));
            }
            match model {
                Err((kind, offset)) if kind == error.kind() && offset == error.offset() => {}
                Err((kind, offset)) => {
                    return Err(ContractViolation::new(
                        format!(
                            "decoder rejected {:?} at {} but model rejected {kind:?} at {offset}",
                            error.kind(),
                            error.offset()
                        ),
                        bytes,
                    ));
                }
                Ok(verdict) => {
                    return Err(ContractViolation::new(
                        format!(
                            "decoder rejected {:?} at {} but model accepted {verdict:?}",
                            error.kind(),
                            error.offset()
                        ),
                        bytes,
                    ));
                }
            }
            Ok(Verdict::Rejected(error.kind()))
        }
    }
}

// ---------------------------------------------------------------------------
// Generator + mutators
// ---------------------------------------------------------------------------

/// The mutation families the harness applies to valid frames. Each targets
/// a distinct way real-world corruption (or a hostile prover) can bend the
/// wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Frame passed through untouched: pins the all-valid path.
    Identity,
    /// Bytes cut off the end (or the whole frame).
    Truncate,
    /// Random bytes appended after a complete frame.
    Extend,
    /// A single bit flipped anywhere — MACs, digests, device ids, counts.
    BitFlip,
    /// A big-endian u16 written over a random even-ish offset: the
    /// length-field lie (digest length, tag length, counts).
    LengthLie,
    /// The batch count field specifically inflated or deflated, so the
    /// frame claims more or fewer records than it carries.
    CountLie,
    /// A tail chunk of the frame duplicated in place (duplicated records).
    DuplicateTail,
    /// Two regions of the frame swapped (reordered records).
    SwapRegions,
    /// A random region zeroed.
    ZeroRegion,
}

impl Mutation {
    /// Every mutation family, in application order of the round-robin.
    pub const ALL: [Mutation; 9] = [
        Mutation::Identity,
        Mutation::Truncate,
        Mutation::Extend,
        Mutation::BitFlip,
        Mutation::LengthLie,
        Mutation::CountLie,
        Mutation::DuplicateTail,
        Mutation::SwapRegions,
        Mutation::ZeroRegion,
    ];
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Mutation::Identity => "identity",
            Mutation::Truncate => "truncate",
            Mutation::Extend => "extend",
            Mutation::BitFlip => "bit-flip",
            Mutation::LengthLie => "length-lie",
            Mutation::CountLie => "count-lie",
            Mutation::DuplicateTail => "duplicate-tail",
            Mutation::SwapRegions => "swap-regions",
            Mutation::ZeroRegion => "zero-region",
        };
        f.write_str(name)
    }
}

/// Per-kind rejection histogram plus accept counts for one fuzz run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuzzReport {
    /// Inputs fed to the decoder (corpus replays included when driven by
    /// the binary).
    pub iterations: u64,
    /// Inputs the decoder accepted.
    pub accepted: u64,
    /// Inputs rejected, by [`DecodeErrorKind`] (indexed in
    /// [`DecodeErrorKind::ALL`] order).
    pub rejected: [u64; DecodeErrorKind::ALL.len()],
}

impl FuzzReport {
    /// Total rejected inputs.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.iter().sum()
    }

    /// Folds one verdict into the histogram.
    pub fn record(&mut self, verdict: &Verdict) {
        self.iterations += 1;
        match verdict {
            Verdict::Accepted { .. } => self.accepted += 1,
            Verdict::Rejected(kind) => {
                let index = DecodeErrorKind::ALL
                    .iter()
                    .position(|k| k == kind)
                    .expect("every kind is in ALL");
                self.rejected[index] += 1;
            }
        }
    }

    /// The rejection kinds this run has *not* produced. Empty means full
    /// coverage of the decoder's error surface.
    pub fn missing_kinds(&self) -> Vec<DecodeErrorKind> {
        DecodeErrorKind::ALL
            .iter()
            .zip(&self.rejected)
            .filter(|(_, &count)| count == 0)
            .map(|(&kind, _)| kind)
            .collect()
    }
}

/// A seeded fuzzing session: valid-frame generator, mutators, and the MAC
/// forgery oracle. Two sessions with the same seed produce byte-identical
/// inputs in the same order.
#[derive(Debug)]
pub struct FuzzSession {
    rng: SimRng,
    /// Per-device keyed MAC state, for the forgery oracle.
    keys: BTreeMap<u64, KeyedMac>,
    /// Every `(device, encoded measurement)` the generator ever produced:
    /// the set of evidence a mutated frame is allowed to verify.
    pristine: BTreeSet<(u64, Vec<u8>)>,
    round: u64,
}

impl FuzzSession {
    /// Creates a session reproducible from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SimRng::seed_from(seed),
            keys: BTreeMap::new(),
            pristine: BTreeSet::new(),
            round: 0,
        }
    }

    /// Generates one valid frame: a handful of devices with real derived
    /// keys, each carrying genuinely MAC'd measurements over random memory.
    pub fn generate(&mut self) -> Vec<u8> {
        let response_count = self.rng.gen_range(0, 5) as usize;
        let mut responses = Vec::with_capacity(response_count);
        for _ in 0..response_count {
            let device = self.rng.gen_range(0, 64);
            let algorithm = MacAlgorithm::ALL[self.rng.gen_range(0, 3) as usize];
            let keyed = self.keys.entry(device).or_insert_with(|| {
                let mut key = [0u8; 32];
                key[..8].copy_from_slice(&device.to_be_bytes());
                key[8..16].copy_from_slice(&0x6672_616d_6566_757au64.to_be_bytes());
                algorithm.with_key(&key)
            });
            let measurement_count = self.rng.gen_range(0, 4) as usize;
            let mut measurements = Vec::with_capacity(measurement_count);
            for _ in 0..measurement_count {
                let mut memory = vec![0u8; self.rng.gen_range(1, 128) as usize];
                self.rng.fill_bytes(&mut memory);
                let timestamp = SimTime::from_nanos(self.rng.next_u64() >> 16);
                let digest = Sha256::digest(&memory);
                let input = mac_input(timestamp, &digest);
                let measurement = Measurement::from_parts(timestamp, digest, keyed.mac(&input));
                self.pristine
                    .insert((device, encode_measurement(&measurement)));
                measurements.push(measurement);
            }
            responses.push(CollectionResponse {
                device: DeviceId::new(device),
                measurements,
                prover_time: SimDuration::ZERO,
            });
        }
        encode_collection_batch(&responses)
    }

    /// Applies `mutation` to `frame` in place, drawing every choice from
    /// the session RNG.
    pub fn mutate(&mut self, frame: &mut Vec<u8>, mutation: Mutation) {
        match mutation {
            Mutation::Identity => {}
            Mutation::Truncate => {
                let keep = self.rng.gen_range(0, frame.len() as u64 + 1) as usize;
                frame.truncate(keep);
            }
            Mutation::Extend => {
                let extra = self.rng.gen_range(1, 16) as usize;
                let mut tail = vec![0u8; extra];
                self.rng.fill_bytes(&mut tail);
                frame.extend_from_slice(&tail);
            }
            Mutation::BitFlip => {
                if frame.is_empty() {
                    return;
                }
                let at = self.rng.gen_range(0, frame.len() as u64) as usize;
                let bit = self.rng.gen_range(0, 8) as u8;
                frame[at] ^= 1 << bit;
            }
            Mutation::LengthLie => {
                if frame.len() < 2 {
                    return;
                }
                let at = self.rng.gen_range(0, frame.len() as u64 - 1) as usize;
                let lie = (self.rng.next_u64() & 0xffff) as u16;
                frame[at..at + 2].copy_from_slice(&lie.to_be_bytes());
            }
            Mutation::CountLie => {
                if frame.len() < 2 {
                    return;
                }
                // Half the draws stay near-plausible (off-by-few), half go
                // wild (way past MAX_BATCH_RESPONSES).
                let lie = if self.rng.gen_bool(0.5) {
                    self.rng.gen_range(0, 8) as u16
                } else {
                    (MAX_BATCH_RESPONSES as u16).saturating_add(self.rng.next_u64() as u16 | 1)
                };
                frame[0..2].copy_from_slice(&lie.to_be_bytes());
            }
            Mutation::DuplicateTail => {
                if frame.is_empty() {
                    return;
                }
                let from = self.rng.gen_range(0, frame.len() as u64) as usize;
                let chunk = frame[from..].to_vec();
                frame.extend_from_slice(&chunk);
            }
            Mutation::SwapRegions => {
                if frame.len() < 4 {
                    return;
                }
                let half = frame.len() / 2;
                let a = self.rng.gen_range(0, half as u64) as usize;
                let b = half + self.rng.gen_range(0, (frame.len() - half) as u64) as usize;
                let len = self
                    .rng
                    .gen_range(1, (frame.len() - b).min(b - a).max(1) as u64 + 1)
                    as usize;
                for i in 0..len {
                    frame.swap(a + i, b + i);
                }
            }
            Mutation::ZeroRegion => {
                if frame.is_empty() {
                    return;
                }
                let at = self.rng.gen_range(0, frame.len() as u64) as usize;
                let len = self.rng.gen_range(1, (frame.len() - at) as u64 + 1) as usize;
                frame[at..at + len].iter_mut().for_each(|b| *b = 0);
            }
        }
    }

    /// Runs the full contract check — structural rules plus the MAC
    /// forgery oracle — against one (possibly mutated) input.
    ///
    /// # Errors
    ///
    /// Returns the [`ContractViolation`] describing the first broken rule.
    pub fn check(&self, bytes: &[u8]) -> Result<Verdict, ContractViolation> {
        let verdict = check_contract(bytes)?;
        if let Verdict::Accepted { .. } = verdict {
            let frame = FrameView::parse(bytes).expect("checked accepted above");
            for response in frame.responses() {
                let device = response.device().value();
                let Some(keyed) = self.keys.get(&device) else {
                    continue; // mutated device id: no key, nothing can verify
                };
                for view in response.measurements() {
                    let measurement = view.to_measurement();
                    if !measurement.verify_keyed(keyed) {
                        continue; // damaged evidence is the verifier's job
                    }
                    let encoded = encode_measurement(&measurement);
                    if !self.pristine.contains(&(device, encoded)) {
                        return Err(ContractViolation::new(
                            format!(
                                "MAC forgery: device {device} carries a verifying \
                                 measurement the generator never produced"
                            ),
                            bytes,
                        ));
                    }
                }
            }
        }
        Ok(verdict)
    }

    /// One generate → mutate → check iteration; the mutation family
    /// round-robins so every family gets equal airtime.
    ///
    /// # Errors
    ///
    /// Returns the [`ContractViolation`] describing the first broken rule.
    pub fn step(&mut self) -> Result<Verdict, ContractViolation> {
        let mutation = Mutation::ALL[(self.round as usize) % Mutation::ALL.len()];
        self.round += 1;
        let mut frame = self.generate();
        self.mutate(&mut frame, mutation);
        self.check(&frame)
    }

    /// Runs `iterations` fuzz steps, accumulating the verdict histogram.
    ///
    /// # Errors
    ///
    /// Stops at — and returns — the first [`ContractViolation`].
    pub fn run(&mut self, iterations: u64) -> Result<FuzzReport, ContractViolation> {
        let mut report = FuzzReport::default();
        for _ in 0..iterations {
            let verdict = self.step()?;
            report.record(&verdict);
        }
        Ok(report)
    }

    /// Generates one valid v3 hub snapshot, built byte-by-byte against the
    /// documented layout (so the generator shares no code with the encoder
    /// under test): a ring capacity that may or may not cover a device's
    /// lifetime, random counters, dedup windows with strictly ascending flows and
    /// sequences, then per device a simulated lifetime timeline split into
    /// the sealed (evicted) prefix — folded into the chain digest — and the
    /// resident window, with rollup tallies and the head digest derived
    /// from the same timeline.
    pub fn generate_snapshot(&mut self) -> Vec<u8> {
        // Lifetimes run to 5 entries: capacities of 5 and up never evict.
        let capacity = 1 + self.rng.gen_range(0, 8) as usize;
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC.to_be_bytes());
        out.push(SNAPSHOT_VERSION);
        out.extend_from_slice(&(capacity as u32).to_be_bytes());
        for _ in 0..3 {
            // ingested, rejected, duplicates
            out.extend_from_slice(&(self.rng.next_u64() >> 32).to_be_bytes());
        }
        let flows = self.rng.gen_range(0, 4);
        out.extend_from_slice(&(flows as u32).to_be_bytes());
        let mut flow = 0u64;
        for _ in 0..flows {
            flow += 1 + self.rng.gen_range(0, 1 << 20);
            out.extend_from_slice(&flow.to_be_bytes());
            let floor = self.rng.gen_range(0, 1 << 16);
            out.extend_from_slice(&floor.to_be_bytes());
            let seqs = self.rng.gen_range(0, 5);
            out.extend_from_slice(&(seqs as u32).to_be_bytes());
            let mut sequence = floor;
            for i in 0..seqs {
                sequence += if i == 0 { 0 } else { 1 } + self.rng.gen_range(0, 64);
                out.extend_from_slice(&sequence.to_be_bytes());
            }
        }
        let devices = self.rng.gen_range(0, 4);
        out.extend_from_slice(&(devices as u32).to_be_bytes());
        let mut device = 0u64;
        for _ in 0..devices {
            device += 1 + self.rng.gen_range(0, 64);
            out.extend_from_slice(&device.to_be_bytes());
            out.extend_from_slice(&self.rng.gen_range(0, 1 << 20).to_be_bytes()); // collections

            // Simulate the device's full lifetime: every entry ever
            // ingested, in timestamp order. The suffix that fits the
            // retention window stays resident; the prefix is sealed into
            // the chain digest exactly as eviction would have done.
            let total = self.rng.gen_range(0, 6) as usize;
            let mut timeline = Vec::with_capacity(total);
            let mut timestamp = self.rng.gen_range(0, 1 << 30);
            for _ in 0..total {
                timestamp += 1 + self.rng.gen_range(0, 1 << 20);
                let collected_at = self.rng.gen_range(0, 1 << 30);
                let tag = self.rng.gen_range(0, 3) as u8;
                timeline.push((timestamp, collected_at, tag));
            }
            let resident = total.min(capacity);
            let evicted = total - resident;

            out.extend_from_slice(&(total as u64).to_be_bytes()); // entries
            out.extend_from_slice(&(evicted as u64).to_be_bytes()); // evictions
            let stale_discards = self.rng.gen_range(0, 3);
            out.extend_from_slice(&stale_discards.to_be_bytes());
            for wanted in 0..3u8 {
                let tally = timeline.iter().filter(|entry| entry.2 == wanted).count();
                out.extend_from_slice(&(tally as u64).to_be_bytes());
            }
            let compromise = timeline.iter().find(|entry| entry.2 != 0);
            out.push(u8::from(compromise.is_some()));
            if let Some(&(measured, detected, _)) = compromise {
                out.extend_from_slice(&measured.to_be_bytes());
                out.extend_from_slice(&detected.to_be_bytes());
            }
            if let Some(&(first, _, _)) = timeline.first() {
                out.extend_from_slice(&first.to_be_bytes());
            }
            let mut chain = [0u8; 32];
            for &(timestamp, collected_at, tag) in &timeline[..evicted] {
                chain = extend_digest(&chain, timestamp, tag, collected_at);
            }
            out.extend_from_slice(&chain);
            let mut head = chain;
            for &(timestamp, collected_at, tag) in &timeline[evicted..] {
                head = extend_digest(&head, timestamp, tag, collected_at);
            }
            out.extend_from_slice(&head);
            out.extend_from_slice(&(resident as u32).to_be_bytes());
            for &(timestamp, collected_at, tag) in &timeline[evicted..] {
                out.extend_from_slice(&timestamp.to_be_bytes());
                out.extend_from_slice(&collected_at.to_be_bytes());
                out.push(tag);
            }
        }
        out
    }

    /// One generate → mutate → check iteration against the snapshot codec,
    /// round-robining the same mutation families as the frame loop.
    ///
    /// # Errors
    ///
    /// Returns the [`ContractViolation`] describing the first broken rule.
    pub fn snapshot_step(&mut self) -> Result<Verdict, ContractViolation> {
        let mutation = Mutation::ALL[(self.round as usize) % Mutation::ALL.len()];
        self.round += 1;
        let mut snapshot = self.generate_snapshot();
        self.mutate(&mut snapshot, mutation);
        check_snapshot_contract(&snapshot)
    }

    /// Runs `iterations` snapshot fuzz steps, accumulating the histogram.
    ///
    /// # Errors
    ///
    /// Stops at — and returns — the first [`ContractViolation`].
    pub fn run_snapshots(&mut self, iterations: u64) -> Result<FuzzReport, ContractViolation> {
        let mut report = FuzzReport::default();
        for _ in 0..iterations {
            let verdict = self.snapshot_step()?;
            report.record(&verdict);
        }
        Ok(report)
    }
}

/// The canonical MAC input `t || H(mem_t)`, mirrored from
/// `erasmus_core::Measurement` (crate-private there) so the generator can
/// MAC measurements without a full `Prover`.
fn mac_input(timestamp: SimTime, digest: &[u8; DIGEST_LEN]) -> Vec<u8> {
    let mut input = Vec::with_capacity(8 + DIGEST_LEN);
    input.extend_from_slice(&timestamp.as_nanos().to_be_bytes());
    input.extend_from_slice(digest);
    input
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_frames_are_valid_and_canonical() {
        let mut session = FuzzSession::new(7);
        for _ in 0..50 {
            let frame = session.generate();
            let verdict = session
                .check(&frame)
                .expect("pristine frame violates contract");
            assert!(matches!(verdict, Verdict::Accepted { .. }), "{verdict:?}");
        }
    }

    #[test]
    fn sessions_are_deterministic() {
        let run = |seed| {
            let mut session = FuzzSession::new(seed);
            session.run(300).expect("contract holds")
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn short_fuzz_run_holds_the_contract_and_rejects_plenty() {
        let mut session = FuzzSession::new(42);
        let report = session.run(600).expect("contract holds");
        assert_eq!(report.iterations, 600);
        assert!(report.accepted > 0, "no mutation left a frame valid");
        assert!(
            report.rejected_total() > report.iterations / 4,
            "mutations barely perturbed the format: {report:?}"
        );
    }

    #[test]
    fn model_rejects_each_kind_at_the_documented_offsets() {
        // Truncated: an empty input dies reading the count at offset 0.
        assert_eq!(model_decode(&[]), Err((DecodeErrorKind::Truncated, 0)));
        // BatchCount: 2047 > MAX_BATCH_RESPONSES, pinned to offset 0.
        assert_eq!(
            model_decode(&[0x07, 0xff]),
            Err((DecodeErrorKind::BatchCount, 0))
        );
        // A frame claiming one response but ending after the device id.
        let mut frame = vec![0x00, 0x01];
        frame.extend_from_slice(&42u64.to_be_bytes());
        assert_eq!(model_decode(&frame), Err((DecodeErrorKind::Truncated, 10)));
        // DigestLength: mcount 1, timestamp, then dlen = 16.
        frame.extend_from_slice(&1u16.to_be_bytes());
        frame.extend_from_slice(&9u64.to_be_bytes());
        frame.extend_from_slice(&16u16.to_be_bytes());
        assert_eq!(
            model_decode(&frame),
            Err((DecodeErrorKind::DigestLength, 22))
        );
        // TagLength: fix the digest, lie about the tag.
        frame.truncate(20);
        frame.extend_from_slice(&(DIGEST_LEN as u16).to_be_bytes());
        frame.extend_from_slice(&[0xaa; DIGEST_LEN]);
        frame.extend_from_slice(&0u16.to_be_bytes());
        assert_eq!(model_decode(&frame), Err((DecodeErrorKind::TagLength, 56)));
        // TrailingBytes: a valid empty frame plus one stray byte.
        assert_eq!(
            model_decode(&[0x00, 0x00, 0x99]),
            Err((DecodeErrorKind::TrailingBytes, 2))
        );
        // And every one of those inputs agrees with the real decoder.
        for input in [vec![], vec![0x07, 0xff], vec![0x00, 0x00, 0x99], frame] {
            check_contract(&input).expect("model and decoder agree");
        }
    }

    #[test]
    fn every_mutation_family_is_exercised() {
        let mut session = FuzzSession::new(1);
        // One full round-robin over the families.
        for expected in Mutation::ALL {
            let applied = Mutation::ALL[(session.round as usize) % Mutation::ALL.len()];
            assert_eq!(applied, expected);
            session.step().expect("contract holds");
        }
    }

    #[test]
    fn forgery_oracle_accepts_duplicated_pristine_records() {
        // Duplicating a whole valid response keeps every measurement
        // pristine; the oracle must not flag it.
        let mut session = FuzzSession::new(5);
        let frame = loop {
            let frame = session.generate();
            let parsed = FrameView::parse(&frame).expect("valid");
            if !parsed.is_empty() && !frame[2..].is_empty() {
                break frame;
            }
        };
        let parsed = FrameView::parse(&frame).expect("valid");
        let mut responses: Vec<CollectionResponse> =
            parsed.responses().map(|r| r.to_response()).collect();
        responses.push(responses[0].clone());
        let doubled = encode_collection_batch(&responses);
        let verdict = session
            .check(&doubled)
            .expect("duplicates are not forgeries");
        assert!(matches!(verdict, Verdict::Accepted { .. }));
    }

    #[test]
    fn generated_snapshots_are_valid_and_canonical() {
        let mut session = FuzzSession::new(11);
        for _ in 0..50 {
            let snapshot = session.generate_snapshot();
            let verdict = session_check(&snapshot);
            assert!(matches!(verdict, Verdict::Accepted { .. }), "{verdict:?}");
        }
    }

    fn session_check(snapshot: &[u8]) -> Verdict {
        check_snapshot_contract(snapshot).expect("pristine snapshot violates contract")
    }

    #[test]
    fn snapshot_fuzz_run_holds_the_contract_and_rejects_plenty() {
        let mut session = FuzzSession::new(42);
        let report = session.run_snapshots(600).expect("contract holds");
        assert_eq!(report.iterations, 600);
        assert!(report.accepted > 0, "no mutation left a snapshot valid");
        assert!(
            report.rejected_total() > report.iterations / 4,
            "mutations barely perturbed the snapshot format: {report:?}"
        );
    }

    #[test]
    fn snapshot_contract_rejects_the_obvious_forgeries() {
        let mut session = FuzzSession::new(3);
        let snapshot = session.generate_snapshot();
        // Wrong magic, wrong version, truncation, trailing garbage: all
        // must come back Rejected, never a hub and never a panic.
        let mut bad_magic = snapshot.clone();
        bad_magic[0] ^= 0x01;
        assert!(matches!(
            check_snapshot_contract(&bad_magic).expect("contract holds"),
            Verdict::Rejected(_)
        ));
        let mut bad_version = snapshot.clone();
        bad_version[2] = SNAPSHOT_VERSION + 1;
        assert!(matches!(
            check_snapshot_contract(&bad_version).expect("contract holds"),
            Verdict::Rejected(_)
        ));
        for cut in 0..snapshot.len() {
            assert!(matches!(
                check_snapshot_contract(&snapshot[..cut]).expect("contract holds"),
                Verdict::Rejected(_)
            ));
        }
        let mut padded = snapshot.clone();
        padded.push(0);
        assert!(matches!(
            check_snapshot_contract(&padded).expect("contract holds"),
            Verdict::Rejected(_)
        ));
    }

    #[test]
    fn snapshot_contract_rejects_compact_history_forgeries() {
        let mut session = FuzzSession::new(9);
        // Find a generated snapshot with at least one lifetime entry so
        // the digest and tally forgeries have something to bite on.
        let snapshot = loop {
            let candidate = session.generate_snapshot();
            if let Verdict::Accepted { measurements, .. } = session_check(&candidate) {
                if measurements > 0 {
                    break candidate;
                }
            }
        };
        // A zero ring capacity (header layout: magic u16, version, then
        // the capacity u32 at offset 3).
        let mut zero_capacity = snapshot.clone();
        zero_capacity[3..7].copy_from_slice(&0u32.to_be_bytes());
        assert_eq!(
            check_snapshot_contract(&zero_capacity).expect("contract holds"),
            Verdict::Rejected(DecodeErrorKind::BatchCount)
        );
        // Corrupting the final byte lands in the last device's resident
        // region; the verdict-tag bound, entry ordering, conservation law
        // or chain fold must catch it — never an accept.
        let mut bad_tail = snapshot;
        let last = bad_tail.len() - 1;
        bad_tail[last] ^= 0x40;
        assert!(matches!(
            check_snapshot_contract(&bad_tail).expect("contract holds"),
            Verdict::Rejected(_)
        ));
    }

    #[test]
    fn kind_coverage_reporting_spots_gaps() {
        let mut report = FuzzReport::default();
        assert_eq!(report.missing_kinds().len(), DecodeErrorKind::ALL.len());
        for kind in DecodeErrorKind::ALL {
            report.record(&Verdict::Rejected(kind));
        }
        assert!(report.missing_kinds().is_empty());
        assert_eq!(report.rejected_total(), DecodeErrorKind::ALL.len() as u64);
    }
}
