//! Wire format for measurements and protocol messages.
//!
//! The paper's prover answers collections over UDP (Table 2 prices packet
//! construction and transmission separately). This module defines the byte
//! layout used by the reproduction so that collection responses can actually
//! be serialized, sized and parsed — and so the verifier can be fed bytes
//! that crossed an untrusted network rather than in-memory structs.
//!
//! All integers are big-endian. A serialized measurement is:
//!
//! ```text
//! +---------+------------+-----------------+-----------+---------------+
//! | t: u64  | dlen: u16  | digest (dlen B) | tlen: u16 | tag (tlen B)  |
//! +---------+------------+-----------------+-----------+---------------+
//! ```
//!
//! A collection response is the device id (u64), a measurement count (u16)
//! and that many measurements back to back.
//!
//! A collection *batch* is a response count (u16, at most
//! [`MAX_BATCH_RESPONSES`]) followed by that many responses back to back.
//! It is the wire frame for one hub delivery burst — the unit
//! [`crate::VerifierHub::ingest_frame`] consumes: decode, verify each
//! response straight off the frame, fold the reports in.
//!
//! # Strictness
//!
//! The codec is deliberately unforgiving — every rule below is load-bearing
//! for the fuzz harness's differential oracle:
//!
//! * **Exact lengths.** A digest length other than [`DIGEST_LEN`] or a tag
//!   length of zero or above `MAX_TAG_LEN` is rejected before any copy.
//! * **Prefix-strict.** Every strict prefix of a valid frame is rejected as
//!   truncated; a frame either parses completely or not at all.
//! * **Suffix-strict.** Trailing bytes after the last record are rejected.
//! * **Canonical.** The format is bijective: for every frame accepted by
//!   [`decode_collection_batch`], re-encoding the result reproduces the
//!   input byte for byte.
//!
//! # Hub snapshots
//!
//! [`encode_hub_snapshot`] / [`decode_hub_snapshot`] serialize a whole
//! [`crate::VerifierHub`] — counters, per-flow dedup windows and every
//! device history — under the same strictness rules, so a verifier can
//! crash, restore from its last snapshot and keep ingesting with
//! exactly-once accounting intact. A snapshot opens with the magic `0x4552`
//! (`"ER"`), which is deliberately above [`MAX_BATCH_RESPONSES`]: bytes of
//! one format can never be mistaken for the other, the frame decoder
//! rejects a snapshot outright (and vice versa).
//!
//! # Zero-copy views
//!
//! [`FrameView::parse`] validates a whole frame in one allocation-free pass
//! and hands out borrowed [`ResponseView`]s / [`MeasurementView`]s whose
//! digest and tag point straight into the frame buffer. The verifier checks
//! MACs off those borrowed slices; owned [`Measurement`]s are materialized
//! only for the reports that survive verification. The owned decoder,
//! [`decode_collection_batch`], is a thin wrapper over the views, so there
//! is exactly one strict contract.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::as_conversions
)]

use std::fmt;

use erasmus_crypto::{MacTag, MAX_TAG_LEN};
use erasmus_sim::{SimDuration, SimTime};

use crate::history::{extend_digest, DeviceHistory, HistoryEntry, HistoryRollup};
use crate::hub::{FlowWindow, VerifierHub};
use crate::ids::DeviceId;
use crate::measurement::{Measurement, MemoryDigest, DIGEST_LEN};
use crate::protocol::CollectionResponse;
use crate::report::MeasurementVerdict;

/// Category of strict-codec violation behind a [`DecodeError`].
///
/// The adversarial-frame corpus tests cover every variant; keep
/// [`DecodeErrorKind::ALL`] in sync when extending the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeErrorKind {
    /// The input ended before a field could be read in full.
    Truncated,
    /// A digest length field disagreed with [`DIGEST_LEN`].
    DigestLength,
    /// A tag length field was zero or above `MAX_TAG_LEN`.
    TagLength,
    /// A batch count field was above [`MAX_BATCH_RESPONSES`].
    BatchCount,
    /// A well-formed message was followed by trailing bytes.
    TrailingBytes,
}

impl DecodeErrorKind {
    /// Every way the strict codec can reject input.
    pub const ALL: [DecodeErrorKind; 5] = [
        DecodeErrorKind::Truncated,
        DecodeErrorKind::DigestLength,
        DecodeErrorKind::TagLength,
        DecodeErrorKind::BatchCount,
        DecodeErrorKind::TrailingBytes,
    ];
}

impl fmt::Display for DecodeErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            DecodeErrorKind::Truncated => "truncated",
            DecodeErrorKind::DigestLength => "digest length",
            DecodeErrorKind::TagLength => "tag length",
            DecodeErrorKind::BatchCount => "batch count",
            DecodeErrorKind::TrailingBytes => "trailing bytes",
        };
        f.write_str(text)
    }
}

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Which contract rule was violated.
    kind: DecodeErrorKind,
    /// What went wrong.
    reason: String,
    /// Byte offset at which decoding failed.
    offset: usize,
}

impl DecodeError {
    fn new(kind: DecodeErrorKind, reason: impl Into<String>, offset: usize) -> Self {
        Self {
            kind,
            reason: reason.into(),
            offset,
        }
    }

    /// Which contract rule was violated.
    pub fn kind(&self) -> DecodeErrorKind {
        self.kind
    }

    /// Byte offset at which decoding failed.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for DecodeError {}

// Digest and tag lengths are bounded by the fixed-size in-memory types: a
// digest is always 32 bytes of SHA-256, and no supported MAC produces a tag
// longer than `MAX_TAG_LEN`. Anything else can only come from corrupted or
// hostile input and is rejected before allocation.

#[derive(Debug, Clone)]
struct Reader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, offset: 0 }
    }

    /// Reads `len` bytes. Total over hostile lengths: the bounds check is
    /// overflow-safe and the slice comes from `get`, never from indexing.
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        let slice = self
            .offset
            .checked_add(len)
            .and_then(|end| self.bytes.get(self.offset..end));
        match slice {
            Some(slice) => {
                self.offset += len;
                Ok(slice)
            }
            None => Err(DecodeError::new(
                DecodeErrorKind::Truncated,
                format!("truncated while reading {what} ({len} bytes needed)"),
                self.offset,
            )),
        }
    }

    /// Reads exactly `N` bytes as a fixed-size array reference — the
    /// panic-free replacement for `take(..).try_into().expect(..)`.
    fn array<const N: usize>(&mut self, what: &str) -> Result<&'a [u8; N], DecodeError> {
        let offset = self.offset;
        match self.take(N, what)?.try_into() {
            Ok(array) => Ok(array),
            // Unreachable (take returned exactly N bytes), but handled:
            // decode paths never panic, not even on internal surprises.
            Err(_) => Err(DecodeError::new(
                DecodeErrorKind::Truncated,
                format!("internal length mismatch while reading {what}"),
                offset,
            )),
        }
    }

    fn u64(&mut self, what: &str) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(*self.array::<8>(what)?))
    }

    fn u32(&mut self, what: &str) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(*self.array::<4>(what)?))
    }

    fn u16(&mut self, what: &str) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(*self.array::<2>(what)?))
    }

    fn u8(&mut self, what: &str) -> Result<u8, DecodeError> {
        let [byte] = *self.array::<1>(what)?;
        Ok(byte)
    }

    /// Reads a u32 record count as a `usize`, rejecting counts the platform
    /// cannot index (only reachable on 16-bit targets).
    fn count(&mut self, what: &str) -> Result<usize, DecodeError> {
        let offset = self.offset;
        let value = self.u32(what)?;
        usize::try_from(value).map_err(|_| {
            DecodeError::new(
                DecodeErrorKind::BatchCount,
                format!("{what} {value} does not fit this platform's usize"),
                offset,
            )
        })
    }

    fn finish(&self) -> Result<(), DecodeError> {
        if self.offset != self.bytes.len() {
            return Err(DecodeError::new(
                DecodeErrorKind::TrailingBytes,
                format!(
                    "{} trailing bytes after message",
                    self.bytes.len() - self.offset
                ),
                self.offset,
            ));
        }
        Ok(())
    }
}

/// Zero-copy view of one measurement record inside a validated frame.
///
/// The digest and tag borrow straight from the frame buffer; nothing is
/// copied or allocated until [`MeasurementView::to_measurement`]. Views are
/// only handed out by [`FrameView`] / [`ResponseView`] after the whole frame
/// passed strict validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasurementView<'a> {
    timestamp: SimTime,
    digest: &'a MemoryDigest,
    tag: &'a [u8],
}

impl<'a> MeasurementView<'a> {
    /// The RROC timestamp `t`.
    pub fn timestamp(&self) -> SimTime {
        self.timestamp
    }

    /// The memory digest `H(mem_t)`, borrowed from the frame.
    pub fn digest(&self) -> &'a MemoryDigest {
        self.digest
    }

    /// The authentication tag bytes, borrowed from the frame.
    pub fn tag(&self) -> &'a [u8] {
        self.tag
    }

    /// Materializes an owned [`Measurement`] (the only copying step on the
    /// frame ingestion path, deferred until a report is actually built).
    pub fn to_measurement(&self) -> Measurement {
        Measurement::from_parts(self.timestamp, *self.digest, MacTag::new(self.tag))
    }
}

fn measurement_view_from<'a>(reader: &mut Reader<'a>) -> Result<MeasurementView<'a>, DecodeError> {
    let timestamp = reader.u64("timestamp")?;
    let digest_len = usize::from(reader.u16("digest length")?);
    if digest_len != DIGEST_LEN {
        return Err(DecodeError::new(
            DecodeErrorKind::DigestLength,
            format!("implausible digest length {digest_len}"),
            reader.offset,
        ));
    }
    let digest: &MemoryDigest = reader.array::<DIGEST_LEN>("digest")?;
    let tag_len = usize::from(reader.u16("tag length")?);
    if tag_len == 0 || tag_len > MAX_TAG_LEN {
        return Err(DecodeError::new(
            DecodeErrorKind::TagLength,
            format!("implausible tag length {tag_len}"),
            reader.offset,
        ));
    }
    let tag = reader.take(tag_len, "tag")?;
    Ok(MeasurementView {
        timestamp: SimTime::from_nanos(timestamp),
        digest,
        tag,
    })
}

/// Iterator over the [`MeasurementView`]s of one response record.
///
/// Walks bytes that were already validated by [`FrameView::parse`], so
/// iteration itself cannot fail.
#[derive(Debug, Clone)]
pub struct MeasurementViews<'a> {
    reader: Reader<'a>,
    remaining: usize,
}

impl<'a> Iterator for MeasurementViews<'a> {
    type Item = MeasurementView<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Records were validated at parse time; a decode error here is
        // unreachable, and ending the iteration is the panic-free answer.
        measurement_view_from(&mut self.reader).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for MeasurementViews<'_> {}

/// Zero-copy view of one collection-response record inside a validated
/// frame.
#[derive(Debug, Clone, Copy)]
pub struct ResponseView<'a> {
    device: DeviceId,
    count: usize,
    records: &'a [u8],
}

impl<'a> ResponseView<'a> {
    /// The device this response claims to come from.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Number of measurement records the response carries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the response carries no measurements.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterator over the borrowed measurement records, newest first (the
    /// order the prover serialized them in).
    pub fn measurements(&self) -> MeasurementViews<'a> {
        MeasurementViews {
            reader: Reader::new(self.records),
            remaining: self.count,
        }
    }

    /// Materializes an owned [`CollectionResponse`].
    ///
    /// The prover-time field is not on the wire (it is a simulation
    /// artefact); the materialized response carries [`SimDuration::ZERO`]
    /// there.
    pub fn to_response(&self) -> CollectionResponse {
        CollectionResponse {
            device: self.device,
            measurements: self.measurements().map(|m| m.to_measurement()).collect(),
            prover_time: SimDuration::ZERO,
        }
    }
}

fn response_view_from<'a>(reader: &mut Reader<'a>) -> Result<ResponseView<'a>, DecodeError> {
    let device = reader.u64("device id")?;
    let count = usize::from(reader.u16("measurement count")?);
    let start = reader.offset;
    for _ in 0..count {
        measurement_view_from(reader)?;
    }
    Ok(ResponseView {
        device: DeviceId::new(device),
        count,
        // The range is in bounds by construction (both ends came from the
        // reader); the empty fallback keeps the path total regardless.
        records: reader.bytes.get(start..reader.offset).unwrap_or_default(),
    })
}

/// Iterator over the [`ResponseView`]s of a validated frame.
#[derive(Debug, Clone)]
pub struct ResponseViews<'a> {
    reader: Reader<'a>,
    remaining: usize,
}

impl<'a> Iterator for ResponseViews<'a> {
    type Item = ResponseView<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Same contract as MeasurementViews: validated at parse time.
        response_view_from(&mut self.reader).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ResponseViews<'_> {}

/// Zero-copy view of a whole validated batch frame — the hub's wire-native
/// ingestion unit.
///
/// [`FrameView::parse`] makes exactly one strict validation pass (bounds
/// checks only, no allocation, no copying); the view's iterators then
/// re-walk the validated bytes infallibly. Holding a `FrameView` is proof
/// the frame satisfies the full codec contract described in the
/// [module docs](self).
///
/// # Example
///
/// ```
/// use erasmus_core::{encode_collection_batch, CollectionResponse, DeviceId, FrameView};
/// use erasmus_sim::SimDuration;
///
/// let burst = vec![CollectionResponse {
///     device: DeviceId::new(7),
///     measurements: Vec::new(),
///     prover_time: SimDuration::ZERO,
/// }];
/// let bytes = encode_collection_batch(&burst);
/// let frame = FrameView::parse(&bytes).expect("valid frame");
/// assert_eq!(frame.len(), 1);
/// assert_eq!(frame.responses().next().unwrap().device(), DeviceId::new(7));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    count: usize,
    records: &'a [u8],
    frame_len: usize,
}

impl<'a> FrameView<'a> {
    /// Validates a batch frame in one allocation-free pass.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] (with a structured [`DecodeErrorKind`]) for
    /// truncated input, a batch count above [`MAX_BATCH_RESPONSES`], any
    /// malformed inner record, or trailing garbage — a frame either
    /// validates completely or not at all.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, DecodeError> {
        let mut reader = Reader::new(bytes);
        let count = usize::from(reader.u16("batch count")?);
        if count > MAX_BATCH_RESPONSES {
            return Err(DecodeError::new(
                DecodeErrorKind::BatchCount,
                format!("implausible batch count {count}"),
                0,
            ));
        }
        let start = reader.offset;
        for _ in 0..count {
            response_view_from(&mut reader)?;
        }
        reader.finish()?;
        Ok(Self {
            count,
            // `start` is at most `bytes.len()` (the reader just walked the
            // whole frame); the empty fallback keeps the path total.
            records: bytes.get(start..).unwrap_or_default(),
            frame_len: bytes.len(),
        })
    }

    /// Number of response records the frame carries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the frame carries no responses.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Size of the whole frame in bytes, including the count header.
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// Iterator over the borrowed response records in wire order (the hub's
    /// per-device arrival order depends on it).
    pub fn responses(&self) -> ResponseViews<'a> {
        ResponseViews {
            reader: Reader::new(self.records),
            remaining: self.count,
        }
    }
}

/// Appends the serialized measurement to `out`.
pub fn encode_measurement_into(out: &mut Vec<u8>, measurement: &Measurement) {
    let digest = measurement.digest();
    let tag = measurement.tag().as_bytes();
    out.reserve(8 + 2 + digest.len() + 2 + tag.len());
    out.extend_from_slice(&measurement.timestamp().as_nanos().to_be_bytes());
    #[expect(
        clippy::as_conversions,
        reason = "digest.len() is DIGEST_LEN (32), far below u16::MAX"
    )]
    out.extend_from_slice(&(digest.len() as u16).to_be_bytes());
    out.extend_from_slice(digest);
    #[expect(
        clippy::as_conversions,
        reason = "tag.len() is at most MAX_TAG_LEN (32), far below u16::MAX"
    )]
    out.extend_from_slice(&(tag.len() as u16).to_be_bytes());
    out.extend_from_slice(tag);
}

/// Serializes one measurement.
pub fn encode_measurement(measurement: &Measurement) -> Vec<u8> {
    let mut out = Vec::new();
    encode_measurement_into(&mut out, measurement);
    out
}

/// Appends the serialized collection response to `out`.
///
/// # Panics
///
/// Panics if the response carries more than `u16::MAX` measurements —
/// previously the count silently truncated modulo 65536 on the wire,
/// producing a frame the strict decoder rejects (or worse, misparses as a
/// shorter response followed by trailing bytes).
pub fn encode_collection_response_into(out: &mut Vec<u8>, response: &CollectionResponse) {
    assert!(
        response.measurements.len() <= usize::from(u16::MAX),
        "response with {} measurements overflows the u16 wire count",
        response.measurements.len()
    );
    out.reserve(8 + 2 + response.payload_bytes() + 4 * response.measurements.len());
    out.extend_from_slice(&response.device.value().to_be_bytes());
    #[expect(clippy::as_conversions, reason = "bounded by the assert above")]
    out.extend_from_slice(&(response.measurements.len() as u16).to_be_bytes());
    for measurement in &response.measurements {
        encode_measurement_into(out, measurement);
    }
}

/// Serializes a collection response (the prover → verifier UDP payload).
pub fn encode_collection_response(response: &CollectionResponse) -> Vec<u8> {
    let mut out = Vec::new();
    encode_collection_response_into(&mut out, response);
    out
}

/// Largest number of responses one batch frame may carry. Mirrors the
/// exact-digest-length rule: an implausible count can only come from
/// corrupted or hostile input and is rejected before any allocation.
pub const MAX_BATCH_RESPONSES: usize = 1024;

/// Appends a burst of collection responses to `out` as one batch frame.
///
/// This is the shard engines' hot path: one reusable buffer per shard,
/// cleared between bursts, instead of a fresh allocation per frame.
///
/// # Panics
///
/// Panics if `responses` exceeds [`MAX_BATCH_RESPONSES`]; split larger
/// bursts into multiple frames.
pub fn encode_collection_batch_into(out: &mut Vec<u8>, responses: &[CollectionResponse]) {
    assert!(
        responses.len() <= MAX_BATCH_RESPONSES,
        "batch of {} responses exceeds MAX_BATCH_RESPONSES ({MAX_BATCH_RESPONSES})",
        responses.len()
    );
    #[expect(
        clippy::as_conversions,
        reason = "bounded by the MAX_BATCH_RESPONSES assert above"
    )]
    out.extend_from_slice(&(responses.len() as u16).to_be_bytes());
    for response in responses {
        encode_collection_response_into(out, response);
    }
}

/// Serializes a burst of collection responses as one batch frame — what a
/// single hub delivery event carries on the wire before each response is
/// verified and the reports are folded in via
/// [`crate::VerifierHub::ingest_frame`].
///
/// # Panics
///
/// Panics if `responses` exceeds [`MAX_BATCH_RESPONSES`]; split larger
/// bursts into multiple frames.
pub fn encode_collection_batch(responses: &[CollectionResponse]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_collection_batch_into(&mut out, responses);
    out
}

/// Parses a batch frame into owned responses.
///
/// Thin wrapper over [`FrameView::parse`], so the owned and zero-copy
/// decoders enforce the same strict contract by construction.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated input, a batch count above
/// [`MAX_BATCH_RESPONSES`], any malformed inner response, or trailing
/// garbage — so a frame either parses completely or not at all.
pub fn decode_collection_batch(bytes: &[u8]) -> Result<Vec<CollectionResponse>, DecodeError> {
    let frame = FrameView::parse(bytes)?;
    Ok(frame.responses().map(|view| view.to_response()).collect())
}

/// Magic opening a hub snapshot: `"ER"` as a big-endian u16. Chosen above
/// [`MAX_BATCH_RESPONSES`] so the batch-frame decoder can never confuse a
/// snapshot for a frame (it reads the magic as an implausible batch count).
pub const SNAPSHOT_MAGIC: u16 = 0x4552;

/// Current hub-snapshot format version. Version 2 introduced the compact
/// history layout: per-device rollup tallies, the sealed-chain/head digest
/// pair and a bounded resident window instead of the full entry list.
/// Version 3 dropped the retention-mode byte: every hub is a ring, so the
/// header carries only its capacity.
pub const SNAPSHOT_VERSION: u8 = 3;

/// Appends the serialized hub snapshot to `out`.
///
/// The layout (all integers big-endian) is:
///
/// ```text
/// magic: u16 = 0x4552 ("ER")    version: u8 = 3    capacity: u32 (>= 1)
/// ingested: u64   rejected: u64   duplicates: u64
/// flow_count: u32, then per flow (ascending flow id):
///     flow: u64   floor: u64   seq_count: u32   seqs: u64 × seq_count
/// device_count: u32, then per device (ascending device id):
///     device: u64   collections: u64
///     entries: u64   evictions: u64   stale_discards: u64
///     healthy: u64   compromised: u64   forged: u64
///     flags: u8 (bit 0: compromise evidence follows)
///     [first_compromise: u64   detected_at: u64]   — iff flag bit 0
///     [first_timestamp: u64]                       — iff entries > 0
///     chain: 32 B   head: 32 B
///     resident_count: u32
///     then per resident entry (ascending timestamp):
///         timestamp: u64   collected_at: u64   verdict: u8 (0|1|2)
/// ```
///
/// Sequences and timestamps are strictly ascending on the wire, the rollup
/// must satisfy its conservation laws (`healthy + compromised + forged ==
/// entries`, `evictions + resident_count == entries`) and the head digest
/// must equal the sealed chain folded over the resident entries — the codec
/// is canonical, so a decoded snapshot re-encodes byte-identically and a
/// forged chain never restores.
pub fn encode_hub_snapshot_into(out: &mut Vec<u8>, hub: &VerifierHub) {
    out.extend_from_slice(&SNAPSHOT_MAGIC.to_be_bytes());
    out.push(SNAPSHOT_VERSION);
    let capacity = u32::try_from(hub.capacity).unwrap_or(u32::MAX);
    out.extend_from_slice(&capacity.to_be_bytes());
    out.extend_from_slice(&hub.ingested.to_be_bytes());
    out.extend_from_slice(&hub.rejected.to_be_bytes());
    out.extend_from_slice(&hub.duplicates.to_be_bytes());
    #[expect(
        clippy::as_conversions,
        reason = "an in-memory flow map cannot reach 2^32 entries (>64 GiB at ~16 B each)"
    )]
    out.extend_from_slice(&(hub.dedup.len() as u32).to_be_bytes());
    for (flow, window) in &hub.dedup {
        out.extend_from_slice(&flow.to_be_bytes());
        out.extend_from_slice(&window.floor.to_be_bytes());
        #[expect(
            clippy::as_conversions,
            reason = "dedup windows are pruned to DEDUP_WINDOW (1024) sequences"
        )]
        out.extend_from_slice(&(window.seen.len() as u32).to_be_bytes());
        for sequence in &window.seen {
            out.extend_from_slice(&sequence.to_be_bytes());
        }
    }
    #[expect(
        clippy::as_conversions,
        reason = "an in-memory device map cannot reach 2^32 entries (>256 GiB at ~64 B each)"
    )]
    out.extend_from_slice(&(hub.histories.len() as u32).to_be_bytes());
    for (device, history) in &hub.histories {
        debug_assert_eq!(
            history.capacity(),
            hub.capacity,
            "snapshot encodes the hub-wide ring capacity"
        );
        out.extend_from_slice(&device.value().to_be_bytes());
        out.extend_from_slice(&history.collections().to_be_bytes());
        let rollup = &history.rollup;
        out.extend_from_slice(&rollup.entries.to_be_bytes());
        out.extend_from_slice(&rollup.evictions.to_be_bytes());
        out.extend_from_slice(&rollup.stale_discards.to_be_bytes());
        out.extend_from_slice(&rollup.healthy.to_be_bytes());
        out.extend_from_slice(&rollup.compromised.to_be_bytes());
        out.extend_from_slice(&rollup.forged.to_be_bytes());
        let compromise = rollup
            .first_compromise_at
            .zip(rollup.compromise_detected_at);
        out.push(u8::from(compromise.is_some()));
        if let Some((measured, detected)) = compromise {
            out.extend_from_slice(&measured.as_nanos().to_be_bytes());
            out.extend_from_slice(&detected.as_nanos().to_be_bytes());
        }
        if rollup.entries > 0 {
            let first = rollup.first_timestamp.map_or(0, |at| at.as_nanos());
            out.extend_from_slice(&first.to_be_bytes());
        }
        out.extend_from_slice(&history.chain);
        out.extend_from_slice(&history.head);
        #[expect(
            clippy::as_conversions,
            reason = "the resident window is bounded by the ring capacity (u32 on the wire)"
        )]
        out.extend_from_slice(&(history.resident_len() as u32).to_be_bytes());
        for entry in history.entries() {
            out.extend_from_slice(&entry.timestamp.as_nanos().to_be_bytes());
            out.extend_from_slice(&entry.collected_at.as_nanos().to_be_bytes());
            out.push(entry.verdict.tag());
        }
    }
}

/// Serializes a [`crate::VerifierHub`] as a compact crash-recovery snapshot.
///
/// See [`encode_hub_snapshot_into`] for the layout.
pub fn encode_hub_snapshot(hub: &VerifierHub) -> Vec<u8> {
    let mut out = Vec::new();
    encode_hub_snapshot_into(&mut out, hub);
    out
}

/// Parses a hub snapshot, restoring counters, dedup windows and device
/// histories exactly as they were encoded.
///
/// The snapshot codec enforces the same strictness rules as the frame
/// codec: exact lengths, prefix- and suffix-strict, and canonical — flows,
/// sequences, devices and timestamps must be strictly ascending, so every
/// accepted snapshot re-encodes byte-identically.
///
/// # Errors
///
/// Returns a [`DecodeError`] for truncated input, a wrong magic or version,
/// out-of-order or below-floor records, an out-of-range verdict tag, or
/// trailing garbage.
pub fn decode_hub_snapshot(bytes: &[u8]) -> Result<VerifierHub, DecodeError> {
    let mut reader = Reader::new(bytes);
    let magic = reader.u16("snapshot magic")?;
    if magic != SNAPSHOT_MAGIC {
        return Err(DecodeError::new(
            DecodeErrorKind::BatchCount,
            format!("not a hub snapshot (magic {magic:#06x})"),
            0,
        ));
    }
    let version = reader.u8("snapshot version")?;
    if version != SNAPSHOT_VERSION {
        return Err(DecodeError::new(
            DecodeErrorKind::BatchCount,
            format!("unsupported hub snapshot version {version}"),
            2,
        ));
    }
    let capacity_at = reader.offset;
    let raw_capacity = reader.u32("ring capacity")?;
    if raw_capacity == 0 {
        return Err(DecodeError::new(
            DecodeErrorKind::BatchCount,
            "ring snapshot carries zero capacity".to_string(),
            capacity_at,
        ));
    }
    let capacity = usize::try_from(raw_capacity).map_err(|_| {
        DecodeError::new(
            DecodeErrorKind::BatchCount,
            format!("ring capacity {raw_capacity} does not fit this platform's usize"),
            capacity_at,
        )
    })?;
    let ingested = reader.u64("ingested counter")?;
    let rejected = reader.u64("rejected counter")?;
    let duplicates = reader.u64("duplicates counter")?;

    let flow_count = reader.count("flow count")?;
    let mut dedup = std::collections::BTreeMap::new();
    let mut previous_flow: Option<u64> = None;
    for _ in 0..flow_count {
        let flow_at = reader.offset;
        let flow = reader.u64("flow id")?;
        if previous_flow.is_some_and(|previous| previous >= flow) {
            return Err(DecodeError::new(
                DecodeErrorKind::BatchCount,
                format!("snapshot flows out of order at flow {flow}"),
                flow_at,
            ));
        }
        previous_flow = Some(flow);
        let floor = reader.u64("window floor")?;
        let seq_count = reader.count("sequence count")?;
        let mut seen = std::collections::BTreeSet::new();
        let mut previous_seq: Option<u64> = None;
        for _ in 0..seq_count {
            let seq_at = reader.offset;
            let sequence = reader.u64("window sequence")?;
            if sequence < floor {
                return Err(DecodeError::new(
                    DecodeErrorKind::BatchCount,
                    format!("snapshot sequence {sequence} below window floor {floor}"),
                    seq_at,
                ));
            }
            if previous_seq.is_some_and(|previous| previous >= sequence) {
                return Err(DecodeError::new(
                    DecodeErrorKind::BatchCount,
                    format!("snapshot sequences out of order at {sequence}"),
                    seq_at,
                ));
            }
            previous_seq = Some(sequence);
            seen.insert(sequence);
        }
        dedup.insert(flow, FlowWindow { floor, seen });
    }

    let device_count = reader.count("device count")?;
    let mut histories = std::collections::BTreeMap::new();
    let mut previous_device: Option<u64> = None;
    for _ in 0..device_count {
        let device_at = reader.offset;
        let device = reader.u64("device id")?;
        if previous_device.is_some_and(|previous| previous >= device) {
            return Err(DecodeError::new(
                DecodeErrorKind::BatchCount,
                format!("snapshot devices out of order at device {device}"),
                device_at,
            ));
        }
        previous_device = Some(device);
        let collections = reader.u64("collection count")?;
        let entries = reader.u64("entry count")?;
        let evictions = reader.u64("eviction count")?;
        let stale_discards = reader.u64("stale discard count")?;
        let healthy_at = reader.offset;
        let healthy = reader.u64("healthy count")?;
        let compromised = reader.u64("compromised count")?;
        let forged = reader.u64("forged count")?;
        let verdict_sum = healthy
            .checked_add(compromised)
            .and_then(|sum| sum.checked_add(forged));
        if verdict_sum != Some(entries) {
            return Err(DecodeError::new(
                DecodeErrorKind::BatchCount,
                format!("snapshot verdict counts do not sum to {entries} entries"),
                healthy_at,
            ));
        }
        let flags_at = reader.offset;
        let flags = reader.u8("history flags")?;
        if flags & !1 != 0 {
            return Err(DecodeError::new(
                DecodeErrorKind::TagLength,
                format!("snapshot history flags {flags:#04x} out of range"),
                flags_at,
            ));
        }
        let (first_compromise_at, compromise_detected_at) = if flags & 1 != 0 {
            let measured = reader.u64("first compromise time")?;
            let detected = reader.u64("compromise detection time")?;
            (
                Some(SimTime::from_nanos(measured)),
                Some(SimTime::from_nanos(detected)),
            )
        } else {
            (None, None)
        };
        let first_ts_at = reader.offset;
        let first_timestamp = if entries > 0 {
            Some(SimTime::from_nanos(reader.u64("first timestamp")?))
        } else {
            None
        };
        let chain_at = reader.offset;
        let chain = *reader.array::<32>("chain digest")?;
        let head_at = reader.offset;
        let head = *reader.array::<32>("head digest")?;
        let resident_at = reader.offset;
        let resident_count = reader.count("resident count")?;
        let conserved = evictions.checked_add(u64::try_from(resident_count).unwrap_or(u64::MAX))
            == Some(entries);
        if !conserved {
            return Err(DecodeError::new(
                DecodeErrorKind::BatchCount,
                format!(
                    "snapshot window breaks conservation: {evictions} evictions + \
                     {resident_count} resident != {entries} entries"
                ),
                resident_at,
            ));
        }
        if entries > 0 && resident_count == 0 {
            return Err(DecodeError::new(
                DecodeErrorKind::BatchCount,
                "snapshot retains no entries for a non-empty history".to_string(),
                resident_at,
            ));
        }
        if resident_count > capacity {
            return Err(DecodeError::new(
                DecodeErrorKind::BatchCount,
                format!("snapshot retains {resident_count} entries over capacity {capacity}"),
                resident_at,
            ));
        }
        let mut ring = std::collections::VecDeque::with_capacity(resident_count);
        let mut folded = chain;
        let mut previous_timestamp: Option<u64> = None;
        for _ in 0..resident_count {
            let entry_at = reader.offset;
            let timestamp = reader.u64("entry timestamp")?;
            if previous_timestamp.is_some_and(|previous| previous >= timestamp) {
                return Err(DecodeError::new(
                    DecodeErrorKind::BatchCount,
                    format!("snapshot entries out of order at t={timestamp}"),
                    entry_at,
                ));
            }
            previous_timestamp = Some(timestamp);
            let collected_at = reader.u64("entry collection time")?;
            let tag_at = reader.offset;
            let tag = reader.u8("verdict tag")?;
            let verdict = MeasurementVerdict::from_tag(tag).ok_or_else(|| {
                DecodeError::new(
                    DecodeErrorKind::TagLength,
                    format!("snapshot verdict tag {tag} out of range"),
                    tag_at,
                )
            })?;
            folded = extend_digest(&folded, timestamp, tag, collected_at);
            ring.push_back(HistoryEntry {
                timestamp: SimTime::from_nanos(timestamp),
                verdict,
                collected_at: SimTime::from_nanos(collected_at),
            });
        }
        if let (Some(first), Some(front)) = (first_timestamp, ring.front()) {
            if first > front.timestamp {
                return Err(DecodeError::new(
                    DecodeErrorKind::BatchCount,
                    "snapshot first timestamp is later than its oldest retained entry".to_string(),
                    first_ts_at,
                ));
            }
        }
        if evictions == 0 && chain != [0u8; 32] {
            return Err(DecodeError::new(
                DecodeErrorKind::DigestLength,
                "snapshot chain digest is non-zero with no evictions".to_string(),
                chain_at,
            ));
        }
        if folded != head {
            return Err(DecodeError::new(
                DecodeErrorKind::DigestLength,
                "snapshot head digest does not extend its chain".to_string(),
                head_at,
            ));
        }
        let id = DeviceId::new(device);
        histories.insert(
            id,
            DeviceHistory {
                device: id,
                capacity,
                ring,
                chain,
                head,
                collections,
                rollup: HistoryRollup {
                    entries,
                    evictions,
                    stale_discards,
                    healthy,
                    compromised,
                    forged,
                    first_timestamp,
                    first_compromise_at,
                    compromise_detected_at,
                },
            },
        );
    }
    reader.finish()?;
    Ok(VerifierHub {
        histories,
        capacity,
        ingested,
        rejected,
        duplicates,
        dedup,
    })
}

#[cfg(test)]
#[expect(
    clippy::as_conversions,
    reason = "test fixtures build lengths and counts with literal-sized casts"
)]
mod tests {
    use super::*;
    use crate::history::HistoryMode;
    use erasmus_crypto::{Digest, KeyedMac, MacAlgorithm, Sha256};

    const KEY: [u8; 32] = [0x33u8; 32];

    fn keyed() -> KeyedMac {
        MacAlgorithm::HmacSha256.with_key(&KEY)
    }

    fn sample(secs: u64) -> Measurement {
        Measurement::from_digest_keyed(&keyed(), SimTime::from_secs(secs), Sha256::digest(b"mem"))
    }

    #[test]
    fn collection_response_roundtrip() {
        let response = CollectionResponse {
            device: DeviceId::new(42),
            measurements: vec![sample(30), sample(20), sample(10)],
            prover_time: SimDuration::from_micros(15),
        };
        let first = &response.measurements[0];
        assert_eq!(encode_measurement(first).len(), first.wire_size() + 4);
        let bytes = encode_collection_batch(std::slice::from_ref(&response));
        let decoded = decode_collection_batch(&bytes).expect("decodes");
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].device, DeviceId::new(42));
        assert_eq!(decoded[0].measurements, response.measurements);
        assert!(decoded[0]
            .measurements
            .iter()
            .all(|m| m.verify_keyed(&keyed())));
        // The prover time is a simulation artefact, not on the wire.
        assert_eq!(decoded[0].prover_time, SimDuration::ZERO);
    }

    #[test]
    fn decoded_tampered_bytes_fail_mac_verification() {
        let mut bytes = encode_collection_batch(&[sample_response(1, 1)]);
        // Flip one digest byte on the wire: count, device, measurement
        // count, timestamp and digest length come first.
        bytes[2 + 8 + 2 + 8 + 2] ^= 0x01;
        let frame = FrameView::parse(&bytes).expect("still well-formed");
        let response = frame.responses().next().expect("one response");
        let measurement = response.measurements().next().expect("one measurement");
        assert!(!measurement.to_measurement().verify_keyed(&keyed()));
    }

    fn sample_response(device: u64, count: usize) -> CollectionResponse {
        CollectionResponse {
            device: DeviceId::new(device),
            measurements: (0..count).map(|i| sample(10 * (i as u64 + 1))).collect(),
            prover_time: SimDuration::ZERO,
        }
    }

    #[test]
    fn batch_roundtrip() {
        let batch = vec![
            sample_response(1, 3),
            sample_response(2, 0),
            sample_response(7, 1),
        ];
        let bytes = encode_collection_batch(&batch);
        let decoded = decode_collection_batch(&bytes).expect("decodes");
        assert_eq!(decoded, batch);

        let empty = decode_collection_batch(&encode_collection_batch(&[])).expect("decodes");
        assert!(empty.is_empty());
    }

    #[test]
    fn oversized_batch_count_is_rejected() {
        let mut bytes = ((MAX_BATCH_RESPONSES + 1) as u16).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 64]);
        let err = decode_collection_batch(&bytes).unwrap_err();
        assert!(err.to_string().contains("implausible batch count"), "{err}");
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
    }

    #[test]
    fn batch_with_missing_response_is_rejected() {
        let frame = encode_collection_batch(&[sample_response(1, 1)]);
        // Claim two responses but carry one.
        let mut missing_response = frame.clone();
        missing_response[1] = 2;
        // Claim two measurements in the response but carry one.
        let mut missing_measurement = frame.clone();
        missing_measurement[2 + 9] = 2;
        // And every strict prefix of the frame.
        let prefixes = (0..frame.len()).map(|len| frame[..len].to_vec());
        for bytes in [missing_response, missing_measurement]
            .into_iter()
            .chain(prefixes)
        {
            let err = decode_collection_batch(&bytes).unwrap_err();
            assert!(err.to_string().contains("decode error"), "{err}");
            assert!(err.to_string().contains("truncated"), "{err}");
            assert_eq!(err.kind(), DecodeErrorKind::Truncated, "{err}");
        }
    }

    #[test]
    fn frame_view_matches_owned_decoder() {
        let batch = vec![
            sample_response(9, 2),
            sample_response(3, 0),
            sample_response(5, 4),
        ];
        let bytes = encode_collection_batch(&batch);
        let frame = FrameView::parse(&bytes).expect("parses");
        assert_eq!(frame.len(), batch.len());
        assert_eq!(frame.frame_len(), bytes.len());
        assert!(!frame.is_empty());

        for (view, expected) in frame.responses().zip(&batch) {
            assert_eq!(view.device(), expected.device);
            assert_eq!(view.len(), expected.measurements.len());
            assert_eq!(view.is_empty(), expected.measurements.is_empty());
            for (mv, m) in view.measurements().zip(&expected.measurements) {
                assert_eq!(mv.timestamp(), m.timestamp());
                assert_eq!(mv.digest(), m.digest());
                assert_eq!(mv.tag(), m.tag().as_bytes());
                assert_eq!(&mv.to_measurement(), m);
            }
            assert_eq!(&view.to_response(), expected);
        }
    }

    #[test]
    fn view_iterators_report_exact_lengths() {
        let batch = vec![sample_response(1, 3), sample_response(2, 1)];
        let bytes = encode_collection_batch(&batch);
        let frame = FrameView::parse(&bytes).expect("parses");
        let mut responses = frame.responses();
        assert_eq!(responses.len(), 2);
        let first = responses.next().expect("first response");
        assert_eq!(responses.len(), 1);
        let mut measurements = first.measurements();
        assert_eq!(measurements.len(), 3);
        measurements.next();
        assert_eq!(measurements.len(), 2);
        assert_eq!(measurements.count(), 2);
    }

    #[test]
    fn into_encoders_append_without_clearing() {
        let response = sample_response(4, 2);
        let mut out = vec![0xaa, 0xbb];
        encode_collection_batch_into(&mut out, std::slice::from_ref(&response));
        assert_eq!(&out[..2], &[0xaa, 0xbb]);
        assert_eq!(
            &out[2..],
            &encode_collection_batch(std::slice::from_ref(&response))[..]
        );
    }

    #[test]
    fn error_kind_every_variant_is_constructible() {
        // Truncated
        assert_eq!(
            decode_collection_batch(&[0x00]).unwrap_err().kind(),
            DecodeErrorKind::Truncated
        );
        // BatchCount
        let oversized = ((MAX_BATCH_RESPONSES + 1) as u16).to_be_bytes();
        assert_eq!(
            decode_collection_batch(&oversized).unwrap_err().kind(),
            DecodeErrorKind::BatchCount
        );
        // TrailingBytes
        for batch in [vec![], vec![sample_response(1, 1)]] {
            let mut padded = encode_collection_batch(&batch);
            padded.push(0xff);
            let err = decode_collection_batch(&padded).unwrap_err();
            assert!(err.to_string().contains("trailing"), "{err}");
            assert_eq!(err.kind(), DecodeErrorKind::TrailingBytes);
        }
        // DigestLength and TagLength via a crafted single-measurement frame.
        let mut frame = Vec::new();
        frame.extend_from_slice(&1u16.to_be_bytes()); // 1 response
        frame.extend_from_slice(&1u64.to_be_bytes()); // device
        frame.extend_from_slice(&1u16.to_be_bytes()); // 1 measurement
        frame.extend_from_slice(&9u64.to_be_bytes()); // timestamp
        let digest_len_at = frame.len();
        frame.extend_from_slice(&(DIGEST_LEN as u16).to_be_bytes());
        frame.extend_from_slice(&[0u8; DIGEST_LEN]);
        let tag_len_at = frame.len();
        frame.extend_from_slice(&4u16.to_be_bytes());
        frame.extend_from_slice(&[0u8; 4]);
        assert!(decode_collection_batch(&frame).is_ok());

        for digest_len in [DIGEST_LEN as u16 + 1, 60000] {
            let mut bad_digest = frame.clone();
            bad_digest[digest_len_at..digest_len_at + 2].copy_from_slice(&digest_len.to_be_bytes());
            let err = decode_collection_batch(&bad_digest).unwrap_err();
            assert!(
                err.to_string().contains("implausible digest length"),
                "{err}"
            );
            assert_eq!(err.kind(), DecodeErrorKind::DigestLength);
            assert!(err.offset() >= digest_len_at + 2);
        }
        for tag_len in [0, MAX_TAG_LEN as u8 + 1] {
            let mut bad_tag = frame.clone();
            bad_tag[tag_len_at + 1] = tag_len;
            assert_eq!(
                decode_collection_batch(&bad_tag).unwrap_err().kind(),
                DecodeErrorKind::TagLength
            );
        }
    }

    /// Ingests three entries per device for devices 2 (healthy) and
    /// 6 (compromised), then backdates the collection counters, so both the
    /// rollup and compromise-evidence sections carry non-default values.
    fn populate_devices(hub: &mut VerifierHub) {
        let mode = HistoryMode::Ring(hub.capacity());
        for (device, verdict) in [
            (2u64, MeasurementVerdict::Healthy),
            (6u64, MeasurementVerdict::Compromised),
        ] {
            let id = DeviceId::new(device);
            let history = hub
                .histories
                .entry(id)
                .or_insert_with(|| DeviceHistory::with_mode(id, mode));
            for i in 1..=3u64 {
                history.observe(HistoryEntry {
                    timestamp: SimTime::from_secs(10 * i),
                    verdict,
                    collected_at: SimTime::from_secs(10 * i + 5),
                });
            }
            history.collections = device;
        }
    }

    /// A hub with counters, two dedup windows and two device histories —
    /// every snapshot field populated with non-default values.
    fn populated_hub() -> VerifierHub {
        let mut hub = VerifierHub {
            ingested: 17,
            rejected: 3,
            duplicates: 2,
            ..VerifierHub::default()
        };
        hub.dedup.insert(
            4,
            FlowWindow {
                floor: 0,
                seen: [0u64, 1, 3].into_iter().collect(),
            },
        );
        hub.dedup.insert(
            9,
            FlowWindow {
                floor: 40,
                seen: [41u64, 44].into_iter().collect(),
            },
        );
        populate_devices(&mut hub);
        hub
    }

    /// The same device timelines as [`populated_hub`] but ingested into a
    /// two-slot ring, so every history has wrapped: one eviction, a sealed
    /// non-zero chain and a two-entry retained window. No dedup flows, so
    /// the first device record sits at offset 39.
    fn populated_ring_hub() -> VerifierHub {
        let mut hub = VerifierHub::with_history(HistoryMode::Ring(2));
        hub.ingested = 6;
        populate_devices(&mut hub);
        hub
    }

    #[test]
    fn hub_snapshot_roundtrip_is_lossless_and_canonical() {
        for hub in [
            VerifierHub::default(),
            populated_hub(),
            populated_ring_hub(),
        ] {
            let bytes = encode_hub_snapshot(&hub);
            let decoded = decode_hub_snapshot(&bytes).expect("snapshot decodes");
            assert_eq!(decoded, hub);
            assert_eq!(encode_hub_snapshot(&decoded), bytes, "canonical re-encode");
            assert_eq!(decoded.verified_chains(), decoded.len(), "chains verify");
        }
    }

    #[test]
    fn hub_snapshot_restores_a_wrapped_ring() {
        let hub = populated_ring_hub();
        let decoded = decode_hub_snapshot(&encode_hub_snapshot(&hub)).expect("snapshot decodes");
        assert_eq!(decoded.capacity(), 2);
        let history = decoded
            .history(DeviceId::new(6))
            .expect("device 6 restored");
        assert_eq!(history.len(), 3, "lifetime count survives the wrap");
        assert_eq!(history.resident_len(), 2);
        assert_eq!(history.evictions(), 1);
        assert_ne!(
            history.chain_digest(),
            &[0u8; 32],
            "eviction sealed the chain"
        );
        assert!(history.verify_chain());
        assert_eq!(history.first_compromise(), Some(SimTime::from_secs(10)));
        assert_eq!(history.first_timestamp(), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn hub_snapshot_into_appends_without_clearing() {
        let hub = populated_hub();
        let mut out = vec![0xaa, 0xbb];
        encode_hub_snapshot_into(&mut out, &hub);
        assert_eq!(&out[..2], &[0xaa, 0xbb]);
        assert_eq!(&out[2..], &encode_hub_snapshot(&hub)[..]);
    }

    #[test]
    fn hub_snapshot_is_prefix_and_suffix_strict() {
        for hub in [populated_hub(), populated_ring_hub()] {
            let bytes = encode_hub_snapshot(&hub);
            for len in 0..bytes.len() {
                let err = decode_hub_snapshot(&bytes[..len]).unwrap_err();
                assert_eq!(err.kind(), DecodeErrorKind::Truncated, "cut at {len}");
            }
            let mut padded = bytes.clone();
            padded.push(0);
            let err = decode_hub_snapshot(&padded).unwrap_err();
            assert_eq!(err.kind(), DecodeErrorKind::TrailingBytes);
        }
    }

    #[test]
    fn hub_snapshot_rejects_wrong_magic_and_version() {
        let mut bytes = encode_hub_snapshot(&VerifierHub::default());
        bytes[0] = 0x00;
        let err = decode_hub_snapshot(&bytes).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("not a hub snapshot"), "{err}");

        let mut bytes = encode_hub_snapshot(&VerifierHub::default());
        bytes[2] = SNAPSHOT_VERSION + 1;
        let err = decode_hub_snapshot(&bytes).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn hub_snapshot_rejects_non_canonical_record_order() {
        // Header: magic (2) + version (1) + capacity (4) + three u64
        // counters (24) = 31, then the u32 flow count at 31.
        let hub = populated_hub();
        let bytes = encode_hub_snapshot(&hub);

        // Swap the two flow ids (offset 35 and the second flow record's id)
        // so flows arrive descending.
        let first_flow_at = 35;
        let second_flow_at = first_flow_at + 8 + 8 + 4 + 3 * 8;
        let mut swapped = bytes.clone();
        swapped.copy_within(second_flow_at..second_flow_at + 8, first_flow_at);
        swapped[second_flow_at..second_flow_at + 8].copy_from_slice(&4u64.to_be_bytes());
        let err = decode_hub_snapshot(&swapped).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("flows out of order"), "{err}");

        // Duplicate the first sequence of flow 4 into its second slot so the
        // sequence list stops ascending.
        let first_seq_at = first_flow_at + 8 + 8 + 4;
        let mut stalled = bytes.clone();
        stalled.copy_within(first_seq_at..first_seq_at + 8, first_seq_at + 8);
        let err = decode_hub_snapshot(&stalled).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("sequences out of order"), "{err}");
    }

    #[test]
    fn hub_snapshot_rejects_sequences_below_the_floor() {
        // A window whose recorded sequence sits below its own floor can only
        // come from corruption; the in-memory window prunes on advance.
        let mut hub = VerifierHub::default();
        hub.dedup.insert(
            1,
            FlowWindow {
                floor: 100,
                seen: [7u64].into_iter().collect(),
            },
        );
        let err = decode_hub_snapshot(&encode_hub_snapshot(&hub)).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("below window floor"), "{err}");
    }

    /// Offset of the first device record in a [`populated_hub`] snapshot:
    /// 31-byte header, u32 flow count, flow 4 (3 sequences), flow 9
    /// (2 sequences), u32 device count.
    fn populated_hub_device_at() -> usize {
        31 + 4 + (8 + 8 + 4 + 3 * 8) + (8 + 8 + 4 + 2 * 8) + 4
    }

    /// Byte offsets of device 2's record fields relative to the start of its
    /// record. Device 2 is all-healthy, so its flags byte is zero and no
    /// compromise pair is present: id (8), collections (8), six rollup
    /// counters (48), flags (1), first timestamp (8), chain (32), head (32),
    /// resident count (4), then 17-byte entries.
    const DEV_ENTRIES_AT: usize = 16;
    const DEV_EVICTIONS_AT: usize = 24;
    const DEV_HEALTHY_AT: usize = 40;
    const DEV_FLAGS_AT: usize = 64;
    const DEV_FIRST_TS_AT: usize = 65;
    const DEV_CHAIN_AT: usize = 73;
    const DEV_HEAD_AT: usize = 105;
    const DEV_RESIDENT_AT: usize = 137;
    const DEV_FIRST_ENTRY_AT: usize = 141;

    #[test]
    fn hub_snapshot_rejects_disordered_devices_and_timestamps() {
        let hub = populated_hub();
        let bytes = encode_hub_snapshot(&hub);
        let device_at = populated_hub_device_at();
        assert_eq!(&bytes[device_at..device_at + 8], &2u64.to_be_bytes());
        let mut disordered = bytes.clone();
        disordered[device_at..device_at + 8].copy_from_slice(&7u64.to_be_bytes());
        let err = decode_hub_snapshot(&disordered).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("devices out of order"), "{err}");

        let first_entry_at = device_at + DEV_FIRST_ENTRY_AT;
        let mut stalled = bytes.clone();
        // Copy entry 1's timestamp over entry 2's (each entry is 17 bytes).
        stalled.copy_within(first_entry_at..first_entry_at + 8, first_entry_at + 17);
        let err = decode_hub_snapshot(&stalled).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("entries out of order"), "{err}");
    }

    #[test]
    fn hub_snapshot_rejects_out_of_range_verdicts() {
        let hub = populated_hub();
        let bytes = encode_hub_snapshot(&hub);
        let verdict_at = populated_hub_device_at() + DEV_FIRST_ENTRY_AT + 16;
        let mut bad = bytes.clone();
        assert_eq!(bad[verdict_at], 0, "healthy verdict tag");
        bad[verdict_at] = 3;
        let err = decode_hub_snapshot(&bad).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::TagLength);
        assert!(err.to_string().contains("verdict tag 3"), "{err}");
    }

    #[test]
    fn hub_snapshot_rejects_a_zero_capacity() {
        // The capacity u32 follows magic and version at offset 3.
        let mut bytes = encode_hub_snapshot(&populated_ring_hub());
        bytes[3..7].copy_from_slice(&0u32.to_be_bytes());
        let err = decode_hub_snapshot(&bytes).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert_eq!(err.offset(), 3);
        assert!(err.to_string().contains("zero capacity"), "{err}");
    }

    #[test]
    fn hub_snapshot_rejects_rollup_books_that_do_not_balance() {
        let bytes = encode_hub_snapshot(&populated_hub());
        let device_at = populated_hub_device_at();

        // Verdict counts must sum to the lifetime entry count.
        let mut bad = bytes.clone();
        bad[device_at + DEV_HEALTHY_AT + 7] = 4; // healthy: 3 -> 4
        let err = decode_hub_snapshot(&bad).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("do not sum"), "{err}");

        // Evictions + resident must equal entries.
        let mut bad = bytes.clone();
        bad[device_at + DEV_ENTRIES_AT + 7] = 4; // entries: 3 -> 4
        bad[device_at + DEV_HEALTHY_AT + 7] = 4; // keep the verdict sum consistent
        let err = decode_hub_snapshot(&bad).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("conservation"), "{err}");
    }

    #[test]
    fn hub_snapshot_rejects_out_of_range_flags() {
        let bytes = encode_hub_snapshot(&populated_hub());
        let flags_at = populated_hub_device_at() + DEV_FLAGS_AT;
        let mut bad = bytes.clone();
        assert_eq!(bad[flags_at], 0, "device 2 carries no compromise pair");
        bad[flags_at] = 2;
        let err = decode_hub_snapshot(&bad).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::TagLength);
        assert!(err.to_string().contains("flags"), "{err}");
    }

    #[test]
    fn hub_snapshot_rejects_an_implausible_first_timestamp() {
        let bytes = encode_hub_snapshot(&populated_hub());
        let first_ts_at = populated_hub_device_at() + DEV_FIRST_TS_AT;
        let mut bad = bytes.clone();
        bad[first_ts_at..first_ts_at + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        let err = decode_hub_snapshot(&bad).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("first timestamp"), "{err}");
    }

    #[test]
    fn hub_snapshot_rejects_forged_digests() {
        let bytes = encode_hub_snapshot(&populated_hub());
        let device_at = populated_hub_device_at();

        // A non-zero chain with no evictions cannot come from a real history.
        let mut bad = bytes.clone();
        bad[device_at + DEV_CHAIN_AT] = 1;
        let err = decode_hub_snapshot(&bad).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::DigestLength);
        assert!(err.to_string().contains("no evictions"), "{err}");

        // A tampered head no longer extends the sealed chain.
        let mut bad = bytes.clone();
        bad[device_at + DEV_HEAD_AT] ^= 1;
        let err = decode_hub_snapshot(&bad).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::DigestLength);
        assert!(err.to_string().contains("does not extend"), "{err}");

        // Tampering with a retained entry breaks the head fold too.
        let mut bad = bytes.clone();
        let collected_at = device_at + DEV_FIRST_ENTRY_AT + 8;
        bad[collected_at + 7] ^= 1;
        let err = decode_hub_snapshot(&bad).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::DigestLength);
        assert!(err.to_string().contains("does not extend"), "{err}");
    }

    #[test]
    fn hub_snapshot_rejects_ring_windows_that_overflow_their_capacity() {
        // populated_ring_hub has no dedup flows: 31-byte header, u32 flow
        // count, u32 device count, then device 2's record at offset 39.
        let bytes = encode_hub_snapshot(&populated_ring_hub());
        let device_at = 31 + 4 + 4;
        assert_eq!(&bytes[device_at..device_at + 8], &2u64.to_be_bytes());

        // Lower the declared capacity below the retained window.
        let mut bad = bytes.clone();
        bad[3..7].copy_from_slice(&1u32.to_be_bytes());
        let err = decode_hub_snapshot(&bad).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("over capacity"), "{err}");

        // A non-empty history must retain at least one entry.
        let mut bad = bytes.clone();
        bad[device_at + DEV_EVICTIONS_AT + 7] = 3; // evictions: 1 -> 3 keeps conservation
        let resident_at = device_at + DEV_RESIDENT_AT;
        bad[resident_at..resident_at + 4].copy_from_slice(&0u32.to_be_bytes());
        let err = decode_hub_snapshot(&bad).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("retains no entries"), "{err}");
    }

    #[test]
    fn snapshot_and_frame_formats_reject_each_other() {
        let snapshot = encode_hub_snapshot(&populated_hub());
        // The snapshot magic reads as an implausible batch count.
        let err = decode_collection_batch(&snapshot).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(FrameView::parse(&snapshot).is_err());

        // And a valid frame never opens with the snapshot magic.
        let frame = encode_collection_batch(&[sample_response(1, 1)]);
        let err = decode_hub_snapshot(&frame).unwrap_err();
        assert_eq!(err.kind(), DecodeErrorKind::BatchCount);
        assert!(err.to_string().contains("not a hub snapshot"), "{err}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::history::HistoryMode;
    use erasmus_crypto::MAX_TAG_LEN;
    use proptest::prelude::*;

    fn arb_measurement() -> impl Strategy<Value = Measurement> {
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), DIGEST_LEN),
            proptest::collection::vec(any::<u8>(), 1..=MAX_TAG_LEN),
        )
            .prop_map(|(nanos, digest_bytes, tag_bytes)| {
                let mut digest = MemoryDigest::default();
                digest.copy_from_slice(&digest_bytes);
                Measurement::from_parts(SimTime::from_nanos(nanos), digest, MacTag::new(&tag_bytes))
            })
    }

    fn arb_response() -> impl Strategy<Value = CollectionResponse> {
        (
            any::<u64>(),
            proptest::collection::vec(arb_measurement(), 0..8),
        )
            .prop_map(|(device, measurements)| CollectionResponse {
                device: DeviceId::new(device),
                measurements,
                prover_time: SimDuration::ZERO,
            })
    }

    proptest! {
        /// A whole delivery batch survives the wire, preserving response
        /// order (the hub's per-device arrival order depends on it).
        #[test]
        fn batch_roundtrips(batch in proptest::collection::vec(arb_response(), 0..6)) {
            let bytes = encode_collection_batch(&batch);
            prop_assert_eq!(decode_collection_batch(&bytes).unwrap(), batch);
        }

        /// The zero-copy view path decodes exactly what the owned path
        /// decodes, and re-encoding is canonical (byte-identical input).
        #[test]
        fn views_agree_with_owned_path_and_reencode_canonically(
            batch in proptest::collection::vec(arb_response(), 0..6),
        ) {
            let bytes = encode_collection_batch(&batch);
            let frame = FrameView::parse(&bytes).unwrap();
            let via_views: Vec<CollectionResponse> =
                frame.responses().map(|view| view.to_response()).collect();
            prop_assert_eq!(&via_views, &decode_collection_batch(&bytes).unwrap());
            prop_assert_eq!(encode_collection_batch(&via_views), bytes);
        }

        /// Batch framing is prefix-strict: every strict prefix of a valid
        /// frame is rejected as truncated (no partial batch ever parses).
        #[test]
        fn truncated_batches_are_rejected(
            batch in proptest::collection::vec(arb_response(), 1..4),
            cut in any::<usize>(),
        ) {
            let bytes = encode_collection_batch(&batch);
            let len = cut % bytes.len(); // in 0..bytes.len(): strict prefix
            prop_assert!(decode_collection_batch(&bytes[..len]).is_err());
        }

        /// ...and suffix-strict: trailing garbage is rejected too.
        #[test]
        fn oversized_batches_are_rejected(
            batch in proptest::collection::vec(arb_response(), 0..4),
            trailer in proptest::collection::vec(any::<u8>(), 1..16),
        ) {
            let mut bytes = encode_collection_batch(&batch);
            bytes.extend_from_slice(&trailer);
            prop_assert!(decode_collection_batch(&bytes).is_err());
        }

        /// Any hub — wrapped or not, with arbitrary device timelines —
        /// survives the snapshot codec losslessly and re-encodes
        /// byte-identically. Capacities above 12 never evict.
        #[test]
        fn hub_snapshot_roundtrips_for_arbitrary_hubs(
            mode in (1usize..16).prop_map(HistoryMode::Ring),
            devices in proptest::collection::vec(
                (0u64..32, proptest::collection::vec((0u64..128, any::<u8>()), 0..12)),
                0..5,
            ),
            counters in (any::<u64>(), any::<u64>(), any::<u64>()),
        ) {
            let mut hub = VerifierHub::with_history(mode);
            hub.ingested = counters.0;
            hub.rejected = counters.1;
            hub.duplicates = counters.2;
            const VERDICTS: [MeasurementVerdict; 3] = [
                MeasurementVerdict::Healthy,
                MeasurementVerdict::Compromised,
                MeasurementVerdict::Forged,
            ];
            for (device, draws) in devices {
                let id = DeviceId::new(device);
                let history = hub
                    .histories
                    .entry(id)
                    .or_insert_with(|| DeviceHistory::with_mode(id, mode));
                for (ts, selector) in draws {
                    history.observe(HistoryEntry {
                        timestamp: SimTime::from_secs(ts),
                        verdict: VERDICTS[usize::from(selector) % VERDICTS.len()],
                        collected_at: SimTime::from_secs(ts + 3),
                    });
                }
            }
            let bytes = encode_hub_snapshot(&hub);
            let decoded = decode_hub_snapshot(&bytes).expect("own snapshot decodes");
            prop_assert_eq!(&decoded, &hub);
            prop_assert_eq!(encode_hub_snapshot(&decoded), bytes, "canonical");
        }
    }
}
