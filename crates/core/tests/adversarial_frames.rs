//! Adversarial wire-frame corpus: every decoder rejection variant, the
//! batch-count boundary, tampered-but-well-formed frames, and the
//! frame-vs-struct ingestion equivalence at fleet scale.
//!
//! The seeded fuzz harness (`crates/fuzz`) explores this space randomly;
//! these tests pin the corners deterministically so a codec regression
//! fails here first, with a readable assertion.

use erasmus_core::{
    decode_collection_batch, decode_hub_snapshot, encode_collection_batch, encode_hub_snapshot,
    AttestationVerdict, CollectionRequest, CollectionResponse, DecodeErrorKind, DeviceId,
    FrameView, Prover, ProverConfig, Verifier, VerifierHub, DEDUP_WINDOW, DIGEST_LEN,
    MAX_BATCH_RESPONSES,
};
use erasmus_crypto::MacAlgorithm;
use erasmus_hw::{DeviceKey, DeviceProfile};
use erasmus_sim::{SimDuration, SimTime};

const INTERVAL: SimDuration = SimDuration::from_secs(10);
const PER_ROUND: usize = 4;

fn provision(id: u64) -> (Prover, Verifier) {
    let key = DeviceKey::derive(b"adversarial-frames", id);
    let config = ProverConfig::builder()
        .measurement_interval(INTERVAL)
        .buffer_slots(PER_ROUND)
        .build()
        .expect("valid config");
    let prover = Prover::new(
        DeviceId::new(id),
        DeviceProfile::msp430_8mhz(256),
        key.clone(),
        config,
    )
    .expect("provisioning");
    let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
    verifier.learn_reference_image(prover.mcu().app_memory());
    verifier.set_expected_interval(INTERVAL);
    (prover, verifier)
}

fn respond(prover: &mut Prover, at: SimTime) -> CollectionResponse {
    prover.run_until(at).expect("measurements");
    prover.handle_collection(&CollectionRequest::latest(PER_ROUND), at)
}

/// One genuine single-response frame to mutate from.
fn genuine_frame(id: u64) -> (Vec<u8>, Verifier) {
    let (mut prover, verifier) = provision(id);
    let at = SimTime::ZERO + INTERVAL * PER_ROUND as u64;
    let response = respond(&mut prover, at);
    (
        encode_collection_batch(std::slice::from_ref(&response)),
        verifier,
    )
}

/// A structurally valid frame of `count` responses with zero measurements
/// each — the smallest well-formed frame per response record.
fn empty_response_frame(count: usize) -> Vec<u8> {
    let mut frame = Vec::with_capacity(2 + count * 10);
    frame.extend_from_slice(&(count as u16).to_be_bytes());
    for device in 0..count as u64 {
        frame.extend_from_slice(&device.to_be_bytes()); // device id
        frame.extend_from_slice(&0u16.to_be_bytes()); // measurement count
    }
    frame
}

/// Asserts `frame` is rejected with `kind` and that a hub fed the frame is
/// left completely untouched.
fn assert_rejected(frame: &[u8], kind: DecodeErrorKind, label: &str) {
    let error = FrameView::parse(frame).expect_err(label);
    assert_eq!(error.kind(), kind, "{label}");
    assert!(error.offset() <= frame.len(), "{label}: offset in bounds");
    // The owned decoder agrees.
    let owned = decode_collection_batch(frame).expect_err(label);
    assert_eq!(owned.kind(), kind, "{label}: owned decoder");

    let mut hub = VerifierHub::new();
    let mut called = false;
    let error = hub
        .ingest_frame(frame, |_| {
            called = true;
            None
        })
        .expect_err(label);
    assert_eq!(error.kind(), kind, "{label}: hub path");
    assert!(!called, "{label}: verify callback ran on a rejected frame");
    assert!(hub.is_empty(), "{label}: hub grew on a rejected frame");
    assert_eq!(hub.ingested(), 0, "{label}");
    assert_eq!(hub.rejected(), 0, "{label}");
}

#[test]
fn every_rejection_kind_has_a_concrete_adversarial_frame() {
    let (genuine, _) = genuine_frame(0);

    // Walk DecodeErrorKind::ALL exhaustively: adding a variant without a
    // corresponding adversarial frame here fails the match below.
    for kind in DecodeErrorKind::ALL {
        match kind {
            DecodeErrorKind::Truncated => {
                assert_rejected(&[], kind, "empty input");
                assert_rejected(&[0x00], kind, "half a count field");
                let mut cut = genuine.clone();
                cut.truncate(cut.len() - 1);
                assert_rejected(&cut, kind, "one byte short of a tag");
                assert_rejected(&genuine[..7], kind, "mid device id");
            }
            DecodeErrorKind::BatchCount => {
                let lie = ((MAX_BATCH_RESPONSES + 1) as u16).to_be_bytes();
                assert_rejected(&lie, kind, "count one past the cap");
                assert_rejected(&[0xff, 0xff], kind, "count u16::MAX");
            }
            DecodeErrorKind::DigestLength => {
                // Layout: count(2) device(8) mcount(2) t(8) → dlen at 20.
                let mut lied = genuine.clone();
                lied[20..22].copy_from_slice(&((DIGEST_LEN - 1) as u16).to_be_bytes());
                assert_rejected(&lied, kind, "digest one byte short");
                lied[20..22].copy_from_slice(&((DIGEST_LEN + 1) as u16).to_be_bytes());
                assert_rejected(&lied, kind, "digest one byte long");
            }
            DecodeErrorKind::TagLength => {
                // tlen sits right after the digest: 22 + DIGEST_LEN.
                let at = 22 + DIGEST_LEN;
                let mut lied = genuine.clone();
                lied[at..at + 2].copy_from_slice(&0u16.to_be_bytes());
                assert_rejected(&lied, kind, "zero-length tag");
                lied[at..at + 2].copy_from_slice(&u16::MAX.to_be_bytes());
                assert_rejected(&lied, kind, "overlong tag");
            }
            DecodeErrorKind::TrailingBytes => {
                let mut padded = genuine.clone();
                padded.push(0x00);
                assert_rejected(&padded, kind, "one trailing byte");
                assert_rejected(&[0x00, 0x00, 0x99], kind, "bytes after empty batch");
            }
        }
    }
}

#[test]
fn batch_count_boundary_is_exact() {
    // Exactly MAX_BATCH_RESPONSES decodes; one more is rejected before any
    // response bytes are even looked at.
    let at_cap = empty_response_frame(MAX_BATCH_RESPONSES);
    let frame = FrameView::parse(&at_cap).expect("cap-sized frame decodes");
    assert_eq!(frame.len(), MAX_BATCH_RESPONSES);
    assert_eq!(frame.frame_len(), at_cap.len());

    let mut over = empty_response_frame(MAX_BATCH_RESPONSES);
    over[0..2].copy_from_slice(&((MAX_BATCH_RESPONSES + 1) as u16).to_be_bytes());
    let error = FrameView::parse(&over).expect_err("over-cap count");
    assert_eq!(error.kind(), DecodeErrorKind::BatchCount);
    assert_eq!(error.offset(), 0);
}

#[test]
fn duplicated_and_reordered_records_still_decode_and_verify() {
    // Structural validity is orthogonal to semantic acceptance: an attacker
    // replaying a record twice, or shuffling record order, produces a frame
    // the decoder accepts — detection happens at the MAC/history layer,
    // and the decoder must not mask it by rejecting early.
    let at = SimTime::ZERO + INTERVAL * PER_ROUND as u64;
    let (mut p0, mut v0) = provision(0);
    let (mut p1, mut v1) = provision(1);
    let r0 = respond(&mut p0, at);
    let r1 = respond(&mut p1, at);

    let duplicated = encode_collection_batch(&[r0.clone(), r0.clone()]);
    let frame = FrameView::parse(&duplicated).expect("duplicate records decode");
    assert_eq!(frame.len(), 2);

    let reordered = encode_collection_batch(&[r1, r0]);
    let frame = FrameView::parse(&reordered).expect("reordered records decode");
    let devices: Vec<u64> = frame.responses().map(|r| r.device().value()).collect();
    assert_eq!(devices, vec![1, 0]);

    // Each reordered record still verifies against its own device key.
    let mut hub = VerifierHub::new();
    let outcome = hub
        .ingest_frame(&reordered, |view| {
            let verifier = if view.device().value() == 0 {
                &mut v0
            } else {
                &mut v1
            };
            Some(verifier.verify_frame_response(&view, at).expect("verifies"))
        })
        .expect("decodes");
    assert_eq!(outcome.accepted, 2);
    assert_eq!(outcome.verify_failed, 0);
    assert!(hub.all_healthy());
}

#[test]
fn bit_flips_in_mac_and_digest_surface_as_tampering_not_decode_errors() {
    let at = SimTime::ZERO + INTERVAL * PER_ROUND as u64;
    let (frame, mut verifier) = genuine_frame(0);

    // Flip one bit in the first measurement's digest (offset 22) and one in
    // its tag (right after the tag-length field): both frames stay
    // well-formed, both must verify as tampering.
    let tag_at = 22 + DIGEST_LEN + 2;
    for (flip_at, label) in [(22usize, "digest"), (tag_at, "tag")] {
        let mut flipped = frame.clone();
        flipped[flip_at] ^= 0x80;
        let mut hub = VerifierHub::new();
        let outcome = hub
            .ingest_frame(&flipped, |view| {
                let report = verifier
                    .verify_frame_response(&view, at)
                    .expect("well-formed record still yields a report");
                assert_eq!(
                    report.verdict(),
                    AttestationVerdict::TamperingDetected,
                    "{label} flip"
                );
                None
            })
            .expect("bit-flipped frame still decodes");
        assert_eq!(outcome.verify_failed, 1, "{label} flip");
        assert_eq!(outcome.accepted, 0, "{label} flip");
        assert!(hub.is_empty(), "{label} flip");
    }
}

#[test]
fn flipped_device_id_fails_verification_under_the_real_owner_key() {
    // A bit flip in the device-id field (offset 2..10) re-routes the record
    // to another device, whose key cannot verify the MACs: the frame
    // decodes, verification reports tampering.
    let at = SimTime::ZERO + INTERVAL * PER_ROUND as u64;
    let (frame, _) = genuine_frame(0);
    let mut rerouted = frame.clone();
    rerouted[9] ^= 0x01; // device 0 -> device 1

    let parsed = FrameView::parse(&rerouted).expect("rerouted frame decodes");
    let view = parsed.responses().next().expect("one record");
    assert_eq!(view.device(), DeviceId::new(1));

    let (_, mut owner_of_1) = provision(1);
    let report = owner_of_1
        .verify_frame_response(&view, at)
        .expect("verification still yields a report");
    assert_eq!(report.verdict(), AttestationVerdict::TamperingDetected);
}

#[test]
fn replayed_sequenced_frames_are_dropped_exactly_once() {
    // An attacker (or a faulty link) replaying a captured frame must not
    // double-count a single measurement: the dedup window accepts each
    // (flow, sequence) once and swallows every later copy without even
    // running verification.
    let at = SimTime::ZERO + INTERVAL * PER_ROUND as u64;
    let (frame, mut verifier) = genuine_frame(0);
    let mut hub = VerifierHub::new();
    const FLOW: u64 = 7;

    let outcome = hub
        .ingest_sequenced_frame(FLOW, 0, &frame, |view| {
            Some(verifier.verify_frame_response(&view, at).expect("verifies"))
        })
        .expect("genuine frame decodes")
        .expect("first copy is fresh");
    assert_eq!(outcome.accepted, 1);
    let after_first = hub.clone();

    // Replays: same sequence, arbitrary number of times.
    for _ in 0..3 {
        let replay = hub
            .ingest_sequenced_frame(FLOW, 0, &frame, |_| {
                panic!("verify callback ran on a replayed frame")
            })
            .expect("replay still decodes");
        assert!(replay.is_none(), "replay was accepted");
    }
    assert_eq!(hub.duplicates(), 3);
    assert_eq!(hub.ingested(), after_first.ingested());
    assert_eq!(hub.total_entries(), after_first.total_entries());

    // A far-future sequence advances the window floor; sequences that fell
    // below the floor are stale even if never seen before — the hub
    // prefers losing an ancient frame to ever double-counting one.
    let fresh = hub
        .ingest_sequenced_frame(FLOW, DEDUP_WINDOW + 10, &frame, |view| {
            Some(verifier.verify_frame_response(&view, at).expect("verifies"))
        })
        .expect("decodes");
    assert!(fresh.is_some(), "far-future sequence is fresh");
    let stale = hub
        .ingest_sequenced_frame(FLOW, 1, &frame, |_| {
            panic!("verify callback ran on a below-floor frame")
        })
        .expect("decodes");
    assert!(stale.is_none(), "below-floor sequence accepted");

    // The same sequence on a different flow is a different delivery.
    let other_flow = hub
        .ingest_sequenced_frame(FLOW + 1, 0, &frame, |view| {
            Some(verifier.verify_frame_response(&view, at).expect("verifies"))
        })
        .expect("decodes");
    assert!(other_flow.is_some(), "flows must not share dedup state");
}

#[test]
fn snapshot_restore_preserves_replay_protection() {
    // Crash recovery must restore the dedup window along with the device
    // histories: a hub that forgets what it has seen across a restart can
    // be replayed into double-counting by re-sending captured frames.
    let at = SimTime::ZERO + INTERVAL * PER_ROUND as u64;
    let (frame, mut verifier) = genuine_frame(0);
    let mut hub = VerifierHub::new();
    hub.ingest_sequenced_frame(11, 42, &frame, |view| {
        Some(verifier.verify_frame_response(&view, at).expect("verifies"))
    })
    .expect("decodes")
    .expect("fresh");

    let snapshot = encode_hub_snapshot(&hub);
    let mut restored = decode_hub_snapshot(&snapshot).expect("snapshot decodes");
    assert_eq!(restored, hub, "restore is bit-identical");

    let replay = restored
        .ingest_sequenced_frame(11, 42, &frame, |_| {
            panic!("verify callback ran on a replay against the restored hub")
        })
        .expect("decodes");
    assert!(replay.is_none(), "restored hub forgot the dedup window");
    assert_eq!(restored.duplicates(), hub.duplicates() + 1);

    // Re-encoding the restored hub reproduces the snapshot byte for byte —
    // the codec is canonical, so recovery cannot drift across restarts.
    // (The replay above only bumped the duplicates counter; undo it for
    // the byte comparison by snapshotting before and after.)
    let again = decode_hub_snapshot(&snapshot).expect("snapshot decodes twice");
    assert_eq!(encode_hub_snapshot(&again), snapshot);
}

#[test]
fn corrupted_snapshots_are_rejected_not_misparsed() {
    let at = SimTime::ZERO + INTERVAL * PER_ROUND as u64;
    let (frame, mut verifier) = genuine_frame(0);
    let mut hub = VerifierHub::new();
    hub.ingest_sequenced_frame(3, 9, &frame, |view| {
        Some(verifier.verify_frame_response(&view, at).expect("verifies"))
    })
    .expect("decodes")
    .expect("fresh");
    let snapshot = encode_hub_snapshot(&hub);

    // Truncations at every prefix length must fail cleanly, never panic
    // and never yield a hub.
    for cut in 0..snapshot.len() {
        assert!(
            decode_hub_snapshot(&snapshot[..cut]).is_err(),
            "truncated snapshot (len {cut}) decoded"
        );
    }
    // A wrong magic or version is not silently tolerated.
    let mut bad_magic = snapshot.clone();
    bad_magic[0] ^= 0xff;
    assert!(
        decode_hub_snapshot(&bad_magic).is_err(),
        "bad magic decoded"
    );
    // Trailing garbage is rejected, not ignored.
    let mut padded = snapshot.clone();
    padded.push(0);
    assert!(
        decode_hub_snapshot(&padded).is_err(),
        "trailing byte decoded"
    );
}

#[test]
fn frame_and_struct_ingestion_agree_at_fleet_scale() {
    // 16 devices × 2 rounds, both paths fed the same responses: the hubs
    // must end up equal, entry for entry, and the counters must match.
    const FLEET: u64 = 16;
    let mut fleet: Vec<(Prover, Verifier)> = (0..FLEET).map(provision).collect();
    let mut struct_verifiers: Vec<Verifier> =
        fleet.iter().map(|(_, verifier)| verifier.clone()).collect();

    let mut frame_hub = VerifierHub::new();
    let mut struct_hub = VerifierHub::new();
    let round_span = INTERVAL * PER_ROUND as u64;

    for round in 1..=2u64 {
        let at = SimTime::ZERO + round_span * round;
        let responses: Vec<CollectionResponse> = fleet
            .iter_mut()
            .map(|(prover, _)| respond(prover, at))
            .collect();
        let frame = encode_collection_batch(&responses);

        let outcome = frame_hub
            .ingest_frame(&frame, |view| {
                let verifier = &mut fleet[view.device().value() as usize].1;
                Some(verifier.verify_frame_response(&view, at).expect("verifies"))
            })
            .expect("fleet frame decodes");
        assert_eq!(outcome.responses, FLEET);
        assert_eq!(outcome.accepted, FLEET);
        assert_eq!(outcome.bytes, frame.len() as u64);

        for (response, verifier) in responses.iter().zip(struct_verifiers.iter_mut()) {
            let report = verifier.verify_collection(response, at).expect("verifies");
            assert!(struct_hub.ingest(&report));
        }
    }

    assert_eq!(frame_hub, struct_hub);
    assert_eq!(frame_hub.ingested(), FLEET * 2);
    assert_eq!(frame_hub.total_entries(), FLEET * 2 * PER_ROUND as u64);
    for ((_, frame_v), struct_v) in fleet.iter().zip(&struct_verifiers) {
        assert_eq!(frame_v.last_collection(), struct_v.last_collection());
    }
}
