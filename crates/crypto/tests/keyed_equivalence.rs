//! Equivalence suite: the precomputed [`KeyedMac`] path must produce
//! byte-identical tags to the one-shot [`MacAlgorithm::mac`] path for every
//! algorithm, on known-answer vectors and on random inputs.
//!
//! The precomputed path is what provers and verifiers actually run: for
//! HMAC, hashers resumed from the key's two chaining states. The one-shot
//! path is the reference construction checked against the RFC vectors in
//! the unit tests. This suite pins the two together so a chaining-state or
//! resume bug cannot silently diverge from the spec.

use erasmus_crypto::{Digest, Hmac, HmacKey, KeyedMac, MacAlgorithm, MacTag, Sha1, Sha256};
use proptest::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Known-answer vectors: (algorithm, key, message, expected tag hex).
///
/// HMAC-SHA256 cases are from RFC 4231, HMAC-SHA1 cases from RFC 2202, and
/// the keyed-BLAKE2s cases from the official BLAKE2 reference test suite.
fn known_answers() -> Vec<(MacAlgorithm, Vec<u8>, Vec<u8>, &'static str)> {
    let blake_key: Vec<u8> = (0..32u8).collect();
    vec![
        (
            MacAlgorithm::HmacSha256,
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            MacAlgorithm::HmacSha256,
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            MacAlgorithm::HmacSha256,
            vec![0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            MacAlgorithm::HmacSha1,
            vec![0x0b; 20],
            b"Hi There".to_vec(),
            "b617318655057264e28bc0b6fb378c8ef146be00",
        ),
        (
            MacAlgorithm::HmacSha1,
            b"Jefe".to_vec(),
            b"what do ya want for nothing?".to_vec(),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
        ),
        (
            MacAlgorithm::HmacSha1,
            (0x01..=0x19u8).collect(),
            vec![0xcd; 50],
            "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
        ),
        // Cases 6 and 7: an 80-byte key, longer than the block, is hashed
        // before it becomes the HMAC key.
        (
            MacAlgorithm::HmacSha1,
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112",
        ),
        (
            MacAlgorithm::HmacSha1,
            vec![0xaa; 80],
            b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data".to_vec(),
            "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
        ),
        (
            MacAlgorithm::KeyedBlake2s,
            blake_key.clone(),
            Vec::new(),
            "48a8997da407876b3d79c0d92325ad3b89cbb754d86ab71aee047ad345fd2c49",
        ),
        (
            MacAlgorithm::KeyedBlake2s,
            blake_key.clone(),
            vec![0x00],
            "40d15fee7c328830166ac3f918650f807e7e01e177258cdc0a39b11f598066f1",
        ),
        (
            MacAlgorithm::KeyedBlake2s,
            blake_key,
            vec![0x00, 0x01],
            "6bb71300644cd3991b26ccd4d274acd1adeab8b1d7914546c1198bbe9fc9d803",
        ),
    ]
}

#[test]
fn keyed_path_reproduces_every_known_answer() {
    for (alg, key, message, expected) in known_answers() {
        let keyed = alg.with_key(&key);
        let tag = keyed.mac(&message);
        assert_eq!(hex(tag.as_bytes()), expected, "{alg} KAT via KeyedMac");
        assert_eq!(tag, alg.mac(&key, &message), "{alg} KAT one-shot match");
        assert!(keyed.verify(&message, &tag), "{alg} KAT verifies");
        assert!(
            keyed.verify(&message, &MacTag::new(tag.as_bytes())),
            "{alg} KAT verifies through a reconstructed tag"
        );
    }
}

/// HMAC straight from RFC 2104's definition over whole-message digests,
/// `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))`, with no state kept between blocks.
fn hmac_by_definition<D: Digest>(key: &[u8], message: &[u8]) -> D::Output {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        let hashed = D::digest(key);
        key_block[..hashed.as_ref().len()].copy_from_slice(hashed.as_ref());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let padded = |pad: u8, tail: &[u8]| -> Vec<u8> {
        key_block
            .iter()
            .map(|k| k ^ pad)
            .chain(tail.iter().copied())
            .collect()
    };
    let inner = D::digest(&padded(0x36, message));
    D::digest(&padded(0x5c, inner.as_ref()))
}

#[test]
fn hmac_key_incremental_absorption_matches_oneshot_at_block_boundaries() {
    // Every length up to 130 bytes: from 56 on the padding spills into a
    // second block after the key block, and 64 and 128 fill whole blocks.
    // The keys cover empty, short, one block, one byte over (hashed first)
    // and RFC 4231's 131 bytes.
    let message: Vec<u8> = (0..130u32).map(|i| (i * 31 % 256) as u8).collect();
    for key_len in [0usize, 20, 32, 64, 65, 131] {
        let key: Vec<u8> = (0..key_len as u32).map(|i| (i * 7 + 1) as u8).collect();
        macro_rules! check {
            ($hash:ty) => {{
                let schedule = HmacKey::<$hash>::new(&key);
                for len in 0..=message.len() {
                    let message = &message[..len];
                    let tag = schedule.mac(message);
                    let name = stringify!($hash);
                    assert_eq!(
                        tag,
                        Hmac::<$hash>::mac(&key, message),
                        "{name}: key {key_len} B, message {len} B"
                    );
                    assert_eq!(
                        tag,
                        hmac_by_definition::<$hash>(&key, message),
                        "{name} by definition: key {key_len} B, message {len} B"
                    );
                    // Byte-at-a-time absorption through the resumed hashers.
                    let mut incremental = schedule.begin();
                    for byte in message {
                        incremental.update(std::slice::from_ref(byte));
                    }
                    assert_eq!(
                        incremental.finalize(),
                        tag,
                        "{name} incremental: key {key_len} B, message {len} B"
                    );
                }
            }};
        }
        check!(Sha256);
        check!(Sha1);
    }
}

#[test]
fn cloned_keyed_states_are_independent() {
    let keyed = MacAlgorithm::KeyedBlake2s.with_key(b"device key");
    let clone = keyed.clone();
    let before = keyed.mac(b"first");
    // Using the clone must not disturb the original state.
    let _ = clone.mac(b"interleaved message of a different length");
    assert_eq!(keyed.mac(b"first"), before);
    assert_eq!(clone.mac(b"first"), before);
}

proptest! {
    /// Random keys and messages: precomputed == one-shot, always, for all
    /// three algorithms.
    #[test]
    fn precomputed_equals_oneshot(
        key in proptest::collection::vec(any::<u8>(), 0..128),
        message in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        for alg in MacAlgorithm::ALL {
            let keyed = alg.with_key(&key);
            let precomputed = keyed.mac(&message);
            let oneshot = alg.mac(&key, &message);
            prop_assert_eq!(&precomputed, &oneshot, "{} diverged", alg);
            prop_assert!(keyed.verify(&message, &oneshot));
            prop_assert!(alg.verify(&key, &message, &precomputed));
        }
    }

    /// A keyed state survives arbitrary reuse: the Nth tag equals the first.
    #[test]
    fn keyed_state_reuse_is_stateless(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        messages in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..256), 1..8),
    ) {
        for alg in MacAlgorithm::ALL {
            let keyed: KeyedMac = alg.with_key(&key);
            let expected: Vec<MacTag> = messages.iter().map(|m| alg.mac(&key, m)).collect();
            // Interleave in both directions to shake out shared-state bugs.
            for (message, tag) in messages.iter().zip(&expected) {
                prop_assert_eq!(&keyed.mac(message), tag);
            }
            for (message, tag) in messages.iter().zip(&expected).rev() {
                prop_assert_eq!(&keyed.mac(message), tag);
            }
        }
    }

    /// Tags produced by the precomputed path are rejected by a schedule for
    /// any other key (no key-schedule aliasing).
    #[test]
    fn different_keys_never_alias(
        key_a in proptest::collection::vec(any::<u8>(), 1..64),
        key_b in proptest::collection::vec(any::<u8>(), 1..64),
        message in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        prop_assume!(key_a != key_b);
        for alg in MacAlgorithm::ALL {
            let tag = alg.with_key(&key_a).mac(&message);
            prop_assert!(!alg.with_key(&key_b).verify(&message, &tag), "{} aliased", alg);
        }
    }
}
