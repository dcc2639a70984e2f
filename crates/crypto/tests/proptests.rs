//! Property-based tests for the cryptographic substrate.

use erasmus_crypto::{
    constant_time_eq, Blake2s, Digest, HmacDrbg, HmacSha256, MacAlgorithm, Sha1, Sha256,
};
use proptest::prelude::*;

proptest! {
    /// Hashing the same input twice gives the same digest; hashing in chunks
    /// gives the same digest as hashing in one shot.
    #[test]
    fn sha256_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
        let split = split.min(data.len());
        let mut hasher = Sha256::new();
        hasher.update(&data[..split]);
        hasher.update(&data[split..]);
        prop_assert_eq!(hasher.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha1_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
        let split = split.min(data.len());
        let mut hasher = Sha1::new();
        hasher.update(&data[..split]);
        hasher.update(&data[split..]);
        prop_assert_eq!(hasher.finalize(), Sha1::digest(&data));
    }

    #[test]
    fn blake2s_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..2048), split in 0usize..2048) {
        let split = split.min(data.len());
        let mut hasher = Blake2s::new();
        hasher.update(&data[..split]);
        hasher.update(&data[split..]);
        prop_assert_eq!(hasher.finalize(), Blake2s::digest(&data));
    }

    /// Digest length is constant regardless of input.
    #[test]
    fn digest_lengths(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(Sha256::digest(&data).len(), 32);
        prop_assert_eq!(Sha1::digest(&data).len(), 20);
        prop_assert_eq!(Blake2s::digest(&data).len(), 32);
    }

    /// A MAC verifies under the key and message it was computed with, for
    /// every algorithm.
    #[test]
    fn mac_roundtrip(
        key in proptest::collection::vec(any::<u8>(), 0..64),
        message in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        for alg in MacAlgorithm::ALL {
            let tag = alg.mac(&key, &message);
            prop_assert!(alg.verify(&key, &message, &tag));
            prop_assert_eq!(tag.len(), alg.tag_len());
        }
    }

    /// Flipping any single bit of the message invalidates the tag.
    #[test]
    fn mac_detects_bit_flips(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        message in proptest::collection::vec(any::<u8>(), 1..256),
        byte_index in 0usize..256,
        bit in 0u8..8,
    ) {
        let byte_index = byte_index % message.len();
        for alg in MacAlgorithm::ALL {
            let tag = alg.mac(&key, &message);
            let mut tampered = message.clone();
            tampered[byte_index] ^= 1 << bit;
            prop_assert!(!alg.verify(&key, &tampered, &tag), "{alg} accepted a tampered message");
        }
    }

    /// Flipping any single bit of the tag makes verification fail.
    #[test]
    fn mac_detects_tag_tampering(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        message in proptest::collection::vec(any::<u8>(), 0..256),
        byte_index in 0usize..64,
        bit in 0u8..8,
    ) {
        for alg in MacAlgorithm::ALL {
            let tag = alg.mac(&key, &message);
            let mut bytes = tag.as_bytes().to_vec();
            let idx = byte_index % bytes.len();
            bytes[idx] ^= 1 << bit;
            prop_assert!(!alg.verify(&key, &message, &bytes.into()));
        }
    }

    /// HMAC is deterministic.
    #[test]
    fn hmac_deterministic(
        key in proptest::collection::vec(any::<u8>(), 0..128),
        message in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        prop_assert_eq!(HmacSha256::mac(&key, &message), HmacSha256::mac(&key, &message));
    }

    /// constant_time_eq agrees with ==.
    #[test]
    fn ct_eq_matches_plain_eq(
        a in proptest::collection::vec(any::<u8>(), 0..64),
        b in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assert_eq!(constant_time_eq(&a, &b), a == b);
        prop_assert!(constant_time_eq(&a, &a));
    }

    /// The DRBG always respects range bounds and is deterministic per seed.
    #[test]
    fn drbg_range_and_determinism(
        seed in proptest::collection::vec(any::<u8>(), 1..64),
        low in 0u64..1_000_000,
        span in 1u64..1_000_000,
        draws in 1usize..50,
    ) {
        let high = low + span;
        let mut a = HmacDrbg::new(&seed, b"proptest");
        let mut b = HmacDrbg::new(&seed, b"proptest");
        for _ in 0..draws {
            let va = a.next_in_range(low, high);
            let vb = b.next_in_range(low, high);
            prop_assert_eq!(va, vb);
            prop_assert!(va >= low && va < high);
        }
    }
}
