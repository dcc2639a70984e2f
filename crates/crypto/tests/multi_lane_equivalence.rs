//! Equivalence suite for the lane-interleaved core: every lane of
//! [`Sha256xN`](erasmus_crypto::Sha256xN) and [`MultiKeyedMac`] must produce
//! digests and tags bit-identical to the scalar [`Sha256`] and [`KeyedMac`]
//! paths — on known-answer vectors, on random inputs, at every supported
//! width, and for the ragged-remainder partitions the fleet harness produces
//! (full 8-lane groups, then 4-lane groups, then scalar leftovers over one
//! work list). HMAC-SHA1 and keyed BLAKE2s lanes take the scalar fallback,
//! and the same suite pins them. [`HmacDrbg::fill_lanes`], which keys a
//! fresh HMAC schedule per lane, must match the scalar generator too.

use erasmus_crypto::{
    Digest, HmacDrbg, KeyedMac, MacAlgorithm, MacTag, MultiKeyedMac, Sha256, Sha256x4, Sha256x8,
};
use proptest::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// ---------------------------------------------------------------------------
// Known-answer vectors: the lanes must reproduce the specs, not just agree
// with the scalar code.
// ---------------------------------------------------------------------------

#[test]
fn sha256_lanes_reproduce_fips_vectors() {
    // FIPS 180-2 one-block and two-block vectors, one per lane (equal
    // lengths within a batch, so each vector rides its own batch of equal
    // inputs with one distinct lane).
    let cases: [(&[u8], &str); 3] = [
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
    ];
    for (message, expected) in cases {
        let x4 = Sha256x4::digest([message; 4]);
        let x8 = Sha256x8::digest([message; 8]);
        for (lane, digest) in x4.iter().enumerate() {
            assert_eq!(hex(digest), expected, "x4 lane {lane}");
        }
        for (lane, digest) in x8.iter().enumerate() {
            assert_eq!(hex(digest), expected, "x8 lane {lane}");
        }
    }
}

#[test]
fn keyed_lanes_reproduce_mac_known_answers() {
    // RFC 4231 case 1 (HMAC-SHA256) and the BLAKE2 reference keyed vector,
    // each replicated across all lanes of a MultiKeyedMac.
    let hmac_key = MacAlgorithm::HmacSha256.with_key(&[0x0b; 20]);
    let multi = MultiKeyedMac::<4>::new([&hmac_key; 4]);
    for tag in multi.mac([&b"Hi There"[..]; 4]) {
        assert_eq!(
            hex(tag.as_bytes()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    let blake_key: Vec<u8> = (0..32u8).collect();
    let keyed = MacAlgorithm::KeyedBlake2s.with_key(&blake_key);
    let multi = MultiKeyedMac::<8>::new([&keyed; 8]);
    for tag in multi.mac([&[0x00u8][..]; 8]) {
        assert_eq!(
            hex(tag.as_bytes()),
            "40d15fee7c328830166ac3f918650f807e7e01e177258cdc0a39b11f598066f1"
        );
    }
}

// ---------------------------------------------------------------------------
// Ragged batches: the fleet partitions a cohort into 8-lane groups, 4-lane
// groups and scalar leftovers. All partitions must agree bit-for-bit.
// ---------------------------------------------------------------------------

/// Hashes `messages` the way a lane-batched shard would: 8-wide groups
/// first, then 4-wide, then scalar stragglers.
fn staged_digests(messages: &[Vec<u8>]) -> Vec<[u8; 32]> {
    let mut out = Vec::with_capacity(messages.len());
    let mut rest = messages;
    while rest.len() >= 8 {
        let (group, tail) = rest.split_at(8);
        out.extend(Sha256x8::digest(std::array::from_fn(|i| &group[i][..])));
        rest = tail;
    }
    while rest.len() >= 4 {
        let (group, tail) = rest.split_at(4);
        out.extend(Sha256x4::digest(std::array::from_fn(|i| &group[i][..])));
        rest = tail;
    }
    for message in rest {
        out.push(Sha256::digest(message));
    }
    out
}

#[test]
fn ragged_batch_partitions_match_scalar() {
    // Every cohort size from 0 to 21 covers all 8/4/scalar combinations.
    for count in 0..22usize {
        let messages: Vec<Vec<u8>> = (0..count).map(|i| vec![i as u8 ^ 0x7e; 333]).collect();
        let staged = staged_digests(&messages);
        for (lane, message) in messages.iter().enumerate() {
            assert_eq!(
                staged[lane],
                Sha256::digest(message),
                "count {count} lane {lane}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Property tests: random keys/messages, every algorithm, both widths.
// ---------------------------------------------------------------------------

fn keyed_lanes(alg: MacAlgorithm, count: usize, keys: &[Vec<u8>]) -> Vec<KeyedMac> {
    (0..count).map(|i| alg.with_key(&keys[i])).collect()
}

proptest! {
    /// Random equal-length messages: every SHA-256 lane equals the scalar
    /// digest, at width 4 and 8, one-shot and split absorption.
    #[test]
    fn sha256_lanes_equal_scalar(
        len in 0usize..1500,
        seeds in proptest::collection::vec(any::<u8>(), 8),
        split in 0usize..4096,
    ) {
        let messages: Vec<Vec<u8>> = seeds
            .iter()
            .map(|&seed| (0..len).map(|i| (i as u8).wrapping_mul(seed).wrapping_add(seed)).collect())
            .collect();
        let at = split % (len + 1);

        let x8 = Sha256x8::digest(std::array::from_fn(|i| &messages[i][..]));
        let mut incremental = Sha256x4::new();
        incremental.update(std::array::from_fn(|i| &messages[i][..at]));
        incremental.update(std::array::from_fn(|i| &messages[i][at..]));
        let x4 = incremental.finalize();
        for lane in 0..8 {
            let scalar = Sha256::digest(&messages[lane]);
            prop_assert_eq!(x8[lane], scalar, "x8 lane {}", lane);
            if lane < 4 {
                prop_assert_eq!(x4[lane], scalar, "x4 lane {}", lane);
            }
        }
    }

    /// Random per-lane keys and messages: every MultiKeyedMac lane equals
    /// the scalar KeyedMac tag, for all three algorithms and both widths.
    #[test]
    fn multi_keyed_mac_lanes_equal_scalar(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..64), 8),
        len in 0usize..600,
        fill in any::<u8>(),
    ) {
        let messages: Vec<Vec<u8>> = (0..8u8)
            .map(|lane| (0..len).map(|i| (i as u8).wrapping_add(lane) ^ fill).collect())
            .collect();
        for alg in MacAlgorithm::ALL {
            let lanes = keyed_lanes(alg, 8, &keys);
            let x8 = MultiKeyedMac::<8>::new(std::array::from_fn(|i| &lanes[i]));
            let tags8 = x8.mac(std::array::from_fn(|i| &messages[i][..]));
            let x4 = MultiKeyedMac::<4>::new(std::array::from_fn(|i| &lanes[i]));
            let tags4 = x4.mac(std::array::from_fn(|i| &messages[i][..]));
            for lane in 0..8 {
                let scalar: MacTag = lanes[lane].mac(&messages[lane]);
                prop_assert_eq!(&tags8[lane], &scalar, "{} x8 lane {}", alg, lane);
                if lane < 4 {
                    prop_assert_eq!(&tags4[lane], &scalar, "{} x4 lane {}", alg, lane);
                }
            }
        }
    }

    /// Reusing a MultiKeyedMac across batches is stateless, exactly like
    /// the scalar KeyedMac.
    #[test]
    fn multi_keyed_mac_reuse_is_stateless(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        first in proptest::collection::vec(any::<u8>(), 0..256),
        second in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        for alg in MacAlgorithm::ALL {
            let keyed = alg.with_key(&key);
            let multi = MultiKeyedMac::<4>::new([&keyed; 4]);
            let before = multi.mac([&first[..]; 4]);
            let _ = multi.mac([&second[..]; 4]);
            let after = multi.mac([&first[..]; 4]);
            for lane in 0..4 {
                prop_assert_eq!(&before[lane], &after[lane], "{} lane {}", alg, lane);
                prop_assert_eq!(&before[lane], &keyed.mac(&first), "{} lane {}", alg, lane);
            }
        }
    }
}

proptest! {
    // Each case walks all 81 lengths, so a few key draws suffice.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every message length from 0 to 80 bytes, with random per-lane keys
    /// (short, block-sized and hashed-down long ones): the HMAC-SHA256 lanes
    /// equal the scalar tag on both sides of the 55/56-byte limit past which
    /// the inner padding spills into a second block, and of the 64-byte
    /// block boundary, at width 1, 4 and 8.
    #[test]
    fn hmac_sha256_lanes_equal_scalar_across_the_padding_limits(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..100), 8),
        fill in any::<u8>(),
    ) {
        let lanes = keyed_lanes(MacAlgorithm::HmacSha256, 8, &keys);
        let x8 = MultiKeyedMac::<8>::new(std::array::from_fn(|i| &lanes[i]));
        let x4 = MultiKeyedMac::<4>::new(std::array::from_fn(|i| &lanes[i]));
        let x1 = MultiKeyedMac::<1>::new([&lanes[0]]);
        for len in 0..=80usize {
            let messages: Vec<Vec<u8>> = (0..8u8)
                .map(|lane| (0..len).map(|i| (i as u8 ^ fill).wrapping_add(lane.wrapping_mul(29))).collect())
                .collect();
            let tags8 = x8.mac(std::array::from_fn(|i| &messages[i][..]));
            let tags4 = x4.mac(std::array::from_fn(|i| &messages[i][..]));
            let tags1 = x1.mac([&messages[0][..]]);
            for lane in 0..8 {
                let scalar: MacTag = lanes[lane].mac(&messages[lane]);
                prop_assert_eq!(&tags8[lane], &scalar, "x8 len {} lane {}", len, lane);
                if lane < 4 {
                    prop_assert_eq!(&tags4[lane], &scalar, "x4 len {} lane {}", len, lane);
                }
            }
            prop_assert_eq!(&tags1[0], &tags8[0], "x1 len {}", len);
        }
    }
}

// ---------------------------------------------------------------------------
// HMAC-DRBG lanes: each lane is a reseeded clone of the shared generator.
// ---------------------------------------------------------------------------

/// Lane `l` of `fill_lanes` against the scalar definition: clone, reseed
/// with `additional[l]`, fill 32 bytes.
fn drbg_lane_reference(drbg: &HmacDrbg, additional: &[u8]) -> [u8; 32] {
    let mut lane = drbg.clone();
    lane.reseed(additional);
    let mut out = [0u8; 32];
    lane.fill(&mut out);
    out
}

proptest! {
    #[test]
    fn drbg_fill_lanes_match_clone_reseed_fill(
        seed in proptest::collection::vec(any::<u8>(), 0..80),
        personalization in proptest::collection::vec(any::<u8>(), 0..40),
        drawn in 0usize..70,
        additional_len in 0usize..80,
        additional in proptest::collection::vec(any::<u8>(), 8 * 80),
    ) {
        let mut drbg = HmacDrbg::new(&seed, &personalization);
        // Move the shared state past instantiation.
        let _ = drbg.generate(drawn);
        let lane = |l: usize| &additional[l * additional_len..(l + 1) * additional_len];

        let x8 = drbg.fill_lanes::<8>(std::array::from_fn(lane));
        for (l, out) in x8.iter().enumerate() {
            prop_assert_eq!(*out, drbg_lane_reference(&drbg, lane(l)), "x8 lane {l}");
        }
        let x4 = drbg.fill_lanes::<4>(std::array::from_fn(lane));
        prop_assert_eq!(&x4[..], &x8[..4]);
        let x1 = drbg.fill_lanes::<1>([lane(0)]);
        prop_assert_eq!(x1[0], x8[0]);
    }
}

#[test]
#[should_panic(expected = "equal-length")]
fn drbg_fill_lanes_reject_ragged_additional_inputs() {
    let drbg = HmacDrbg::new(b"seed", b"ctx");
    let _ = drbg.fill_lanes([&b"id-1"[..], b"id-22"]);
}
