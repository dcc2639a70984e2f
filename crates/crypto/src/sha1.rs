//! SHA-1 as specified in FIPS 180-1 / RFC 3174.
//!
//! The paper includes HMAC-SHA1 in Table 1 "for comparison purposes only" and
//! explicitly excludes it from its actual implementations due to the SHAttered
//! collision. This crate keeps [`Sha1`] for that comparison and for
//! `MacAlgorithm::HmacSha1`, which a fleet can run end to end, but the rest
//! of the workspace defaults to SHA-256 or BLAKE2s.

use crate::md::{Core, MdHasher};

/// One SHA-1 round. Only `e` (which becomes the next round's `a`) and `b`
/// (rotated into the next round's `c`) change; the caller renames the rest
/// instead of moving them.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $k:expr, $w:expr) => {
        $e = $a
            .rotate_left(5)
            .wrapping_add($f($b, $c, $d))
            .wrapping_add($e)
            .wrapping_add($k)
            .wrapping_add($w);
        $b = $b.rotate_left(30);
    };
}

/// Round function of rounds 0–19.
#[inline(always)]
fn ch(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (!b & d)
}

/// Round function of rounds 20–39 and 60–79.
#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

/// Round function of rounds 40–59.
#[inline(always)]
fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (b & d) | (c & d)
}

/// Word `t` of the message schedule, kept in a rolling 16-word window:
/// from round 16 on, each new word overwrites the one 16 rounds back.
#[inline(always)]
fn schedule(w: &mut [u32; 16], t: usize) -> u32 {
    if t >= 16 {
        w[t & 15] =
            (w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15]).rotate_left(1);
    }
    w[t & 15]
}

/// Incremental SHA-1 hasher.
///
/// # Example
///
/// ```
/// use erasmus_crypto::{Digest, Sha1};
///
/// let digest = Sha1::digest(b"abc");
/// assert_eq!(digest.len(), 20);
/// ```
pub type Sha1 = MdHasher<Sha1Core>;

/// SHA-1's constants and kernels, which the shared front end of [`Sha1`]
/// drives.
#[derive(Debug, Clone)]
pub struct Sha1Core;

impl Core for Sha1Core {
    type State = [u32; 5];
    type Output = [u8; 20];

    const IV: [u32; 5] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0];

    #[cfg(target_arch = "x86_64")]
    const SHA_NI: crate::md::Kernel<[u32; 5]> = sha_ni::compress_blocks;

    /// The software compression, five rounds at a time, with the round
    /// function and constant fixed per 20-round stage: the working variables
    /// rotate by name, so every fifth round finds them back under their
    /// starting names.
    fn compress_block(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;

        macro_rules! stage {
            ($first:literal, $f:ident, $k:literal) => {
                for t in ($first..$first + 20).step_by(5) {
                    round!(a, b, c, d, e, $f, $k, schedule(&mut w, t));
                    round!(e, a, b, c, d, $f, $k, schedule(&mut w, t + 1));
                    round!(d, e, a, b, c, $f, $k, schedule(&mut w, t + 2));
                    round!(c, d, e, a, b, $f, $k, schedule(&mut w, t + 3));
                    round!(b, c, d, e, a, $f, $k, schedule(&mut w, t + 4));
                }
            };
        }
        stage!(0, ch, 0x5a827999);
        stage!(20, parity, 0x6ed9eba1);
        stage!(40, maj, 0x8f1bbcdc);
        stage!(60, parity, 0xca62c1d6);

        for (word, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *word = word.wrapping_add(v);
        }
    }
}

/// The compression on x86-64's SHA extensions (SHA-NI).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x, _mm_sha1msg1_epu32,
        _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32, _mm_shuffle_epi8,
        _mm_xor_si128,
    };

    /// Compresses each 64-byte block of `blocks` into `state` in turn. The
    /// chaining state stays in two registers for the whole run: `ABCD`
    /// (`A` in the high lane) and `E` (in the high lane of the other). It
    /// runs only inside the shared dispatcher, which is never inlined (see
    /// `md.rs`'s `compress` for why that matters).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
        let [a, b, c, d, e] = state.map(|word| word as i32);
        let mut abcd = _mm_set_epi32(a, b, c, d);
        let mut e = _mm_set_epi32(e, 0, 0, 0);
        // Reverses all sixteen bytes: the block's words are big-endian, and
        // the instructions want the first of four in the high lane.
        let reverse = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);

        for block in blocks.chunks_exact(64) {
            let words = |i: usize| {
                let half = |j: usize| {
                    i64::from_le_bytes(block[8 * j..8 * j + 8].try_into().expect("8-byte half"))
                };
                _mm_shuffle_epi8(_mm_set_epi64x(half(2 * i + 1), half(2 * i)), reverse)
            };
            let mut w = [words(0), words(1), words(2), words(3)];
            let (abcd_in, e_in) = (abcd, e);

            // Rounds 0–3 add the chaining `E` to their first word. Each later
            // four derive theirs with `sha1nexte` from `A` four rounds back
            // (`back`), rotated, and take their schedule words from the
            // sixteen before them, in a rolling window of four registers.
            let mut back = abcd;
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, _mm_add_epi32(e, w[0]));
            macro_rules! stage {
                ($groups:expr, $f:literal) => {
                    for t in $groups {
                        if t >= 4 {
                            let (w0, w1, w2, w3) =
                                (w[t & 3], w[(t + 1) & 3], w[(t + 2) & 3], w[(t + 3) & 3]);
                            w[t & 3] = _mm_sha1msg2_epu32(
                                _mm_xor_si128(_mm_sha1msg1_epu32(w0, w1), w2),
                                w3,
                            );
                        }
                        let e_w = _mm_sha1nexte_epu32(back, w[t & 3]);
                        back = abcd;
                        abcd = _mm_sha1rnds4_epu32::<$f>(abcd, e_w);
                    }
                };
            }
            stage!(1..5, 0);
            stage!(5..10, 1);
            stage!(10..15, 2);
            stage!(15..20, 3);

            e = _mm_sha1nexte_epu32(back, e_in);
            abcd = _mm_add_epi32(abcd, abcd_in);
        }

        *state = [
            _mm_extract_epi32::<3>(abcd) as u32,
            _mm_extract_epi32::<2>(abcd) as u32,
            _mm_extract_epi32::<1>(abcd) as u32,
            _mm_extract_epi32::<0>(abcd) as u32,
            _mm_extract_epi32::<3>(e) as u32,
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::md::compress;
    use crate::md::tests::{front_end_matches, sha_ni_or_notice};
    use crate::Digest;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The compression as FIPS 180-1 writes it: an 80-word schedule, the
    /// round function picked by round index, and all five working variables
    /// shifted every round.
    fn compress_reference(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;

        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5a827999u32),
                20..=39 => (b ^ c ^ d, 0x6ed9eba1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1bbcdc),
                _ => (b ^ c ^ d, 0xca62c1d6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }

        for (word, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *word = word.wrapping_add(v);
        }
    }

    /// SHA-1 on the software kernel alone, padded as FIPS 180-1 spells it
    /// out: the reference for the dispatching [`Sha1`].
    fn software_digest(data: &[u8]) -> [u8; 20] {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = Sha1Core::IV;
        for block in message.chunks_exact(64) {
            Sha1Core::compress_block(&mut state, block.try_into().expect("64 bytes"));
        }
        let mut out = [0u8; 20];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    // A property without `#[test]`: the test below runs it once it knows
    // which kernel `compress` picks on this CPU.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Both kernels equal the FIPS-literal one on any chaining state,
        /// not only on the states reachable from the IV: the software kernel
        /// directly, and the SHA-NI kernel through `compress`.
        fn kernels_match_the_fips_reference(
            state in proptest::collection::vec(any::<u32>(), 5),
            block in proptest::collection::vec(any::<u8>(), 64),
        ) {
            let state: [u32; 5] = state.try_into().expect("5 words");
            let block: [u8; 64] = block.try_into().expect("64 bytes");
            let mut expected = state;
            compress_reference(&mut expected, &block);
            let mut software = state;
            Sha1Core::compress_block(&mut software, &block);
            prop_assert_eq!(software, expected);
            let mut dispatched = state;
            compress::<Sha1Core>(&mut dispatched, &block);
            prop_assert_eq!(dispatched, expected);
        }
    }

    #[test]
    fn compress_matches_the_fips_reference() {
        sha_ni_or_notice("compress_matches_the_fips_reference");
        kernels_match_the_fips_reference();
    }

    #[test]
    fn front_end_matches_the_software_only_digest() {
        front_end_matches::<Sha1Core>(
            "front_end_matches_the_software_only_digest",
            software_digest,
        );
    }

    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha1::digest(&msg)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn output_size_is_twenty_bytes() {
        assert_eq!(size_of::<<Sha1 as Digest>::Output>(), 20);
        assert_eq!(Sha1::digest(b"x").len(), 20);
    }
}
