//! SHA-256 as specified in FIPS 180-2.
//!
//! The paper's reference MAC for both SMART+ and HYDRA implementations is
//! HMAC-SHA256, so SHA-256 is the default hash used to compute `H(mem_t)`
//! throughout the workspace.

use crate::md::{Core, MdHasher};

/// Round constants (first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// One SHA-256 round. Of the eight working variables only `d` (which
/// becomes the next round's `e`) and `h` (the next round's `a`) change; the
/// caller renames the rest instead of moving them.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $k:expr, $w:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($k)
            .wrapping_add($w);
        $d = $d.wrapping_add(t1);
        $h = t1
            .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
    };
}

/// Word `t` of the message schedule, kept in a rolling 16-word window:
/// from round 16 on, each new word overwrites the one 16 rounds back.
#[inline(always)]
fn schedule(w: &mut [u32; 16], t: usize) -> u32 {
    if t >= 16 {
        let w15 = w[(t + 1) & 15];
        let w2 = w[(t + 14) & 15];
        let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
        let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
        w[t & 15] = w[t & 15]
            .wrapping_add(s0)
            .wrapping_add(w[(t + 9) & 15])
            .wrapping_add(s1);
    }
    w[t & 15]
}

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use erasmus_crypto::{Digest, Sha256};
///
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// # fn hex(bytes: &[u8]) -> String {
/// #     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// # }
/// ```
pub type Sha256 = MdHasher<Sha256Core>;

/// SHA-256's constants and kernels, which the shared front end of
/// [`Sha256`] drives.
#[derive(Debug, Clone)]
pub struct Sha256Core;

impl Core for Sha256Core {
    type State = [u32; 8];
    type Output = [u8; 32];

    /// First 32 bits of the fractional parts of the square roots of the
    /// first 8 primes.
    const IV: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    #[cfg(target_arch = "x86_64")]
    const SHA_NI: crate::md::Kernel<[u32; 8]> = sha_ni::compress_blocks;

    /// The software compression, eight rounds at a time: the working variables
    /// rotate by name, so every eighth round finds them back under their
    /// starting names.
    fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for t in (0..64).step_by(8) {
            round!(a, b, c, d, e, f, g, h, K[t], schedule(&mut w, t));
            round!(h, a, b, c, d, e, f, g, K[t + 1], schedule(&mut w, t + 1));
            round!(g, h, a, b, c, d, e, f, K[t + 2], schedule(&mut w, t + 2));
            round!(f, g, h, a, b, c, d, e, K[t + 3], schedule(&mut w, t + 3));
            round!(e, f, g, h, a, b, c, d, K[t + 4], schedule(&mut w, t + 4));
            round!(d, e, f, g, h, a, b, c, K[t + 5], schedule(&mut w, t + 5));
            round!(c, d, e, f, g, h, a, b, K[t + 6], schedule(&mut w, t + 6));
            round!(b, c, d, e, f, g, h, a, K[t + 7], schedule(&mut w, t + 7));
        }

        for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }
}

/// The compression on x86-64's SHA extensions (SHA-NI).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    use super::K;

    /// Rounds `t..t + 4`, on schedule words `w`: each `sha256rnds2` runs
    /// two rounds and swaps which half of the state it advances.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $t:expr) => {
            let k = [K[$t + 3], K[$t + 2], K[$t + 1], K[$t]].map(|word| word as i32);
            let wk = _mm_add_epi32($w, _mm_set_epi32(k[0], k[1], k[2], k[3]));
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        };
    }

    /// The next four schedule words, from the sixteen before them.
    macro_rules! schedule4 {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(
                    _mm_sha256msg1_epu32($w0, $w1),
                    _mm_alignr_epi8::<4>($w3, $w2),
                ),
                $w3,
            )
        };
    }

    /// Compresses each 64-byte block of `blocks` into `state` in turn. The
    /// chaining state stays in two registers for the whole run, in the
    /// instructions' `ABEF`/`CDGH` layout (`A` in the high lane). It runs
    /// only inside the shared dispatcher, which is never inlined (see
    /// `md.rs`'s `compress` for why that matters).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Reverses the bytes of each 32-bit lane: the block's words are
        // big-endian.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        for block in blocks.chunks_exact(64) {
            let words = |i: usize| {
                let half = |j: usize| {
                    i64::from_le_bytes(block[8 * j..8 * j + 8].try_into().expect("8-byte half"))
                };
                _mm_shuffle_epi8(_mm_set_epi64x(half(2 * i + 1), half(2 * i)), byte_swap)
            };
            let (mut w0, mut w1, mut w2, mut w3) = (words(0), words(1), words(2), words(3));
            let (abef_in, cdgh_in) = (abef, cdgh);

            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 4);
            rounds4!(abef, cdgh, w2, 8);
            rounds4!(abef, cdgh, w3, 12);
            for t in (16..64).step_by(16) {
                w0 = schedule4!(w0, w1, w2, w3);
                rounds4!(abef, cdgh, w0, t);
                w1 = schedule4!(w1, w2, w3, w0);
                rounds4!(abef, cdgh, w1, t + 4);
                w2 = schedule4!(w2, w3, w0, w1);
                rounds4!(abef, cdgh, w2, t + 8);
                w3 = schedule4!(w3, w0, w1, w2);
                rounds4!(abef, cdgh, w3, t + 12);
            }

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        *state = [
            _mm_extract_epi32::<3>(abef) as u32,
            _mm_extract_epi32::<2>(abef) as u32,
            _mm_extract_epi32::<3>(cdgh) as u32,
            _mm_extract_epi32::<2>(cdgh) as u32,
            _mm_extract_epi32::<1>(abef) as u32,
            _mm_extract_epi32::<0>(abef) as u32,
            _mm_extract_epi32::<1>(cdgh) as u32,
            _mm_extract_epi32::<0>(cdgh) as u32,
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

    /// The compression as FIPS 180-2 writes it: a 64-word schedule, and all
    /// eight working variables shifted every round.
    fn compress_reference(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }

    /// SHA-256 on the software kernel alone, padded as FIPS 180-2 spells it
    /// out: the reference for the dispatching [`Sha256`].
    fn software_digest(data: &[u8]) -> [u8; 32] {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = Sha256Core::IV;
        for block in message.chunks_exact(64) {
            Sha256Core::compress_block(&mut state, block.try_into().expect("64 bytes"));
        }
        let mut out = [0u8; 32];
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
            state in proptest::collection::vec(any::<u32>(), 8),
            block in proptest::collection::vec(any::<u8>(), 64),
        ) {
            let state: [u32; 8] = state.try_into().expect("8 words");
            let block: [u8; 64] = block.try_into().expect("64 bytes");
            let mut expected = state;
            compress_reference(&mut expected, &block);
            let mut software = state;
            Sha256Core::compress_block(&mut software, &block);
            prop_assert_eq!(software, expected);
            let mut dispatched = state;
            compress::<Sha256Core>(&mut dispatched, &block);
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
        front_end_matches::<Sha256Core>(
            "front_end_matches_the_software_only_digest",
            software_digest,
        );
    }

    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn long_multiblock_message() {
        // 896-bit test vector from FIPS 180-2.
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                    ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&Sha256::digest(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn output_size_is_thirty_two_bytes() {
        assert_eq!(size_of::<<Sha256 as Digest>::Output>(), 32);
        assert_eq!(Sha256::digest(b"x").len(), 32);
    }
}
