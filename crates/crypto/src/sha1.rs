//! SHA-1 as specified in FIPS 180-1 / RFC 3174.
//!
//! The paper includes HMAC-SHA1 in Table 1 "for comparison purposes only" and
//! explicitly excludes it from its actual implementations due to the SHAttered
//! collision. This crate keeps [`Sha1`] for that comparison and for
//! `MacAlgorithm::HmacSha1`, which a fleet can run end to end, but the rest
//! of the workspace defaults to SHA-256 or BLAKE2s.

use crate::digest::Digest;
use crate::hmac::sealed::ChainingHash;

const H0: [u32; 5] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0];

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
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Sha1 {
    /// Creates a fresh SHA-1 state.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Five rounds at a time, with the round function and constant fixed
    /// per 20-round stage: the working variables rotate by name, so every
    /// fifth round finds them back under their starting names.
    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.state;

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

        for (word, v) in self.state.iter_mut().zip([a, b, c, d, e]) {
            *word = word.wrapping_add(v);
        }
    }
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest for Sha1 {
    const OUTPUT_SIZE: usize = 20;
    const BLOCK_SIZE: usize = 64;

    type Output = [u8; 20];

    fn new() -> Self {
        Sha1::new()
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);

        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }

        // Aligned full blocks compress straight from the input slice; the
        // copy through `self.buffer` is only for partial blocks.
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            self.compress(chunk.try_into().expect("64-byte chunk"));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            self.buffer[..rem.len()].copy_from_slice(rem);
            self.buffer_len = rem.len();
        }
    }

    fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.total_len.wrapping_mul(8);
        let mut padding = [0u8; 72];
        padding[0] = 0x80;
        let msg_len = (self.total_len % 64) as usize;
        let zero_count = if msg_len < 56 {
            55 - msg_len
        } else {
            119 - msg_len
        };
        let pad_len = 1 + zero_count + 8;
        padding[1 + zero_count..pad_len].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&padding[..pad_len]);
        debug_assert_eq!(self.buffer_len, 0);

        let mut out = [0u8; 20];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

impl ChainingHash for Sha1 {
    type State = [u32; 5];

    fn chaining_state(&self) -> [u32; 5] {
        debug_assert_eq!(self.buffer_len, 0, "only whole blocks chain");
        self.state
    }

    fn resume(state: [u32; 5], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % 64, 0, "only whole blocks chain");
        Self {
            state,
            total_len: absorbed,
            ..Self::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The unrolled kernel equals the FIPS-literal one on any chaining
        /// state, not only on the states reachable from `H0`.
        #[test]
        fn compress_matches_the_fips_reference(
            state in proptest::collection::vec(any::<u32>(), 5),
            block in proptest::collection::vec(any::<u8>(), 64),
        ) {
            let state: [u32; 5] = state.try_into().expect("5 words");
            let block: [u8; 64] = block.try_into().expect("64 bytes");
            let mut hasher = Sha1 { state, ..Sha1::new() };
            hasher.compress(&block);
            let mut expected = state;
            compress_reference(&mut expected, &block);
            prop_assert_eq!(hasher.state, expected);
        }
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
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..777u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 200, 776, 777] {
            let mut hasher = Sha1::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finalize(), Sha1::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn aligned_fast_path_is_stream_identical() {
        // Regression for the direct-compress fast path (see the SHA-256
        // twin test): aligned full blocks must hash identically whether
        // they stream through the buffer or compress straight from input.
        let data: Vec<u8> = (0..512u32).map(|i| (i * 7 % 251) as u8).collect();
        let oneshot = Sha1::digest(&data);
        let mut aligned = Sha1::new();
        for chunk in data.chunks(64) {
            aligned.update(chunk);
        }
        assert_eq!(aligned.finalize(), oneshot);
        let mut mixed = Sha1::new();
        mixed.update(&data[..10]);
        mixed.update(&data[10..202]);
        mixed.update(&data[202..512]);
        assert_eq!(mixed.finalize(), oneshot);
    }

    #[test]
    fn output_size_is_twenty_bytes() {
        assert_eq!(Sha1::digest(b"x").len(), 20);
        assert_eq!(<Sha1 as Digest>::OUTPUT_SIZE, 20);
    }
}
