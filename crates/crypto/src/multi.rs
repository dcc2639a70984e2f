//! Lane-interleaved multi-buffer hashing: N independent messages hashed in
//! lockstep.
//!
//! ERASMUS provers spend almost all of their attestation time computing
//! `H(mem_t)` over the application memory, and `H` is always SHA-256. One
//! SHA-256 compression is a long dependency chain of 32-bit operations, so a
//! single message cannot use the host's vector units — but a *fleet* harness
//! has many equal-sized memory images to hash at the same simulated instant.
//! [`Sha256xN`], the one lane core, exploits that: the hash state is stored
//! **lane-major** (`[[u32; N]; 8]` — word `w` of lane `l` lives at
//! `state[w][l]`), and every round operates on all `N` lanes elementwise.
//! LLVM autovectorizes those fixed-size elementwise loops to SSE/AVX/NEON —
//! no `unsafe`, no intrinsics, no target feature detection.
//!
//! ```text
//!            lane 0   lane 1   lane 2   lane 3
//!  state[a] [ a_0    | a_1    | a_2    | a_3    ]  ← one SIMD register
//!  state[b] [ b_0    | b_1    | b_2    | b_3    ]
//!    ⋮                    ⋮
//!  w[i]     [ w_i^0  | w_i^1  | w_i^2  | w_i^3  ]  message schedule,
//!                                                   also lane-major
//! ```
//!
//! [`Sha256xN`] mirrors [`Digest`](crate::Digest) for equal-length inputs;
//! [`MultiKeyedMac`] rides the *existing* precomputed HMAC-SHA256 key
//! schedules — the ipad/opad midstates of [`HmacKey`] — transposed across
//! the lanes, so lane-batched measurements reuse exactly the per-device
//! states the scalar hot path uses. HMAC-SHA1 and keyed BLAKE2s tag in
//! scalar. The same lane HMAC can also key each lane from its own 32-byte
//! key, which is how [`HmacDrbg::fill_lanes`](crate::HmacDrbg::fill_lanes)
//! derives 8 device keys at once. Every lane produces a digest/tag
//! bit-identical to the scalar [`Sha256`]/[`KeyedMac`]/`HmacDrbg` paths
//! (pinned by the `multi_lane_equivalence` suite).

use crate::hmac::HmacKey;
use crate::mac::{KeyedMac, MacAlgorithm, MacTag};
use crate::sha256::{Sha256, H0 as SHA256_H0, K};

// ---------------------------------------------------------------------------
// Lane-wide u32 helpers. Each takes/returns `[u32; N]` and applies the
// operation elementwise; the loops are fixed-trip-count and branch-free, the
// exact shape LLVM's loop vectorizer turns into packed-integer SIMD.
// ---------------------------------------------------------------------------

#[inline(always)]
fn splat<const N: usize>(x: u32) -> [u32; N] {
    [x; N]
}

#[inline(always)]
fn add<const N: usize>(mut a: [u32; N], b: [u32; N]) -> [u32; N] {
    for (a, b) in a.iter_mut().zip(b) {
        *a = a.wrapping_add(b);
    }
    a
}

#[inline(always)]
fn xor<const N: usize>(mut a: [u32; N], b: [u32; N]) -> [u32; N] {
    for (a, b) in a.iter_mut().zip(b) {
        *a ^= b;
    }
    a
}

#[inline(always)]
fn and<const N: usize>(mut a: [u32; N], b: [u32; N]) -> [u32; N] {
    for (a, b) in a.iter_mut().zip(b) {
        *a &= b;
    }
    a
}

#[inline(always)]
fn not<const N: usize>(mut a: [u32; N]) -> [u32; N] {
    for a in a.iter_mut() {
        *a = !*a;
    }
    a
}

#[inline(always)]
fn shr<const N: usize>(mut a: [u32; N], r: u32) -> [u32; N] {
    for a in a.iter_mut() {
        *a >>= r;
    }
    a
}

#[inline(always)]
fn rotr<const N: usize>(mut a: [u32; N], r: u32) -> [u32; N] {
    for a in a.iter_mut() {
        *a = a.rotate_right(r);
    }
    a
}

#[inline(always)]
fn xor3<const N: usize>(a: [u32; N], b: [u32; N], c: [u32; N]) -> [u32; N] {
    xor(xor(a, b), c)
}

// ---------------------------------------------------------------------------
// SHA-256, N lanes.
// ---------------------------------------------------------------------------

/// `N`-lane SHA-256: `N` independent messages compressed in lockstep.
///
/// Use the [`Sha256x4`] / [`Sha256x8`] aliases; 4 lanes fill a 128-bit
/// vector unit, 8 lanes a 256-bit one. The shape mirrors
/// [`Digest`](crate::Digest), with every input and output widened to `N`
/// lanes. All `update` calls must pass lanes of equal length (the lanes
/// share one block counter), which is exactly the fleet-measurement case:
/// every device hashes the same-sized memory image.
///
/// # Example
///
/// ```
/// use erasmus_crypto::{Digest, Sha256, Sha256x4};
///
/// let inputs = [&b"a"[..], b"b", b"c", b"d"];
/// let digests = Sha256x4::digest(inputs);
/// for (lane, input) in inputs.iter().enumerate() {
///     assert_eq!(digests[lane], Sha256::digest(input));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256xN<const N: usize> {
    /// Lane-major state: `state[word][lane]`.
    state: [[u32; N]; 8],
    /// One partial-block buffer per lane; all lanes share `buffer_len`.
    buffer: [[u8; 64]; N],
    buffer_len: usize,
    /// Per-lane message length in bytes (identical across lanes).
    total_len: u64,
}

/// 4-lane SHA-256 (fills one 128-bit vector register per state word).
pub type Sha256x4 = Sha256xN<4>;
/// 8-lane SHA-256 (fills one 256-bit vector register per state word).
pub type Sha256x8 = Sha256xN<8>;

/// The lane-interleaved SHA-256 compression: one message schedule and one
/// round function evaluation, `N` lanes wide. Free function over the state
/// so callers can pass buffer-derived block references without aliasing
/// the mutable state borrow.
fn sha256_compress<const N: usize>(state: &mut [[u32; N]; 8], blocks: [&[u8; 64]; N]) {
    let mut w = [[0u32; N]; 64];
    for (i, w_i) in w.iter_mut().take(16).enumerate() {
        for (slot, block) in w_i.iter_mut().zip(blocks) {
            *slot = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
    }
    for i in 16..64 {
        let s0 = xor3(rotr(w[i - 15], 7), rotr(w[i - 15], 18), shr(w[i - 15], 3));
        let s1 = xor3(rotr(w[i - 2], 17), rotr(w[i - 2], 19), shr(w[i - 2], 10));
        w[i] = add(add(w[i - 16], s0), add(w[i - 7], s1));
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let s1 = xor3(rotr(e, 6), rotr(e, 11), rotr(e, 25));
        let ch = xor(and(e, f), and(not(e), g));
        let temp1 = add(add(h, s1), add(ch, add(splat(K[i]), w[i])));
        let s0 = xor3(rotr(a, 2), rotr(a, 13), rotr(a, 22));
        let maj = xor3(and(a, b), and(a, c), and(b, c));
        let temp2 = add(s0, maj);

        h = g;
        g = f;
        f = e;
        e = add(d, temp1);
        d = c;
        c = b;
        b = a;
        a = add(temp1, temp2);
    }

    state[0] = add(state[0], a);
    state[1] = add(state[1], b);
    state[2] = add(state[2], c);
    state[3] = add(state[3], d);
    state[4] = add(state[4], e);
    state[5] = add(state[5], f);
    state[6] = add(state[6], g);
    state[7] = add(state[7], h);
}

impl<const N: usize> Sha256xN<N> {
    /// Creates a fresh `N`-lane state (every lane at the SHA-256 IV).
    pub fn new() -> Self {
        assert!(N >= 1, "at least one lane is required");
        Self {
            state: std::array::from_fn(|word| splat(SHA256_H0[word])),
            buffer: [[0u8; 64]; N],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot helper: hash `N` equal-length messages in lockstep.
    ///
    /// # Panics
    ///
    /// Panics if the lanes are not all the same length.
    pub fn digest(lanes: [&[u8]; N]) -> [[u8; 32]; N] {
        let mut hasher = Self::new();
        hasher.update(lanes);
        hasher.finalize()
    }

    /// Absorbs one equal-length slice per lane.
    ///
    /// # Panics
    ///
    /// Panics if the lanes are not all the same length.
    pub fn update(&mut self, mut lanes: [&[u8]; N]) {
        let len = lanes[0].len();
        assert!(
            lanes.iter().all(|lane| lane.len() == len),
            "multi-lane update requires equal-length lanes"
        );
        self.total_len = self.total_len.wrapping_add(len as u64);

        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(len);
            for (buffer, lane) in self.buffer.iter_mut().zip(lanes.iter_mut()) {
                buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&lane[..take]);
                *lane = &lane[take..];
            }
            self.buffer_len += take;
            if self.buffer_len == 64 {
                let blocks = self.buffer;
                sha256_compress(&mut self.state, std::array::from_fn(|lane| &blocks[lane]));
                self.buffer_len = 0;
            }
        }

        let full_blocks = lanes[0].len() / 64;
        for block in 0..full_blocks {
            let offset = block * 64;
            // Full blocks compress straight from the input slices — the
            // same zero-copy fast path the scalar cores use.
            let blocks: [&[u8; 64]; N] = std::array::from_fn(|lane| {
                lanes[lane][offset..offset + 64]
                    .try_into()
                    .expect("64-byte chunk")
            });
            sha256_compress(&mut self.state, blocks);
        }

        let rem_offset = full_blocks * 64;
        let rem = lanes[0].len() - rem_offset;
        if rem > 0 {
            for (buffer, lane) in self.buffer.iter_mut().zip(lanes) {
                buffer[..rem].copy_from_slice(&lane[rem_offset..]);
            }
            self.buffer_len = rem;
        }
    }

    /// Consumes the hasher and returns each lane's digest.
    pub fn finalize(mut self) -> [[u8; 32]; N] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Identical padding for every lane (the lengths are equal), built on
        // the stack exactly like the scalar finalizer.
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
        self.update([&padding[..pad_len]; N]);
        debug_assert_eq!(self.buffer_len, 0);
        digest_bytes(&self.state)
    }
}

/// Each lane's big-endian digest bytes from a lane-major state.
fn digest_bytes<const N: usize>(state: &[[u32; N]; 8]) -> [[u8; 32]; N] {
    std::array::from_fn(|lane| {
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word[lane].to_be_bytes());
        }
        out
    })
}

impl<const N: usize> Default for Sha256xN<N> {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// HMAC-SHA256, N lanes.
// ---------------------------------------------------------------------------

/// `N` HMAC-SHA256 key schedules in lane form: each lane's chaining state
/// after its ipad block and after its opad block, transposed lane-major.
///
/// Both states sit exactly one 64-byte block into their hash: the inner
/// hash streams through a [`Sha256xN`] started at the inner state, and the
/// outer hash over the 32-byte inner digest is one block.
#[derive(Clone)]
pub(crate) struct HmacSha256xN<const N: usize> {
    inner: [[u32; N]; 8],
    outer: [[u32; N]; 8],
}

impl<const N: usize> HmacSha256xN<N> {
    /// Transposes `N` precomputed scalar schedules.
    ///
    /// # Panics
    ///
    /// Panics if a midstate has absorbed anything but its one key block.
    pub(crate) fn from_schedules(keys: [&HmacKey<Sha256>; N]) -> Self {
        let transpose = |states: [&Sha256; N]| -> [[u32; N]; 8] {
            let words = states.map(|state| {
                let (words, total_len, buffered) = state.lane_parts();
                assert!(
                    total_len == 64 && buffered == 0,
                    "an HMAC midstate holds exactly its key block"
                );
                words
            });
            std::array::from_fn(|word| std::array::from_fn(|lane| words[lane][word]))
        };
        let midstates = keys.map(HmacKey::lane_midstates);
        Self {
            inner: transpose(midstates.map(|(inner, _)| inner)),
            outer: transpose(midstates.map(|(_, outer)| outer)),
        }
    }

    /// Keys each lane with its own 32-byte key, compressing the lanes' ipad
    /// and then opad blocks in lockstep, bit-identical to [`HmacKey::new`].
    pub(crate) fn new(keys: &[[u8; 32]; N]) -> Self {
        let keyed = |pad: u8| {
            let blocks = keys.map(|key| {
                let mut block = [pad; 64];
                for (byte, key) in block.iter_mut().zip(key) {
                    *byte ^= key;
                }
                block
            });
            let mut state = SHA256_H0.map(splat);
            sha256_compress(&mut state, blocks.each_ref());
            state
        };
        Self {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// Starts one MAC per lane; absorb the messages with
    /// [`Sha256xN::update`], then pass the state to
    /// [`HmacSha256xN::finish`].
    pub(crate) fn begin(&self) -> Sha256xN<N> {
        Sha256xN {
            state: self.inner,
            buffer: [[0u8; 64]; N],
            buffer_len: 0,
            total_len: 64,
        }
    }

    /// Finishes the MACs [`HmacSha256xN::begin`] started. Each lane's
    /// 32-byte inner digest pads into one block behind the opad block,
    /// `digest ‖ 0x80 ‖ 0… ‖ BE64(96·8)`, so the outer hash is one
    /// compression.
    pub(crate) fn finish(&self, inner: Sha256xN<N>) -> [[u8; 32]; N] {
        let blocks = inner.finalize().map(|digest| {
            let mut block = [0u8; 64];
            block[..32].copy_from_slice(&digest);
            block[32] = 0x80;
            block[56..].copy_from_slice(&(96u64 * 8).to_be_bytes());
            block
        });
        let mut state = self.outer;
        sha256_compress(&mut state, blocks.each_ref());
        digest_bytes(&state)
    }

    /// One MAC per lane over `N` equal-length messages.
    ///
    /// # Panics
    ///
    /// Panics if the messages are not all the same length.
    pub(crate) fn mac(&self, messages: [&[u8]; N]) -> [[u8; 32]; N] {
        let mut inner = self.begin();
        inner.update(messages);
        self.finish(inner)
    }
}

// ---------------------------------------------------------------------------
// Multi-lane keyed MAC.
// ---------------------------------------------------------------------------

/// `N` precomputed MAC key schedules transposed into lane form: one tag per
/// lane from one lockstep pass over `N` equal-length messages.
///
/// Built from existing [`KeyedMac`] schedules, so the once-per-device key
/// derivation is shared with the scalar hot path:
///
/// * HMAC-SHA256 — the ipad and opad chaining states of each lane are
///   transposed into two lane-major states; a MAC is one lockstep inner
///   pass through [`Sha256xN`] and one lockstep outer compression.
/// * HMAC-SHA1 and keyed BLAKE2s — [`Sha256xN`] is the only lane core, so
///   the lanes fall back to the scalar schedules (still one `MultiKeyedMac`
///   call site for every algorithm). A fleet run under either MAC therefore
///   tags every measurement in scalar, while its memory images still hash
///   through [`Sha256xN`].
///
/// # Example
///
/// ```
/// use erasmus_crypto::{MacAlgorithm, MultiKeyedMac};
///
/// let keys: Vec<_> = (0u8..4)
///     .map(|i| MacAlgorithm::HmacSha256.with_key(&[i; 32]))
///     .collect();
/// let multi = MultiKeyedMac::<4>::new(std::array::from_fn(|i| &keys[i]));
/// let tags = multi.mac([&b"same-length-msg."[..]; 4]);
/// for (lane, keyed) in keys.iter().enumerate() {
///     assert_eq!(tags[lane], keyed.mac(b"same-length-msg."));
/// }
/// ```
#[derive(Clone)]
pub struct MultiKeyedMac<const N: usize> {
    state: MultiKeyedState<N>,
}

#[derive(Clone)]
enum MultiKeyedState<const N: usize> {
    HmacSha256(HmacSha256xN<N>),
    /// Scalar fallback lanes (HMAC-SHA1 and keyed BLAKE2s have no lane core).
    Scalar(Box<[KeyedMac; N]>),
}

impl<const N: usize> MultiKeyedMac<N> {
    /// Transposes `N` per-device key schedules into lane form.
    ///
    /// # Panics
    ///
    /// Panics if the schedules do not all use the same [`MacAlgorithm`].
    pub fn new(lanes: [&KeyedMac; N]) -> Self {
        assert!(N >= 1, "at least one lane is required");
        let algorithm = lanes[0].algorithm();
        assert!(
            lanes.iter().all(|lane| lane.algorithm() == algorithm),
            "all lanes must use the same MAC algorithm"
        );
        let state = match algorithm {
            MacAlgorithm::HmacSha256 => MultiKeyedState::HmacSha256(HmacSha256xN::from_schedules(
                lanes.map(|lane| match lane {
                    KeyedMac::HmacSha256(key) => key,
                    _ => unreachable!("algorithm checked above"),
                }),
            )),
            MacAlgorithm::HmacSha1 | MacAlgorithm::KeyedBlake2s => {
                MultiKeyedState::Scalar(Box::new(std::array::from_fn(|lane| lanes[lane].clone())))
            }
        };
        Self { state }
    }

    /// The algorithm every lane was keyed for.
    pub fn algorithm(&self) -> MacAlgorithm {
        match &self.state {
            MultiKeyedState::HmacSha256(_) => MacAlgorithm::HmacSha256,
            MultiKeyedState::Scalar(lanes) => lanes[0].algorithm(),
        }
    }

    /// Tag length in bytes (identical for every lane).
    pub fn tag_len(&self) -> usize {
        self.algorithm().tag_len()
    }

    /// Computes one tag per lane over `N` equal-length messages.
    ///
    /// Each lane's tag is bit-identical to `KeyedMac::mac` under the same
    /// schedule.
    ///
    /// # Panics
    ///
    /// Panics if the messages are not all the same length (the lane-
    /// interleaved core shares one block counter). The scalar-fallback
    /// algorithms accept ragged messages, but callers should not rely on it.
    pub fn mac(&self, messages: [&[u8]; N]) -> [MacTag; N] {
        match &self.state {
            MultiKeyedState::HmacSha256(lanes) => lanes.mac(messages).map(MacTag::from),
            MultiKeyedState::Scalar(lanes) => {
                std::array::from_fn(|lane| lanes[lane].mac(messages[lane]))
            }
        }
    }
}

impl<const N: usize> std::fmt::Debug for MultiKeyedMac<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Lane states are key-derived material; never print them.
        write!(f, "MultiKeyedMac({}x{N}, ..redacted..)", self.algorithm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn sha256_lanes_match_fips_vectors() {
        // Distinct KAT inputs of equal length ("abc" x reorderings).
        let digests = Sha256x4::digest([&b"abc"[..], b"bca", b"cab", b"abc"]);
        assert_eq!(
            hex(&digests[0]),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(digests[0], digests[3]);
        assert_ne!(digests[0], digests[1]);
        for (lane, input) in [&b"abc"[..], b"bca", b"cab", b"abc"].iter().enumerate() {
            assert_eq!(digests[lane], Sha256::digest(input), "lane {lane}");
        }
    }

    #[test]
    fn sha256_lanes_match_scalar_across_lengths() {
        for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 1000] {
            let messages: Vec<Vec<u8>> = (0..8u8)
                .map(|lane| (0..len).map(|i| (i as u8).wrapping_mul(lane + 1)).collect())
                .collect();
            let lanes: [&[u8]; 8] = std::array::from_fn(|l| &messages[l][..]);
            let digests = Sha256x8::digest(lanes);
            for lane in 0..8 {
                assert_eq!(
                    digests[lane],
                    Sha256::digest(&messages[lane]),
                    "len {len} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let messages: Vec<Vec<u8>> = (0..4u8).map(|lane| vec![lane; 200]).collect();
        for split in [0usize, 1, 63, 64, 65, 199, 200] {
            let mut hasher = Sha256x4::new();
            hasher.update(std::array::from_fn(|l| &messages[l][..split]));
            hasher.update(std::array::from_fn(|l| &messages[l][split..]));
            let digests = hasher.finalize();
            for (lane, message) in messages.iter().enumerate() {
                assert_eq!(digests[lane], Sha256::digest(message), "split {split}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn ragged_lanes_panic() {
        let mut hasher = Sha256x4::new();
        hasher.update([&b"a"[..], b"ab", b"a", b"a"]);
    }

    #[test]
    fn multi_keyed_mac_matches_scalar_for_all_algorithms() {
        for alg in MacAlgorithm::ALL {
            let keys: Vec<KeyedMac> = (0u8..4).map(|i| alg.with_key(&[i ^ 0x5a; 32])).collect();
            let multi = MultiKeyedMac::<4>::new(std::array::from_fn(|i| &keys[i]));
            assert_eq!(multi.algorithm(), alg);
            assert_eq!(multi.tag_len(), alg.tag_len());
            let messages: Vec<Vec<u8>> = (0..4u8).map(|lane| vec![lane; 40]).collect();
            let tags = multi.mac(std::array::from_fn(|l| &messages[l][..]));
            for (lane, keyed) in keys.iter().enumerate() {
                assert_eq!(tags[lane], keyed.mac(&messages[lane]), "{alg} lane {lane}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "same MAC algorithm")]
    fn mixed_algorithms_panic() {
        let a = MacAlgorithm::HmacSha256.with_key(&[1; 32]);
        let b = MacAlgorithm::KeyedBlake2s.with_key(&[1; 32]);
        let _ = MultiKeyedMac::<2>::new([&a, &b]);
    }

    #[test]
    fn multi_keyed_mac_debug_is_redacted() {
        let keyed = MacAlgorithm::HmacSha256.with_key(&[0xffu8; 32]);
        let multi = MultiKeyedMac::<4>::new([&keyed; 4]);
        let text = format!("{multi:?}");
        assert!(text.contains("redacted"), "{text}");
        assert!(!text.contains("ff"), "{text}");
    }

    #[test]
    fn single_lane_is_valid() {
        let digests = Sha256xN::<1>::digest([&b"hello"[..]]);
        assert_eq!(digests[0], Sha256::digest(b"hello"));
        let keyed = MacAlgorithm::KeyedBlake2s.with_key(&[7; 32]);
        let multi = MultiKeyedMac::<1>::new([&keyed]);
        assert_eq!(multi.mac([b"m"])[0], keyed.mac(b"m"));
    }
}
