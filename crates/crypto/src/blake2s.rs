//! BLAKE2s (RFC 7693) with native keyed mode.
//!
//! The paper evaluates "keyed BLAKE2S" as its third MAC construction
//! (Table 1, Figures 6 and 8). BLAKE2s is the 32-bit-word flavour of BLAKE2,
//! a good match for the MSP430-class devices the SMART+ implementation
//! targets; its keyed mode is a MAC by construction, so no HMAC wrapper is
//! needed.

use crate::digest::Digest;

/// BLAKE2s initialization vector (identical to the SHA-256 IV).
const IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Message word schedule for the 10 rounds.
const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

const BLOCK_BYTES: usize = 64;
const OUT_BYTES: usize = 32;
const MAX_KEY_BYTES: usize = 32;

/// Incremental BLAKE2s hasher with optional key.
///
/// # Example
///
/// ```
/// use erasmus_crypto::{Blake2s, Digest};
///
/// // Unkeyed 32-byte digest.
/// let digest = Blake2s::digest(b"abc");
/// assert_eq!(digest.len(), 32);
///
/// // Keyed MAC mode, as used by the paper's "keyed BLAKE2S" measurements.
/// let mut mac = Blake2s::new_keyed(b"device key");
/// mac.update(b"memory contents");
/// let tag = mac.finalize();
/// assert_eq!(tag.len(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct Blake2s {
    h: [u32; 8],
    /// Low and high words of the byte counter.
    t: [u32; 2],
    buffer: [u8; BLOCK_BYTES],
    buffer_len: usize,
}

impl Blake2s {
    /// Creates an unkeyed BLAKE2s-256 hasher (32-byte output).
    pub fn new() -> Self {
        Self::new_keyed(&[])
    }

    /// Creates a keyed BLAKE2s hasher producing the full 32-byte tag.
    ///
    /// This is the paper's "keyed BLAKE2S" MAC. Keys longer than 32 bytes are
    /// truncated to 32 bytes (the RFC 7693 maximum); the rest of the
    /// workspace always passes 32-byte device keys. An empty key gives the
    /// unkeyed hash.
    pub fn new_keyed(key: &[u8]) -> Self {
        let key = if key.len() > MAX_KEY_BYTES {
            &key[..MAX_KEY_BYTES]
        } else {
            key
        };

        let mut h = IV;
        // Parameter block word 0: digest length 32, key length, fanout=1,
        // depth=1.
        h[0] ^= 0x0101_0000 ^ ((key.len() as u32) << 8) ^ OUT_BYTES as u32;

        let mut state = Self {
            h,
            t: [0, 0],
            buffer: [0u8; BLOCK_BYTES],
            buffer_len: 0,
        };

        if !key.is_empty() {
            // Keyed mode: the key is padded to a full block and absorbed first.
            let mut key_block = [0u8; BLOCK_BYTES];
            key_block[..key.len()].copy_from_slice(key);
            state.buffer = key_block;
            state.buffer_len = BLOCK_BYTES;
        }
        state
    }

    /// One-shot keyed MAC.
    pub fn keyed_mac(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut mac = Self::new_keyed(key);
        mac.update(message);
        mac.finalize()
    }

    fn increment_counter(&mut self, bytes: u32) {
        let (lo, carry) = self.t[0].overflowing_add(bytes);
        self.t[0] = lo;
        if carry {
            self.t[1] = self.t[1].wrapping_add(1);
        }
    }

    fn compress(&mut self, block: &[u8; BLOCK_BYTES], last: bool) {
        let mut m = [0u32; 16];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            m[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }

        let mut v = [0u32; 16];
        v[..8].copy_from_slice(&self.h);
        v[8..].copy_from_slice(&IV);
        v[12] ^= self.t[0];
        v[13] ^= self.t[1];
        if last {
            v[14] = !v[14];
        }

        #[inline(always)]
        fn g(v: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize, x: u32, y: u32) {
            v[a] = v[a].wrapping_add(v[b]).wrapping_add(x);
            v[d] = (v[d] ^ v[a]).rotate_right(16);
            v[c] = v[c].wrapping_add(v[d]);
            v[b] = (v[b] ^ v[c]).rotate_right(12);
            v[a] = v[a].wrapping_add(v[b]).wrapping_add(y);
            v[d] = (v[d] ^ v[a]).rotate_right(8);
            v[c] = v[c].wrapping_add(v[d]);
            v[b] = (v[b] ^ v[c]).rotate_right(7);
        }

        for s in &SIGMA {
            g(&mut v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
            g(&mut v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
            g(&mut v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
            g(&mut v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
            g(&mut v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
            g(&mut v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
            g(&mut v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
            g(&mut v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
        }

        for i in 0..8 {
            self.h[i] ^= v[i] ^ v[i + 8];
        }
    }
}

impl Default for Blake2s {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest for Blake2s {
    const OUTPUT_SIZE: usize = OUT_BYTES;

    type Output = [u8; 32];

    fn new() -> Self {
        Blake2s::new()
    }

    fn update(&mut self, mut data: &[u8]) {
        // BLAKE2 buffers a full block and only compresses it once more data
        // arrives, because the final block must be flagged as "last".
        while !data.is_empty() {
            if self.buffer_len == BLOCK_BYTES {
                self.increment_counter(BLOCK_BYTES as u32);
                let block = self.buffer;
                self.compress(&block, false);
                self.buffer_len = 0;
            }
            let take = (BLOCK_BYTES - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
        }
    }

    fn finalize(mut self) -> [u8; 32] {
        self.increment_counter(self.buffer_len as u32);
        let mut block = [0u8; BLOCK_BYTES];
        block[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        self.compress(&block, true);

        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.h) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

/// A keyed-BLAKE2s key, held inline: at most 32 bytes, as
/// [`Blake2s::new_keyed`] truncates longer keys to the RFC 7693 maximum.
///
/// Each tag starts a keyed hasher from it. A hasher keyed ahead of time
/// would save no work: BLAKE2s holds the key block back until it knows
/// whether that block is the last. The key is key material: its `Debug`
/// output is redacted.
///
/// # Example
///
/// ```
/// use erasmus_crypto::{Blake2s, Blake2sKey};
///
/// let key = Blake2sKey::new(b"device key");
/// assert_eq!(key.mac(b"message"), Blake2s::keyed_mac(b"device key", b"message"));
/// ```
#[derive(Clone)]
pub struct Blake2sKey {
    bytes: [u8; MAX_KEY_BYTES],
    len: u8,
}

impl Blake2sKey {
    /// Holds `key`, truncated to 32 bytes.
    pub fn new(key: &[u8]) -> Self {
        let len = key.len().min(MAX_KEY_BYTES);
        let mut bytes = [0u8; MAX_KEY_BYTES];
        bytes[..len].copy_from_slice(&key[..len]);
        Self {
            bytes,
            len: len as u8,
        }
    }

    /// The keyed-BLAKE2s tag of `message`.
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        Blake2s::keyed_mac(&self.bytes[..usize::from(self.len)], message)
    }
}

impl std::fmt::Debug for Blake2sKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key itself; never print it.
        f.write_str("Blake2sKey(..redacted..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 7693 Appendix B test vector.
    #[test]
    fn rfc7693_abc() {
        assert_eq!(
            hex(&Blake2s::digest(b"abc")),
            "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982"
        );
    }

    // Test vectors from the official BLAKE2 reference test suite
    // (https://github.com/BLAKE2/BLAKE2, blake2s test vectors).
    #[test]
    fn reference_empty_unkeyed() {
        assert_eq!(
            hex(&Blake2s::digest(b"")),
            "69217a3079908094e11121d042354a7c1f55b6482ca1a51e1b250dfd1ed0eef9"
        );
    }

    #[test]
    fn reference_keyed_empty_message() {
        // Key = 00 01 02 ... 1f, empty message.
        let key: Vec<u8> = (0..32u8).collect();
        let mut mac = Blake2s::new_keyed(&key);
        mac.update(b"");
        assert_eq!(
            hex(&mac.finalize()),
            "48a8997da407876b3d79c0d92325ad3b89cbb754d86ab71aee047ad345fd2c49"
        );
    }

    #[test]
    fn reference_keyed_one_byte_message() {
        // Key = 00..1f, message = 00.
        let key: Vec<u8> = (0..32u8).collect();
        let mut mac = Blake2s::new_keyed(&key);
        mac.update(&[0x00]);
        assert_eq!(
            hex(&mac.finalize()),
            "40d15fee7c328830166ac3f918650f807e7e01e177258cdc0a39b11f598066f1"
        );
    }

    #[test]
    fn reference_keyed_two_byte_message() {
        // Key = 00..1f, message = 00 01.
        let key: Vec<u8> = (0..32u8).collect();
        let mut mac = Blake2s::new_keyed(&key);
        mac.update(&[0x00, 0x01]);
        assert_eq!(
            hex(&mac.finalize()),
            "6bb71300644cd3991b26ccd4d274acd1adeab8b1d7914546c1198bbe9fc9d803"
        );
    }

    #[test]
    fn block_boundary_lengths_are_consistent() {
        // Exercise the exact-block and block-plus-one paths: one-shot MACs
        // must match byte-at-a-time absorption at every boundary length.
        let key: Vec<u8> = (0..32u8).collect();
        for len in [63usize, 64, 65, 127, 128, 129] {
            let message: Vec<u8> = (0..len as u32).map(|i| (i % 256) as u8).collect();
            let oneshot = Blake2s::keyed_mac(&key, &message);
            let mut mac = Blake2s::new_keyed(&key);
            for byte in &message {
                mac.update(std::slice::from_ref(byte));
            }
            assert_eq!(mac.finalize(), oneshot, "length {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_keyed() {
        let key: Vec<u8> = (0..32u8).collect();
        let message: Vec<u8> = (0..=254u8).collect();
        let oneshot = Blake2s::keyed_mac(&key, &message);
        for split in [0usize, 1, 32, 63, 64, 65, 128, 254, 255] {
            let mut mac = Blake2s::new_keyed(&key);
            mac.update(&message[..split]);
            mac.update(&message[split..]);
            assert_eq!(mac.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn a_held_key_tags_as_a_freshly_keyed_hasher() {
        // 33 and 64 bytes exceed the maximum, so both hold the first 32.
        let key: Vec<u8> = (0..64u8).collect();
        for key_len in [0usize, 1, 31, 32, 33, 64] {
            let held = Blake2sKey::new(&key[..key_len]);
            for message in [&b""[..], b"m", &[0xabu8; 129]] {
                assert_eq!(
                    held.mac(message),
                    Blake2s::keyed_mac(&key[..key_len], message),
                    "key length {key_len}"
                );
            }
        }
        assert_eq!(
            Blake2sKey::new(&key).mac(b"m"),
            Blake2s::keyed_mac(&key[..32], b"m")
        );
        let text = format!("{:?}", Blake2sKey::new(&[0xffu8; 32]));
        assert_eq!(text, "Blake2sKey(..redacted..)");
    }

    #[test]
    fn different_keys_give_different_tags() {
        let a = Blake2s::keyed_mac(b"key-a", b"same message");
        let b = Blake2s::keyed_mac(b"key-b", b"same message");
        assert_ne!(a, b);
    }

    #[test]
    fn long_message_multi_block() {
        // Exercise the multi-block path with a message spanning many blocks.
        let key: Vec<u8> = (0..32u8).collect();
        let message = vec![0xabu8; 1000];
        let oneshot = Blake2s::keyed_mac(&key, &message);
        let mut mac = Blake2s::new_keyed(&key);
        for chunk in message.chunks(7) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), oneshot);
    }
}
