//! Message authentication codes used for ERASMUS measurements.
//!
//! The paper evaluates three MAC constructions: HMAC-SHA1 (size comparison
//! only), HMAC-SHA256 and keyed BLAKE2s. [`MacAlgorithm`] lets every prover,
//! verifier and benchmark in the workspace select among them with a single
//! value, mirroring the columns of Table 1 and the curves of Figures 6/8.
//!
//! [`KeyedMac`] is the precomputed form: the HMAC ipad/opad blocks are
//! absorbed exactly once per device, and an HMAC key is then the two
//! chaining states they leave; keyed BLAKE2s holds its key of at most 32
//! bytes. This matches how the paper's SMART+/HYDRA-style implementations
//! hold `K`, and it is what the prover/verifier hot paths use. Every
//! `Prover` and every `Verifier` holds one, so its size is a per-device
//! cost: 72 bytes at most on 64-bit targets, pinned by a test.

use std::fmt;
use std::str::FromStr;

use crate::blake2s::{Blake2s, Blake2sKey};
use crate::ct::constant_time_eq;
use crate::hmac::{HmacKey, HmacSha1, HmacSha256};
use crate::sha1::Sha1;
use crate::sha256::Sha256;

/// Largest tag any supported algorithm produces, in bytes.
pub const MAX_TAG_LEN: usize = 32;

/// A computed MAC tag, stored inline (no heap allocation).
///
/// Wrapping the raw bytes in a newtype keeps tag handling explicit in
/// protocol code and lets the verifier insist on constant-time comparison.
/// The unused suffix of the inline array is always zero, so the derived
/// equality and hash are well-defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacTag {
    bytes: [u8; MAX_TAG_LEN],
    len: u8,
}

impl MacTag {
    /// Wraps raw tag bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than [`MAX_TAG_LEN`]; no supported
    /// algorithm produces such a tag.
    pub fn new(bytes: impl AsRef<[u8]>) -> Self {
        let bytes = bytes.as_ref();
        assert!(
            bytes.len() <= MAX_TAG_LEN,
            "tag of {} bytes exceeds the {MAX_TAG_LEN}-byte maximum",
            bytes.len()
        );
        let mut inline = [0u8; MAX_TAG_LEN];
        inline[..bytes.len()].copy_from_slice(bytes);
        Self {
            bytes: inline,
            len: bytes.len() as u8,
        }
    }

    /// Tag length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the tag is empty (only possible for corrupted storage).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrows the raw tag bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Copies the tag into a freshly allocated vector (convenience for
    /// serialization code; the tag itself lives on the stack).
    pub fn into_bytes(self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    /// Constant-time equality with another candidate tag.
    pub fn ct_eq(&self, other: &MacTag) -> bool {
        constant_time_eq(self.as_bytes(), other.as_bytes())
    }
}

impl AsRef<[u8]> for MacTag {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl From<[u8; 32]> for MacTag {
    fn from(bytes: [u8; 32]) -> Self {
        Self { bytes, len: 32 }
    }
}

impl From<[u8; 20]> for MacTag {
    fn from(bytes: [u8; 20]) -> Self {
        Self::new(bytes)
    }
}

impl From<Vec<u8>> for MacTag {
    fn from(bytes: Vec<u8>) -> Self {
        Self::new(bytes)
    }
}

impl From<&[u8]> for MacTag {
    fn from(bytes: &[u8]) -> Self {
        Self::new(bytes)
    }
}

impl fmt::Display for MacTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for byte in self.as_bytes() {
            write!(f, "{byte:02x}")?;
        }
        Ok(())
    }
}

/// The three MAC constructions evaluated by the paper.
///
/// # Example
///
/// ```
/// use erasmus_crypto::MacAlgorithm;
///
/// let key = [7u8; 32];
/// for alg in MacAlgorithm::ALL {
///     let tag = alg.mac(&key, b"measurement");
///     assert!(alg.verify(&key, b"measurement", &tag));
///     assert!(!alg.verify(&key, b"tampered", &tag));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MacAlgorithm {
    /// HMAC-SHA1 — sized in the paper's Table 1, and the MAC of the fleet
    /// benchmark's `faults` workload.
    HmacSha1,
    /// HMAC-SHA256 — the paper's reference MAC.
    HmacSha256,
    /// Keyed BLAKE2s.
    KeyedBlake2s,
}

impl MacAlgorithm {
    /// All algorithms, in the order used by Table 1 of the paper.
    pub const ALL: [MacAlgorithm; 3] = [
        MacAlgorithm::HmacSha1,
        MacAlgorithm::HmacSha256,
        MacAlgorithm::KeyedBlake2s,
    ];

    /// Precomputes the keyed state for this algorithm — the once-per-device
    /// key-schedule derivation. Use the returned [`KeyedMac`] on hot paths.
    pub fn with_key(self, key: &[u8]) -> KeyedMac {
        match self {
            MacAlgorithm::HmacSha1 => KeyedMac::HmacSha1(HmacKey::new(key)),
            MacAlgorithm::HmacSha256 => KeyedMac::HmacSha256(HmacKey::new(key)),
            MacAlgorithm::KeyedBlake2s => KeyedMac::KeyedBlake2s(Blake2sKey::new(key)),
        }
    }

    /// Computes a tag over `message` under `key`, deriving the key schedule
    /// from scratch (the one-shot path; prefer [`MacAlgorithm::with_key`]
    /// when the same key authenticates more than one message).
    pub fn mac(self, key: &[u8], message: &[u8]) -> MacTag {
        match self {
            MacAlgorithm::HmacSha1 => MacTag::from(HmacSha1::mac(key, message)),
            MacAlgorithm::HmacSha256 => MacTag::from(HmacSha256::mac(key, message)),
            MacAlgorithm::KeyedBlake2s => MacTag::from(Blake2s::keyed_mac(key, message)),
        }
    }

    /// Verifies `tag` in constant time.
    pub fn verify(self, key: &[u8], message: &[u8], tag: &MacTag) -> bool {
        self.mac(key, message).ct_eq(tag)
    }

    /// Tag length in bytes.
    pub fn tag_len(self) -> usize {
        match self {
            MacAlgorithm::HmacSha1 => 20,
            MacAlgorithm::HmacSha256 => 32,
            MacAlgorithm::KeyedBlake2s => 32,
        }
    }

    /// Human-readable name matching the paper's tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            MacAlgorithm::HmacSha1 => "HMAC-SHA1",
            MacAlgorithm::HmacSha256 => "HMAC-SHA256",
            MacAlgorithm::KeyedBlake2s => "Keyed BLAKE2S",
        }
    }
}

impl fmt::Display for MacAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// A MAC with its key schedule already derived.
///
/// For HMAC this holds the two chaining states left after the ipad and opad
/// blocks, and a tag hashes straight from them. For keyed BLAKE2s it holds
/// the key itself, inline; BLAKE2s holds its key block back until it knows
/// whether that block is the last, so a hasher keyed ahead of time would
/// save no compression. Producing a tag allocates nothing. Both are key
/// material, so `Debug` prints only the algorithm.
///
/// # Example
///
/// ```
/// use erasmus_crypto::MacAlgorithm;
///
/// let key = [7u8; 32];
/// let keyed = MacAlgorithm::HmacSha256.with_key(&key);
/// let tag = keyed.mac(b"measurement");
/// assert_eq!(tag, MacAlgorithm::HmacSha256.mac(&key, b"measurement"));
/// assert!(keyed.verify(b"measurement", &tag));
/// ```
#[derive(Clone)]
pub enum KeyedMac {
    /// HMAC-SHA1's two chaining states.
    HmacSha1(HmacKey<Sha1>),
    /// HMAC-SHA256's two chaining states.
    HmacSha256(HmacKey<Sha256>),
    /// Keyed BLAKE2s's key, at most 32 bytes.
    KeyedBlake2s(Blake2sKey),
}

impl KeyedMac {
    /// Computes the tag of `message` from the precomputed state.
    pub fn mac(&self, message: &[u8]) -> MacTag {
        match self {
            KeyedMac::HmacSha1(key) => MacTag::from(key.mac(message)),
            KeyedMac::HmacSha256(key) => MacTag::from(key.mac(message)),
            KeyedMac::KeyedBlake2s(key) => MacTag::from(key.mac(message)),
        }
    }

    /// Verifies `tag` against `message` in constant time.
    pub fn verify(&self, message: &[u8], tag: &MacTag) -> bool {
        self.mac(message).ct_eq(tag)
    }

    /// The algorithm this keyed state was derived for.
    pub fn algorithm(&self) -> MacAlgorithm {
        match self {
            KeyedMac::HmacSha1(_) => MacAlgorithm::HmacSha1,
            KeyedMac::HmacSha256(_) => MacAlgorithm::HmacSha256,
            KeyedMac::KeyedBlake2s(_) => MacAlgorithm::KeyedBlake2s,
        }
    }
}

impl fmt::Debug for KeyedMac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The chaining states and the key are key material; never print them.
        write!(f, "KeyedMac({}, ..redacted..)", self.algorithm())
    }
}

/// Error returned when parsing a [`MacAlgorithm`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMacAlgorithmError {
    input: String,
}

impl fmt::Display for ParseMacAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown MAC algorithm `{}`; expected one of hmac-sha1, hmac-sha256, blake2s",
            self.input
        )
    }
}

impl std::error::Error for ParseMacAlgorithmError {}

impl FromStr for MacAlgorithm {
    type Err = ParseMacAlgorithmError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "hmac-sha1" | "hmacsha1" | "sha1" => Ok(MacAlgorithm::HmacSha1),
            "hmac-sha256" | "hmacsha256" | "sha256" => Ok(MacAlgorithm::HmacSha256),
            "blake2s" | "keyed-blake2s" | "keyedblake2s" => Ok(MacAlgorithm::KeyedBlake2s),
            _ => Err(ParseMacAlgorithmError {
                input: s.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip_all_algorithms() {
        let key = [0xa5u8; 32];
        for alg in MacAlgorithm::ALL {
            let tag = alg.mac(&key, b"hello");
            assert_eq!(tag.len(), alg.tag_len());
            assert!(alg.verify(&key, b"hello", &tag), "{alg}");
            assert!(!alg.verify(&key, b"hellO", &tag), "{alg}");
        }
    }

    #[test]
    fn keyed_state_matches_oneshot_for_all_algorithms() {
        let key = [0x5au8; 32];
        for alg in MacAlgorithm::ALL {
            let keyed = alg.with_key(&key);
            assert_eq!(keyed.algorithm(), alg);
            for message in [&b""[..], b"m", &[0xcdu8; 129]] {
                let precomputed = keyed.mac(message);
                assert_eq!(precomputed, alg.mac(&key, message), "{alg}");
                assert!(keyed.verify(message, &precomputed), "{alg}");
                assert!(!keyed.verify(b"other", &precomputed), "{alg}");
            }
        }
    }

    #[test]
    fn verify_accepts_the_tag_and_rejects_any_other() {
        for alg in MacAlgorithm::ALL {
            let keyed = alg.with_key(b"k");
            let tag = keyed.mac(b"m");
            assert!(keyed.verify(b"m", &tag), "{alg}");
            assert!(!keyed.verify(b"m2", &tag), "{alg}");
            assert!(!alg.with_key(b"k2").verify(b"m", &tag), "{alg}");
            let mut flipped = tag.into_bytes();
            flipped[0] ^= 1;
            assert!(!keyed.verify(b"m", &MacTag::new(&flipped)), "{alg}");
            let truncated = MacTag::new(&tag.as_bytes()[..tag.len() - 1]);
            assert!(!keyed.verify(b"m", &truncated), "{alg}");
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_keyed_mac_fits_in_72_bytes() {
        use std::mem::size_of;
        let keyed = size_of::<KeyedMac>();
        assert!(
            keyed <= 72,
            "a KeyedMac grew to {keyed} bytes (bound 72): HmacKey<Sha256> {} B, \
             HmacKey<Sha1> {} B, Blake2sKey {} B; an HMAC key holds two chaining \
             states, and a BLAKE2s key its bytes",
            size_of::<HmacKey<Sha256>>(),
            size_of::<HmacKey<Sha1>>(),
            size_of::<Blake2sKey>(),
        );
    }

    #[test]
    fn keyed_mac_debug_is_redacted() {
        let keyed = MacAlgorithm::HmacSha256.with_key(&[0xffu8; 32]);
        let text = format!("{keyed:?}");
        assert!(text.contains("redacted"), "{text}");
        assert!(!text.contains("ff"), "{text}");
    }

    #[test]
    fn algorithms_produce_distinct_tags() {
        let key = [1u8; 32];
        let sha256 = MacAlgorithm::HmacSha256.mac(&key, b"m");
        let blake = MacAlgorithm::KeyedBlake2s.mac(&key, b"m");
        assert_ne!(sha256, blake);
    }

    #[test]
    fn parse_from_str() {
        assert_eq!(
            "hmac-sha256".parse::<MacAlgorithm>(),
            Ok(MacAlgorithm::HmacSha256)
        );
        assert_eq!(
            "BLAKE2S".parse::<MacAlgorithm>(),
            Ok(MacAlgorithm::KeyedBlake2s)
        );
        assert_eq!("sha1".parse::<MacAlgorithm>(), Ok(MacAlgorithm::HmacSha1));
        assert!("md5".parse::<MacAlgorithm>().is_err());
        let err = "md5".parse::<MacAlgorithm>().unwrap_err();
        assert!(err.to_string().contains("md5"));
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(MacAlgorithm::HmacSha256.to_string(), "HMAC-SHA256");
        assert_eq!(MacAlgorithm::KeyedBlake2s.to_string(), "Keyed BLAKE2S");
        assert_eq!(MacAlgorithm::HmacSha1.to_string(), "HMAC-SHA1");
    }

    #[test]
    fn mac_tag_display_is_hex() {
        let tag = MacTag::new([0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(tag.to_string(), "deadbeef");
        assert_eq!(tag.len(), 4);
        assert!(!tag.is_empty());
    }

    #[test]
    fn mac_tag_conversions() {
        let bytes = vec![1u8, 2, 3];
        let tag = MacTag::from(bytes.clone());
        assert_eq!(tag.as_bytes(), &bytes[..]);
        assert_eq!(tag.as_ref(), &bytes[..]);
        assert_eq!(tag.into_bytes(), bytes);
        assert!(tag.ct_eq(&MacTag::new(bytes)));
    }

    #[test]
    fn short_tags_of_different_length_are_unequal() {
        // The inline array zero-pads, but the length is part of identity.
        assert_ne!(MacTag::new([0u8; 4]), MacTag::new([0u8; 5]));
        assert_eq!(MacTag::new([]).len(), 0);
        assert!(MacTag::new([]).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_tag_panics() {
        let _ = MacTag::new([0u8; 33]);
    }
}
