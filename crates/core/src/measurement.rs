//! Self-measurements: `M_t = < t, H(mem_t), MAC_K(t, H(mem_t)) >`.

use std::fmt;

use erasmus_crypto::{KeyedMac, MacTag};
use erasmus_sim::SimTime;

/// Byte length of the memory digest `H(mem_t)` (always SHA-256).
pub const DIGEST_LEN: usize = 32;

/// The memory digest `H(mem_t)`, on the stack.
pub type MemoryDigest = [u8; DIGEST_LEN];

/// Byte length of the canonical MAC input `(t, H(mem_t))`.
pub const MAC_INPUT_LEN: usize = 8 + DIGEST_LEN;

/// One self-measurement, exactly as defined in Section 3 of the paper.
///
/// A measurement binds a timestamp `t` (read from the RROC) to the digest of
/// the prover's memory at that time, authenticated under the device key `K`.
/// Measurements are stored in *insecure* memory: malware can delete or
/// mangle them, but — lacking `K` — it cannot forge a valid one, so any
/// tampering is detected at the next collection.
///
/// Computing and verifying a measurement is the system's hot path. Both are
/// allocation-free and run one device at a time: the prover's trusted code
/// hashes its memory with SHA-256 ([`erasmus_hw::Mcu::run_trusted`]), then
/// one MAC tags the timestamped digest. Both the tag and its check go
/// through a once-per-device [`KeyedMac`] schedule, so no measurement
/// re-derives the HMAC key schedule.
///
/// # Example
///
/// ```
/// use erasmus_core::Measurement;
/// use erasmus_crypto::{Digest, MacAlgorithm, Sha256};
/// use erasmus_sim::SimTime;
///
/// let keyed = MacAlgorithm::HmacSha256.with_key(&[0x42u8; 32]);
/// let memory = vec![0u8; 1024];
/// let m = Measurement::from_digest_keyed(&keyed, SimTime::from_secs(60), Sha256::digest(&memory));
/// assert!(m.verify_keyed(&keyed));
/// assert!(!m.verify_keyed(&MacAlgorithm::HmacSha256.with_key(&[0u8; 32])));
/// assert_eq!(m.timestamp(), SimTime::from_secs(60));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Measurement {
    timestamp: SimTime,
    digest: MemoryDigest,
    tag: MacTag,
}

impl Measurement {
    /// Tags an already-hashed memory digest `H(mem_t)` taken at
    /// `timestamp` under the device's precomputed key schedule.
    ///
    /// `H(mem_t)` is always SHA-256 (the digest half of the construction is
    /// not varied in the paper's evaluation); the MAC over `(t, H(mem_t))`
    /// is `keyed`'s algorithm. The prover's trusted code hashes memory
    /// inside the security architecture and then MACs the timestamped
    /// digest; taking the digest here keeps that structure visible and lets
    /// the cost model charge the two steps separately.
    pub fn from_digest_keyed(keyed: &KeyedMac, timestamp: SimTime, digest: MemoryDigest) -> Self {
        let tag = keyed.mac(&Self::mac_input(timestamp, &digest));
        Self {
            timestamp,
            digest,
            tag,
        }
    }

    /// Reassembles a measurement from its stored parts (e.g. when reading
    /// the rolling buffer back from a wire format). No validation happens
    /// here; call [`Measurement::verify_keyed`].
    pub fn from_parts(timestamp: SimTime, digest: MemoryDigest, tag: MacTag) -> Self {
        Self {
            timestamp,
            digest,
            tag,
        }
    }

    /// The canonical MAC input: the big-endian timestamp followed by the
    /// memory digest, built on the stack.
    fn mac_input(timestamp: SimTime, digest: &MemoryDigest) -> [u8; MAC_INPUT_LEN] {
        let mut input = [0u8; MAC_INPUT_LEN];
        input[..8].copy_from_slice(&timestamp.as_nanos().to_be_bytes());
        input[8..].copy_from_slice(digest);
        input
    }

    /// Verifies the MAC against a precomputed key schedule — the verifier's
    /// hot path when checking a whole collection response.
    pub fn verify_keyed(&self, keyed: &KeyedMac) -> bool {
        keyed.verify(&Self::mac_input(self.timestamp, &self.digest), &self.tag)
    }

    /// The RROC timestamp `t`.
    pub fn timestamp(&self) -> SimTime {
        self.timestamp
    }

    /// The memory digest `H(mem_t)`.
    pub fn digest(&self) -> &MemoryDigest {
        &self.digest
    }

    /// The authentication tag `MAC_K(t, H(mem_t))`.
    pub fn tag(&self) -> &MacTag {
        &self.tag
    }

    /// Size of the measurement on the wire (timestamp + digest + tag), used
    /// by the cost model to price collection packets.
    pub fn wire_size(&self) -> usize {
        8 + self.digest.len() + self.tag.len()
    }
}

impl fmt::Display for Measurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M(t={:.3}s, H=0x", self.timestamp.as_secs_f64())?;
        for byte in self.digest.iter().take(4) {
            write!(f, "{byte:02x}")?;
        }
        f.write_str(".., tag=")?;
        for byte in self.tag.as_bytes().iter().take(4) {
            write!(f, "{byte:02x}")?;
        }
        f.write_str("..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasmus_crypto::{Digest, MacAlgorithm, Sha256};

    const KEY: [u8; 32] = [0xabu8; 32];

    /// The prover's measurement of `memory` at `t` under [`KEY`].
    fn measure(alg: MacAlgorithm, t: SimTime, memory: &[u8]) -> Measurement {
        Measurement::from_digest_keyed(&alg.with_key(&KEY), t, Sha256::digest(memory))
    }

    #[test]
    fn measurement_verifies_only_under_its_key() {
        for alg in MacAlgorithm::ALL {
            let m = measure(alg, SimTime::from_secs(10), b"memory image");
            assert!(m.verify_keyed(&alg.with_key(&KEY)), "{alg}");
            assert!(
                !m.verify_keyed(&alg.with_key(&[0u8; 32])),
                "wrong key must fail for {alg}"
            );
        }
    }

    #[test]
    fn tag_is_the_oneshot_mac_of_big_endian_time_then_digest() {
        // The wire-level MAC input, built by hand: `t` as big-endian
        // nanoseconds, then `H(mem_t)`.
        let t = SimTime::from_nanos(0x0102_0304_0506_0708);
        let digest = Sha256::digest(b"memory image");
        let mut input = Vec::new();
        input.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        input.extend_from_slice(&digest);
        assert_eq!(input.len(), MAC_INPUT_LEN);
        for alg in MacAlgorithm::ALL {
            let m = Measurement::from_digest_keyed(&alg.with_key(&KEY), t, digest);
            assert_eq!(m.tag(), &alg.mac(&KEY, &input), "{alg}");
            assert_eq!((m.timestamp(), m.digest()), (t, &digest), "{alg}");
        }
    }

    #[test]
    fn verification_fails_under_wrong_algorithm() {
        let m = measure(MacAlgorithm::HmacSha256, SimTime::from_secs(1), b"x");
        assert!(!m.verify_keyed(&MacAlgorithm::KeyedBlake2s.with_key(&KEY)));
    }

    #[test]
    fn tampering_with_timestamp_is_detected() {
        let m = measure(MacAlgorithm::HmacSha256, SimTime::from_secs(50), b"mem");
        let forged = Measurement::from_parts(SimTime::from_secs(51), *m.digest(), *m.tag());
        assert!(!forged.verify_keyed(&MacAlgorithm::HmacSha256.with_key(&KEY)));
    }

    #[test]
    fn tampering_with_digest_is_detected() {
        let m = measure(MacAlgorithm::HmacSha256, SimTime::from_secs(50), b"mem");
        let mut digest = *m.digest();
        digest[0] ^= 0xff;
        let forged = Measurement::from_parts(m.timestamp(), digest, *m.tag());
        assert!(!forged.verify_keyed(&MacAlgorithm::HmacSha256.with_key(&KEY)));
    }

    #[test]
    fn same_memory_different_time_gives_different_tag() {
        let a = measure(MacAlgorithm::HmacSha256, SimTime::from_secs(1), b"mem");
        let b = measure(MacAlgorithm::HmacSha256, SimTime::from_secs(2), b"mem");
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.tag(), b.tag());
    }

    #[test]
    fn wire_size() {
        let m = measure(MacAlgorithm::HmacSha256, SimTime::from_secs(10), b"mem");
        assert_eq!(m.wire_size(), 8 + 32 + 32);
    }

    #[test]
    fn display_is_compact() {
        let m = measure(MacAlgorithm::HmacSha256, SimTime::from_secs(10), b"mem");
        let text = m.to_string();
        assert!(text.starts_with("M(t=10.000s"));
        assert!(text.contains("H=0x"));
        assert!(text.ends_with("..)"));
        // Exactly 4 digest bytes and 4 tag bytes rendered.
        let digest_hex: String = m
            .digest()
            .iter()
            .take(4)
            .map(|b| format!("{b:02x}"))
            .collect();
        let tag_hex: String = m
            .tag()
            .as_bytes()
            .iter()
            .take(4)
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            text,
            format!("M(t=10.000s, H=0x{digest_hex}.., tag={tag_hex}..)")
        );
    }
}
