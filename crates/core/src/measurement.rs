//! Self-measurements: `M_t = < t, H(mem_t), MAC_K(t, H(mem_t)) >`.

use std::fmt;

use erasmus_crypto::{Digest, KeyedMac, MacAlgorithm, MacTag, MultiKeyedMac, Sha256, Sha256xN};
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
/// Computing and verifying a measurement is the system's hot path: both are
/// allocation-free, and the keyed variants ([`Measurement::compute_keyed`],
/// [`Measurement::verify_keyed`]) reuse a once-per-device [`KeyedMac`]
/// schedule instead of re-deriving the HMAC key schedule per measurement.
///
/// # Example
///
/// ```
/// use erasmus_core::Measurement;
/// use erasmus_crypto::MacAlgorithm;
/// use erasmus_sim::SimTime;
///
/// let key = [0x42u8; 32];
/// let memory = vec![0u8; 1024];
/// let m = Measurement::compute(&key, MacAlgorithm::HmacSha256, SimTime::from_secs(60), &memory);
/// assert!(m.verify(&key, MacAlgorithm::HmacSha256));
/// assert_eq!(m.timestamp(), SimTime::from_secs(60));
///
/// // The precomputed path produces byte-identical measurements.
/// let keyed = MacAlgorithm::HmacSha256.with_key(&key);
/// let m2 = Measurement::compute_keyed(&keyed, SimTime::from_secs(60), &memory);
/// assert_eq!(m, m2);
/// assert!(m2.verify_keyed(&keyed));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Measurement {
    timestamp: SimTime,
    digest: MemoryDigest,
    tag: MacTag,
}

impl Measurement {
    /// Computes a measurement over `memory` at time `timestamp`, deriving
    /// the MAC key schedule from scratch.
    ///
    /// `H(mem_t)` is always SHA-256 (the digest half of the construction is
    /// not varied in the paper's evaluation); the MAC over `(t, H(mem_t))`
    /// uses the configured [`MacAlgorithm`]. Prefer
    /// [`Measurement::compute_keyed`] when measuring repeatedly under the
    /// same key.
    pub fn compute(key: &[u8], alg: MacAlgorithm, timestamp: SimTime, memory: &[u8]) -> Self {
        let digest = Sha256::digest(memory);
        Self::from_digest(key, alg, timestamp, digest)
    }

    /// Computes a measurement over `memory` using a precomputed key
    /// schedule — the per-device hot path.
    pub fn compute_keyed(keyed: &KeyedMac, timestamp: SimTime, memory: &[u8]) -> Self {
        let digest = Sha256::digest(memory);
        Self::from_digest_keyed(keyed, timestamp, digest)
    }

    /// Computes `N` measurements over `N` equal-length memory images in
    /// lockstep — the fleet's lane-batched hot path.
    ///
    /// The memory digests ride the lane-interleaved SHA-256 core
    /// ([`Sha256xN`]) and the tags ride the transposed per-device key
    /// schedules ([`MultiKeyedMac`]); every lane's measurement is
    /// bit-identical to [`Measurement::compute_keyed`] under the same key,
    /// timestamp and memory.
    ///
    /// # Panics
    ///
    /// Panics if the memory images are not all the same length (the lanes
    /// share one block counter). Mixed-size fleets must batch per size
    /// class or fall back to the scalar path.
    ///
    /// # Example
    ///
    /// ```
    /// use erasmus_core::Measurement;
    /// use erasmus_crypto::{MacAlgorithm, MultiKeyedMac};
    /// use erasmus_sim::SimTime;
    ///
    /// let keys: Vec<_> = (0u8..4)
    ///     .map(|i| MacAlgorithm::HmacSha256.with_key(&[i; 32]))
    ///     .collect();
    /// let multi = MultiKeyedMac::<4>::new(std::array::from_fn(|i| &keys[i]));
    /// let images: Vec<Vec<u8>> = (0u8..4).map(|i| vec![i; 1024]).collect();
    /// let t = [SimTime::from_secs(60); 4];
    /// let batch =
    ///     Measurement::compute_keyed_batch(&multi, t, std::array::from_fn(|i| &images[i][..]));
    /// for (lane, keyed) in keys.iter().enumerate() {
    ///     let scalar = Measurement::compute_keyed(keyed, t[lane], &images[lane]);
    ///     assert_eq!(batch[lane], scalar);
    /// }
    /// ```
    pub fn compute_keyed_batch<const N: usize>(
        keyed: &MultiKeyedMac<N>,
        timestamps: [SimTime; N],
        memories: [&[u8]; N],
    ) -> [Measurement; N] {
        let digests = Sha256xN::<N>::digest(memories);
        let inputs: [[u8; MAC_INPUT_LEN]; N] =
            std::array::from_fn(|lane| Self::mac_input(timestamps[lane], &digests[lane]));
        let tags = keyed.mac(std::array::from_fn(|lane| &inputs[lane][..]));
        std::array::from_fn(|lane| Self {
            timestamp: timestamps[lane],
            digest: digests[lane],
            tag: tags[lane],
        })
    }

    /// Computes a measurement from an already-hashed memory digest.
    ///
    /// The prover's trusted code hashes memory inside the security
    /// architecture and then MACs the timestamped digest; splitting the two
    /// steps keeps that structure visible and lets the cost model charge them
    /// separately.
    pub fn from_digest(
        key: &[u8],
        alg: MacAlgorithm,
        timestamp: SimTime,
        digest: MemoryDigest,
    ) -> Self {
        let tag = alg.mac(key, &Self::mac_input(timestamp, &digest));
        Self {
            timestamp,
            digest,
            tag,
        }
    }

    /// Computes a measurement from an already-hashed memory digest using a
    /// precomputed key schedule.
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
    /// here; call [`Measurement::verify`].
    pub fn from_parts(timestamp: SimTime, digest: MemoryDigest, tag: MacTag) -> Self {
        Self {
            timestamp,
            digest,
            tag,
        }
    }

    /// The canonical MAC input: the big-endian timestamp followed by the
    /// memory digest, built on the stack. Crate-visible so the verifier can
    /// check MACs straight off borrowed wire-frame slices without
    /// materializing a `Measurement` first.
    pub(crate) fn mac_input(timestamp: SimTime, digest: &MemoryDigest) -> [u8; MAC_INPUT_LEN] {
        let mut input = [0u8; MAC_INPUT_LEN];
        input[..8].copy_from_slice(&timestamp.as_nanos().to_be_bytes());
        input[8..].copy_from_slice(digest);
        input
    }

    /// Verifies the MAC under `key`, deriving the key schedule from scratch.
    pub fn verify(&self, key: &[u8], alg: MacAlgorithm) -> bool {
        alg.verify(
            key,
            &Self::mac_input(self.timestamp, &self.digest),
            &self.tag,
        )
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

    /// Freshness of this measurement at `now`: how long ago it was taken.
    /// Returns zero if `now` is earlier than the timestamp (clock skew in a
    /// tampered response).
    pub fn age_at(&self, now: SimTime) -> erasmus_sim::SimDuration {
        now.saturating_duration_since(self.timestamp)
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

    const KEY: [u8; 32] = [0xabu8; 32];

    #[test]
    fn compute_and_verify_roundtrip() {
        for alg in MacAlgorithm::ALL {
            let m = Measurement::compute(&KEY, alg, SimTime::from_secs(10), b"memory image");
            assert!(m.verify(&KEY, alg));
            assert!(!m.verify(&[0u8; 32], alg), "wrong key must fail for {alg}");
        }
    }

    #[test]
    fn keyed_path_is_byte_identical_to_oneshot() {
        for alg in MacAlgorithm::ALL {
            let keyed = alg.with_key(&KEY);
            let oneshot = Measurement::compute(&KEY, alg, SimTime::from_secs(10), b"memory image");
            let precomputed =
                Measurement::compute_keyed(&keyed, SimTime::from_secs(10), b"memory image");
            assert_eq!(oneshot, precomputed, "{alg}");
            assert!(oneshot.verify_keyed(&keyed), "{alg}");
            assert!(precomputed.verify(&KEY, alg), "{alg}");
            // A schedule for a different key rejects.
            let wrong = alg.with_key(&[0u8; 32]);
            assert!(!precomputed.verify_keyed(&wrong), "{alg}");
        }
    }

    #[test]
    fn batch_path_is_byte_identical_to_scalar_per_lane() {
        for alg in MacAlgorithm::ALL {
            let keys: Vec<KeyedMac> = (0u8..8).map(|i| alg.with_key(&[i ^ 0xa5; 32])).collect();
            let multi = MultiKeyedMac::<8>::new(std::array::from_fn(|i| &keys[i]));
            let images: Vec<Vec<u8>> = (0u8..8).map(|i| vec![i.wrapping_mul(31); 300]).collect();
            let timestamps: [SimTime; 8] = std::array::from_fn(|i| SimTime::from_secs(i as u64));
            let batch = Measurement::compute_keyed_batch(
                &multi,
                timestamps,
                std::array::from_fn(|i| &images[i][..]),
            );
            for lane in 0..8 {
                let scalar =
                    Measurement::compute_keyed(&keys[lane], timestamps[lane], &images[lane]);
                assert_eq!(batch[lane], scalar, "{alg} lane {lane}");
                assert!(batch[lane].verify_keyed(&keys[lane]), "{alg} lane {lane}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn batch_path_rejects_ragged_memory_images() {
        let keyed = MacAlgorithm::HmacSha256.with_key(&KEY);
        let multi = MultiKeyedMac::<2>::new([&keyed, &keyed]);
        let _ = Measurement::compute_keyed_batch(
            &multi,
            [SimTime::ZERO; 2],
            [&b"short"[..], b"longer-image"],
        );
    }

    #[test]
    fn verification_fails_under_wrong_algorithm() {
        let m = Measurement::compute(&KEY, MacAlgorithm::HmacSha256, SimTime::from_secs(1), b"x");
        assert!(!m.verify(&KEY, MacAlgorithm::KeyedBlake2s));
    }

    #[test]
    fn tampering_with_timestamp_is_detected() {
        let m = Measurement::compute(
            &KEY,
            MacAlgorithm::HmacSha256,
            SimTime::from_secs(50),
            b"mem",
        );
        let forged = Measurement::from_parts(SimTime::from_secs(51), *m.digest(), *m.tag());
        assert!(!forged.verify(&KEY, MacAlgorithm::HmacSha256));
    }

    #[test]
    fn tampering_with_digest_is_detected() {
        let m = Measurement::compute(
            &KEY,
            MacAlgorithm::HmacSha256,
            SimTime::from_secs(50),
            b"mem",
        );
        let mut digest = *m.digest();
        digest[0] ^= 0xff;
        let forged = Measurement::from_parts(m.timestamp(), digest, *m.tag());
        assert!(!forged.verify(&KEY, MacAlgorithm::HmacSha256));
    }

    #[test]
    fn same_memory_different_time_gives_different_tag() {
        let a = Measurement::compute(
            &KEY,
            MacAlgorithm::HmacSha256,
            SimTime::from_secs(1),
            b"mem",
        );
        let b = Measurement::compute(
            &KEY,
            MacAlgorithm::HmacSha256,
            SimTime::from_secs(2),
            b"mem",
        );
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.tag(), b.tag());
    }

    #[test]
    fn from_digest_matches_compute() {
        let digest = Sha256::digest(b"the memory");
        let a = Measurement::from_digest(
            &KEY,
            MacAlgorithm::HmacSha256,
            SimTime::from_secs(9),
            digest,
        );
        let b = Measurement::compute(
            &KEY,
            MacAlgorithm::HmacSha256,
            SimTime::from_secs(9),
            b"the memory",
        );
        assert_eq!(a, b);
    }

    #[test]
    fn wire_size_and_age() {
        let m = Measurement::compute(
            &KEY,
            MacAlgorithm::HmacSha256,
            SimTime::from_secs(10),
            b"mem",
        );
        assert_eq!(m.wire_size(), 8 + 32 + 32);
        assert_eq!(
            m.age_at(SimTime::from_secs(25)),
            erasmus_sim::SimDuration::from_secs(15)
        );
        assert_eq!(
            m.age_at(SimTime::from_secs(5)),
            erasmus_sim::SimDuration::ZERO
        );
    }

    #[test]
    fn display_is_compact() {
        let m = Measurement::compute(
            &KEY,
            MacAlgorithm::HmacSha256,
            SimTime::from_secs(10),
            b"mem",
        );
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
