//! HMAC-DRBG: a deterministic CSPRNG in the style of NIST SP 800-90A.
//!
//! Section 3.5 of the paper proposes irregular measurement intervals driven
//! by a CSPRNG seeded with the device key `K`, so that schedule-aware mobile
//! malware cannot predict when the next measurement will fire. [`HmacDrbg`]
//! provides that generator; `erasmus-core`'s `IrregularSchedule` maps its
//! output into a bounded interval exactly as the paper's `map` function does.

use crate::hmac::HmacKey;
use crate::sha256::Sha256;

/// Deterministic HMAC-SHA256-based pseudo-random generator.
///
/// The construction follows the HMAC_DRBG update/generate loop of
/// SP 800-90A (without reseed counters or prediction-resistance requests,
/// which the paper's usage does not need): state is a key/value pair `(K, V)`
/// updated through HMAC invocations.
///
/// # Example
///
/// ```
/// use erasmus_crypto::HmacDrbg;
///
/// let mut a = HmacDrbg::new(b"device key", b"erasmus-schedule");
/// let mut b = HmacDrbg::new(b"device key", b"erasmus-schedule");
/// // Deterministic: same seed, same stream.
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert_eq!(a.generate(16), b.generate(16));
/// ```
#[derive(Clone)]
pub struct HmacDrbg {
    value: [u8; 32],
    /// Precomputed HMAC schedule for the current `K` — the generate loop
    /// MACs under the same key until the next state update, so the ipad/opad
    /// chaining states are derived once per rekey instead of once per block.
    schedule: HmacKey<Sha256>,
}

impl HmacDrbg {
    /// Instantiates the generator from `seed` and a domain-separation
    /// `personalization` string.
    pub fn new(seed: &[u8], personalization: &[u8]) -> Self {
        let mut drbg = Self {
            value: [0x01u8; 32],
            schedule: HmacKey::new(&[0u8; 32]),
        };
        drbg.update(Some(&[seed, personalization]));
        drbg
    }

    /// One `K = HMAC(K, V || domain || provided…); V = HMAC(K, V)` step,
    /// streamed through the incremental HMAC so no scratch buffer is needed.
    fn rekey(&mut self, domain: u8, provided: &[&[u8]]) {
        let mut mac = self.schedule.begin();
        mac.update(&self.value);
        mac.update(&[domain]);
        for part in provided {
            mac.update(part);
        }
        self.schedule = HmacKey::new(&mac.finalize());
        self.value = self.schedule.mac(&self.value);
    }

    fn update(&mut self, provided: Option<&[&[u8]]>) {
        self.rekey(0x00, provided.unwrap_or(&[]));
        if let Some(parts) = provided {
            self.rekey(0x01, parts);
        }
    }

    /// Mixes additional entropy or context into the generator state.
    pub fn reseed(&mut self, additional: &[u8]) {
        self.update(Some(&[additional]));
    }

    /// Fills `out` with pseudo-random bytes, without heap allocation: one
    /// generate call of `out.len()` bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        self.generate_into(out);
        self.update(None);
    }

    /// The generator's last draw: writes the bytes [`HmacDrbg::fill`] would
    /// write and consumes the generator, skipping `fill`'s closing state
    /// update, which only a later draw could read.
    pub fn fill_last(mut self, out: &mut [u8]) {
        self.generate_into(out);
    }

    /// The generate loop shared by [`HmacDrbg::fill`] and
    /// [`HmacDrbg::fill_last`]: `V = HMAC(K, V)` per 32-byte block.
    fn generate_into(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(self.value.len()) {
            self.value = self.schedule.mac(&self.value);
            chunk.copy_from_slice(&self.value[..chunk.len()]);
        }
    }

    /// Generates `len` pseudo-random bytes.
    pub fn generate(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.fill(&mut out);
        out
    }

    /// Generates a pseudo-random `u64` without heap allocation — this is the
    /// per-measurement draw behind the irregular schedule of Section 3.5.
    pub fn next_u64(&mut self) -> u64 {
        self.value = self.schedule.mac(&self.value);
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.value[..8]);
        self.update(None);
        u64::from_be_bytes(bytes)
    }

    /// Generates a value uniformly distributed in `[low, high)` using
    /// rejection sampling to avoid modulo bias.
    ///
    /// This is the `map` function of Section 3.5: it bounds the next
    /// measurement interval between a lower and an upper limit.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn next_in_range(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "empty range [{low}, {high})");
        let span = high - low;
        // Rejection sampling: draw until the value falls below the largest
        // multiple of `span` representable in u64.
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let candidate = self.next_u64();
            if candidate < zone {
                return low + candidate % span;
            }
        }
    }
}

impl std::fmt::Debug for HmacDrbg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The state is seed-derived (often from the device key `K`).
        f.write_str("HmacDrbg(..redacted..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_is_redacted() {
        let drbg = HmacDrbg::new(b"secret seed", b"ctx");
        assert_eq!(format!("{drbg:?}"), "HmacDrbg(..redacted..)");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = HmacDrbg::new(b"seed", b"ctx");
        let mut b = HmacDrbg::new(b"seed", b"ctx");
        assert_eq!(a.generate(64), b.generate(64));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::new(b"seed-a", b"ctx");
        let mut b = HmacDrbg::new(b"seed-b", b"ctx");
        assert_ne!(a.generate(32), b.generate(32));
    }

    #[test]
    fn different_personalization_diverges() {
        let mut a = HmacDrbg::new(b"seed", b"ctx-a");
        let mut b = HmacDrbg::new(b"seed", b"ctx-b");
        assert_ne!(a.generate(32), b.generate(32));
    }

    #[test]
    fn successive_outputs_differ() {
        let mut drbg = HmacDrbg::new(b"seed", b"ctx");
        let first = drbg.generate(32);
        let second = drbg.generate(32);
        assert_ne!(first, second);
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HmacDrbg::new(b"seed", b"ctx");
        let mut b = HmacDrbg::new(b"seed", b"ctx");
        b.reseed(b"extra entropy");
        assert_ne!(a.generate(32), b.generate(32));
    }

    #[test]
    fn generate_arbitrary_lengths() {
        let mut drbg = HmacDrbg::new(b"seed", b"len");
        for len in [0usize, 1, 31, 32, 33, 64, 100] {
            assert_eq!(drbg.generate(len).len(), len);
        }
    }

    #[test]
    fn fill_last_returns_the_bytes_of_fill() {
        let mut drbg = HmacDrbg::new(b"seed", b"last");
        drbg.reseed(b"device 7");
        for len in [0usize, 1, 31, 32, 33, 64, 100] {
            let mut expected = vec![0u8; len];
            drbg.clone().fill(&mut expected);
            let mut last = vec![0u8; len];
            drbg.clone().fill_last(&mut last);
            assert_eq!(last, expected, "{len} bytes");
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut drbg = HmacDrbg::new(b"seed", b"range");
        for _ in 0..1000 {
            let v = drbg.next_in_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values_eventually() {
        let mut drbg = HmacDrbg::new(b"seed", b"coverage");
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[drbg.next_in_range(0, 8) as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all 8 residues should appear: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut drbg = HmacDrbg::new(b"seed", b"panic");
        let _ = drbg.next_in_range(5, 5);
    }

    #[test]
    fn single_value_range() {
        let mut drbg = HmacDrbg::new(b"seed", b"one");
        for _ in 0..10 {
            assert_eq!(drbg.next_in_range(42, 43), 42);
        }
    }

    #[test]
    fn rough_uniformity_over_small_range() {
        let mut drbg = HmacDrbg::new(b"seed", b"uniform");
        let mut counts = [0u32; 4];
        let n = 4000;
        for _ in 0..n {
            counts[drbg.next_in_range(0, 4) as usize] += 1;
        }
        for &c in &counts {
            // Expect ~1000 each; allow generous slack.
            assert!((700..1300).contains(&c), "counts {counts:?}");
        }
    }
}
