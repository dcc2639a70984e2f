//! Deterministic RNG for workload generation.
//!
//! Experiments need randomness for *workloads* (malware dwell times, swarm
//! mobility, memory contents) that is reproducible from a seed. Security-
//! relevant randomness (the irregular measurement schedule of Section 3.5)
//! does **not** use this type; it uses `erasmus_crypto::HmacDrbg` seeded with
//! the device key, exactly as the paper prescribes.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::time::SimDuration;

/// Seeded pseudo-random generator for experiment workloads.
///
/// # Example
///
/// ```
/// use erasmus_sim::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform value in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn gen_range(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "empty range [{low}, {high})");
        self.inner.gen_range(low..high)
    }

    /// Bernoulli draw with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.inner.gen_bool(p)
    }

    /// Uniform duration in `[low, high)`.
    pub fn gen_duration(&mut self, low: SimDuration, high: SimDuration) -> SimDuration {
        SimDuration::from_nanos(self.gen_range(low.as_nanos(), high.as_nanos()))
    }

    /// Fills `buf` with pseudo-random bytes (used to generate device memory
    /// images).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        self.inner.fill_bytes(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::seed_from(43);
        assert_ne!(SimRng::seed_from(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respected() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            let v = rng.gen_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn duration_range() {
        let mut rng = SimRng::seed_from(2);
        let low = SimDuration::from_secs(1);
        let high = SimDuration::from_secs(2);
        for _ in 0..100 {
            let d = rng.gen_duration(low, high);
            assert!(d >= low && d < high);
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::seed_from(4);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let mut rng = SimRng::seed_from(5);
        rng.gen_bool(1.5);
    }

    #[test]
    fn fill_bytes_changes_buffer() {
        let mut rng = SimRng::seed_from(6);
        let mut buf = [0u8; 64];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
