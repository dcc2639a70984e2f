//! The rolling (windowed/circular) measurement buffer of Section 3.2.
//!
//! A fixed section of the prover's **insecure** storage holds the last `n`
//! measurements. Measurement `M_t` goes into slot `i = ⌊t / T_M⌋ mod n`,
//! so the schedule is stateless: the slot follows from the RROC timestamp
//! alone. The verifier is expected to collect often enough that no slot is
//! overwritten before it has been seen (`T_C ≤ n · T_M`).
//!
//! Because the storage is insecure, the buffer deliberately exposes
//! tampering operations ([`MeasurementBuffer::tamper_delete`],
//! [`MeasurementBuffer::tamper_replace`], …). Malware can do all of that —
//! what it cannot do is forge a measurement that verifies under `K`.

use erasmus_sim::{SimDuration, SimTime};

use crate::measurement::Measurement;

/// Rolling buffer of the prover's `n` most recent measurements.
///
/// # Example
///
/// ```
/// use erasmus_core::{Measurement, MeasurementBuffer};
/// use erasmus_crypto::{Digest, MacAlgorithm, Sha256};
/// use erasmus_sim::{SimDuration, SimTime};
///
/// let keyed = MacAlgorithm::HmacSha256.with_key(&[1u8; 32]);
/// let t_m = SimDuration::from_secs(10);
/// let mut buffer = MeasurementBuffer::new(4, t_m);
/// for i in 1..=6u64 {
///     let t = SimTime::from_secs(i * 10);
///     buffer.store(Measurement::from_digest_keyed(&keyed, t, Sha256::digest(b"mem")));
/// }
/// // Only the last 4 survive; the latest 2 are returned newest-first.
/// let latest = buffer.latest(2);
/// assert_eq!(latest[0].timestamp(), SimTime::from_secs(60));
/// assert_eq!(latest[1].timestamp(), SimTime::from_secs(50));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasurementBuffer {
    slots: Vec<Option<Measurement>>,
    measurement_interval: SimDuration,
    /// Number of stores that overwrote a not-yet-collected slot.
    overwrites: u64,
}

impl MeasurementBuffer {
    /// Creates a buffer with `slots` entries for a schedule with measurement
    /// interval `measurement_interval` (`T_M`).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or `measurement_interval` is zero; both
    /// would make the slot formula meaningless. Configuration-level
    /// validation with a proper error happens in
    /// [`ProverConfig`](crate::ProverConfig).
    pub fn new(slots: usize, measurement_interval: SimDuration) -> Self {
        assert!(slots > 0, "buffer must have at least one slot");
        assert!(
            !measurement_interval.is_zero(),
            "measurement interval must be non-zero"
        );
        Self {
            slots: vec![None; slots],
            measurement_interval,
            overwrites: 0,
        }
    }

    /// Number of slots `n`.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The measurement interval `T_M` the slot formula uses.
    pub fn measurement_interval(&self) -> SimDuration {
        self.measurement_interval
    }

    /// Number of slots currently holding a measurement.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_some()).count()
    }

    /// Whether no measurement has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stores that overwrote an existing (uncollected) slot.
    pub fn overwrites(&self) -> u64 {
        self.overwrites
    }

    /// The slot index for a measurement taken at `timestamp`:
    /// `i = ⌊t / T_M⌋ mod n`.
    pub fn slot_for(&self, timestamp: SimTime) -> usize {
        let index = timestamp.as_nanos() / self.measurement_interval.as_nanos();
        (index % self.slots.len() as u64) as usize
    }

    /// Stores a measurement in its slot, returning the slot index. Any
    /// previous occupant is overwritten (that is the "rolling" part).
    pub fn store(&mut self, measurement: Measurement) -> usize {
        let slot = self.slot_for(measurement.timestamp());
        if self.slots[slot].is_some() {
            self.overwrites += 1;
        }
        self.slots[slot] = Some(measurement);
        slot
    }

    /// Direct read of one slot (the collection code path: no crypto, no
    /// state change).
    pub fn slot(&self, index: usize) -> Option<&Measurement> {
        self.slots.get(index).and_then(|slot| slot.as_ref())
    }

    /// The `k` most recent measurements, newest first. If fewer than `k` are
    /// present, returns all of them (the paper clamps `k = n` when a
    /// verifier over-asks).
    pub fn latest(&self, k: usize) -> Vec<Measurement> {
        // One allocation: the occupied slots in slot order, then a stable
        // sort, so equal timestamps (a forged copy) keep their slot order.
        let mut latest = Vec::with_capacity(self.slots.len());
        latest.extend(self.slots.iter().flatten().cloned());
        latest.sort_by_key(|m| std::cmp::Reverse(m.timestamp()));
        latest.truncate(k);
        latest
    }

    /// All stored measurements, oldest first.
    pub fn all(&self) -> Vec<Measurement> {
        let mut present: Vec<&Measurement> = self.slots.iter().flatten().collect();
        present.sort_by_key(|m| m.timestamp());
        present.into_iter().cloned().collect()
    }

    /// The most recent measurement, if any.
    pub fn most_recent(&self) -> Option<&Measurement> {
        self.slots.iter().flatten().max_by_key(|m| m.timestamp())
    }

    /// Largest collection period `T_C` that guarantees no loss:
    /// `T_C ≤ n · T_M` (Section 3.2).
    pub fn max_safe_collection_period(&self) -> SimDuration {
        self.measurement_interval * self.slots.len() as u64
    }

    // ------------------------------------------------------------------
    // Tampering API — what malware with write access to insecure storage
    // can do. None of these can produce a measurement that verifies.
    // ------------------------------------------------------------------

    /// Deletes every stored measurement (malware covering its tracks).
    pub fn tamper_clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
    }

    /// Deletes the measurement in one slot, if present. Returns whether a
    /// measurement was removed.
    pub fn tamper_delete(&mut self, slot: usize) -> bool {
        match self.slots.get_mut(slot) {
            Some(entry) => entry.take().is_some(),
            None => false,
        }
    }

    /// Overwrites a slot with an arbitrary (forged) measurement.
    pub fn tamper_replace(&mut self, slot: usize, forged: Measurement) {
        if let Some(entry) = self.slots.get_mut(slot) {
            *entry = Some(forged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasmus_crypto::{Digest, MacAlgorithm, Sha256};

    const KEY: [u8; 32] = [9u8; 32];
    const TM: SimDuration = SimDuration::from_secs(10);

    fn m(t_secs: u64) -> Measurement {
        Measurement::from_digest_keyed(
            &MacAlgorithm::HmacSha256.with_key(&KEY),
            SimTime::from_secs(t_secs),
            Sha256::digest(b"mem"),
        )
    }

    #[test]
    fn slot_formula_matches_paper() {
        let buffer = MeasurementBuffer::new(12, TM);
        // i = ⌊t/T_M⌋ mod n
        assert_eq!(buffer.slot_for(SimTime::from_secs(0)), 0);
        assert_eq!(buffer.slot_for(SimTime::from_secs(10)), 1);
        assert_eq!(buffer.slot_for(SimTime::from_secs(119)), 11);
        assert_eq!(buffer.slot_for(SimTime::from_secs(120)), 0);
        assert_eq!(buffer.slot_for(SimTime::from_secs(35)), 3);
    }

    #[test]
    fn store_and_latest_ordering() {
        let mut buffer = MeasurementBuffer::new(8, TM);
        for i in 1..=5u64 {
            buffer.store(m(i * 10));
        }
        assert_eq!(buffer.len(), 5);
        let latest = buffer.latest(3);
        assert_eq!(latest.len(), 3);
        assert_eq!(latest[0].timestamp(), SimTime::from_secs(50));
        assert_eq!(latest[2].timestamp(), SimTime::from_secs(30));
        // Asking for more than is present returns everything.
        assert_eq!(buffer.latest(100).len(), 5);
        assert_eq!(
            buffer.most_recent().map(|m| m.timestamp()),
            Some(SimTime::from_secs(50))
        );
    }

    #[test]
    fn all_returns_oldest_first() {
        let mut buffer = MeasurementBuffer::new(8, TM);
        buffer.store(m(30));
        buffer.store(m(10));
        buffer.store(m(20));
        let timestamps: Vec<u64> = buffer
            .all()
            .iter()
            .map(|m| m.timestamp().as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(timestamps, vec![10, 20, 30]);
    }

    #[test]
    fn rolling_overwrite_behaviour() {
        let mut buffer = MeasurementBuffer::new(4, TM);
        for i in 1..=4u64 {
            buffer.store(m(i * 10));
        }
        assert_eq!(buffer.overwrites(), 0);
        // Timestamp 50 maps to the same slot as 10 (n = 4), overwriting it.
        buffer.store(m(50));
        assert_eq!(buffer.overwrites(), 1);
        assert_eq!(buffer.len(), 4);
        let timestamps: Vec<u64> = buffer
            .all()
            .iter()
            .map(|m| m.timestamp().as_secs_f64() as u64)
            .collect();
        assert_eq!(timestamps, vec![20, 30, 40, 50]);
    }

    #[test]
    fn max_safe_collection_period() {
        let buffer = MeasurementBuffer::new(12, TM);
        assert_eq!(
            buffer.max_safe_collection_period(),
            SimDuration::from_secs(120)
        );
    }

    #[test]
    fn empty_buffer_queries() {
        let buffer = MeasurementBuffer::new(4, TM);
        assert!(buffer.is_empty());
        assert!(buffer.latest(3).is_empty());
        assert!(buffer.all().is_empty());
        assert!(buffer.most_recent().is_none());
        assert!(buffer.slot(0).is_none());
        assert!(buffer.slot(100).is_none());
    }

    #[test]
    fn tampering_operations() {
        let mut buffer = MeasurementBuffer::new(4, TM);
        for i in 1..=4u64 {
            buffer.store(m(i * 10));
        }
        // Delete one, swap two, replace one with a forgery, clear all.
        assert!(buffer.tamper_delete(1));
        assert!(!buffer.tamper_delete(1));
        assert!(!buffer.tamper_delete(99));
        assert_eq!(buffer.len(), 3);

        let forged = Measurement::from_parts(
            SimTime::from_secs(999),
            [0u8; 32],
            erasmus_crypto::MacTag::new(vec![0u8; 32]),
        );
        buffer.tamper_replace(0, forged.clone());
        assert_eq!(buffer.slot(0), Some(&forged));
        // Forged entries never verify under the real key.
        assert!(!buffer
            .slot(0)
            .expect("slot 0")
            .verify_keyed(&MacAlgorithm::HmacSha256.with_key(&KEY)));

        buffer.tamper_clear();
        assert!(buffer.is_empty());
    }

    /// `latest` as it was first written: sorted references, then clones of
    /// the newest `k` into a second `Vec`.
    fn latest_two_vecs(buffer: &MeasurementBuffer, k: usize) -> Vec<Measurement> {
        let mut present: Vec<&Measurement> = buffer.slots.iter().flatten().collect();
        present.sort_by_key(|m| std::cmp::Reverse(m.timestamp()));
        present.into_iter().take(k).cloned().collect()
    }

    proptest::proptest! {
        /// Stores and tampering in any order leave `latest(k)` equal to the
        /// two-`Vec` version for every `k`, ties between a measurement and
        /// a forged copy of its timestamp included.
        #[test]
        fn latest_matches_the_two_vec_version(
            slots in 1usize..=8,
            ops in proptest::collection::vec((0u8..4, 0usize..10, 0usize..10, 0u64..24), 0..40),
        ) {
            let mut buffer = MeasurementBuffer::new(slots, TM);
            for (i, (op, a, b, secs)) in ops.into_iter().enumerate() {
                let distinct = Measurement::from_parts(
                    SimTime::from_secs(secs * 5),
                    [i as u8; 32],
                    erasmus_crypto::MacTag::new(vec![i as u8; 32]),
                );
                match op {
                    0 => {
                        buffer.store(distinct);
                    }
                    1 => {
                        buffer.tamper_delete(a);
                    }
                    2 => buffer.tamper_replace(a, distinct),
                    // Re-ordering attack: swap two slots in place.
                    _ if a.max(b) < slots => buffer.slots.swap(a, b),
                    _ => {}
                }
            }
            for k in 0..=slots + 1 {
                proptest::prop_assert_eq!(buffer.latest(k), latest_two_vecs(&buffer, k));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_panics() {
        let _ = MeasurementBuffer::new(0, TM);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_panics() {
        let _ = MeasurementBuffer::new(4, SimDuration::ZERO);
    }
}
