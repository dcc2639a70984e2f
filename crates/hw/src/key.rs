//! The device attestation key `K`.

use std::fmt;
use std::ops::Range;

use erasmus_crypto::HmacDrbg;

/// Domain-separation string of the key-derivation generator.
const PERSONALIZATION: &[u8] = b"erasmus-device-key";

/// The symmetric key shared between prover and verifier.
///
/// On SMART+ the key lives in ROM and is readable only by the ROM-resident
/// attestation code; on HYDRA it is owned exclusively by the `PrAtt` process.
/// The [`Debug`]/[`std::fmt::Display`] implementations never print the key material.
///
/// # Example
///
/// ```
/// use erasmus_hw::DeviceKey;
///
/// let key = DeviceKey::from_bytes([0x42; 32]);
/// assert_eq!(key.as_bytes().len(), 32);
/// // Debug output is redacted:
/// assert_eq!(format!("{key:?}"), "DeviceKey(..redacted..)");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DeviceKey {
    bytes: [u8; 32],
}

impl DeviceKey {
    /// Key length in bytes.
    pub const LEN: usize = 32;

    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Self { bytes }
    }

    /// Derives a per-device key from a deployment master seed and a device
    /// identifier, the way a fleet operator would provision keys.
    pub fn derive(master_seed: &[u8], device_id: u64) -> Self {
        Self::from_generator(HmacDrbg::new(master_seed, PERSONALIZATION), device_id)
    }

    /// Derives the keys of the devices `device_ids`, in order, each
    /// bit-identical to [`DeviceKey::derive`] for its id. The generator is
    /// instantiated once for the whole range and cloned for each device,
    /// which spares every key but the first the instantiation's hashing.
    pub fn derive_range(master_seed: &[u8], device_ids: Range<u64>) -> impl Iterator<Item = Self> {
        let instantiated = HmacDrbg::new(master_seed, PERSONALIZATION);
        device_ids.map(move |id| Self::from_generator(instantiated.clone(), id))
    }

    /// The key of `device_id` from a freshly instantiated generator.
    fn from_generator(mut drbg: HmacDrbg, device_id: u64) -> Self {
        drbg.reseed(&device_id.to_be_bytes());
        let mut bytes = [0u8; 32];
        drbg.fill(&mut bytes);
        Self { bytes }
    }

    /// Borrows the raw key bytes.
    ///
    /// In the real architectures this is only possible from within the
    /// attestation code; in the simulation the type-level guard is
    /// [`crate::Mcu::run_trusted`], and verifier-side code (which legitimately
    /// holds a copy of `K`) uses this accessor directly.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl fmt::Debug for DeviceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DeviceKey(..redacted..)")
    }
}

impl fmt::Display for DeviceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DeviceKey(..redacted..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_roundtrip() {
        let key = DeviceKey::from_bytes([9u8; 32]);
        assert_eq!(key.as_bytes(), &[9u8; 32]);
    }

    #[test]
    fn derive_is_deterministic_and_per_device() {
        let a1 = DeviceKey::derive(b"master", 1);
        let a2 = DeviceKey::derive(b"master", 1);
        let b = DeviceKey::derive(b"master", 2);
        let c = DeviceKey::derive(b"other-master", 1);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_ne!(a1, c);
    }

    #[test]
    fn fleet_keys_are_pinned() {
        // The keys every fleet run provisions: a change here changes every
        // MAC, chain head and aggregation root downstream.
        let pinned = [
            (
                0,
                "d0646269dff6cc4a05c4e90899c25f375f7e4cdbb1991cbab5230514d364b977",
            ),
            (
                1,
                "3a9ef49d18040d55942e0300b66d625d29607f19f221780020fd6a829337c14d",
            ),
            (
                1 << 40,
                "f4a7ec3c544aa9c0908ee6ccf9a8ce9fa7a60275f3bec2c21882954833f97a0f",
            ),
        ];
        for (device, expected) in pinned {
            let key = DeviceKey::derive(b"erasmus-fleet", device);
            let hex: String = key.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, expected, "device {device}");
        }
    }

    #[test]
    fn derive_range_matches_derive_for_every_id() {
        // 21 ids starting off a multiple of 8, as a shard's range may.
        let ids = 13..34;
        let keys: Vec<DeviceKey> = DeviceKey::derive_range(b"erasmus-fleet", ids.clone()).collect();
        assert_eq!(keys.len(), 21);
        for (id, key) in ids.zip(&keys) {
            assert_eq!(*key, DeviceKey::derive(b"erasmus-fleet", id), "id {id}");
        }
        let far = (1 << 40) - 3..(1 << 40) + 1;
        for (id, key) in far.clone().zip(DeviceKey::derive_range(b"master", far)) {
            assert_eq!(key, DeviceKey::derive(b"master", id), "id {id}");
        }
        assert_eq!(DeviceKey::derive_range(b"erasmus-fleet", 5..5).count(), 0);
    }

    #[test]
    fn debug_and_display_are_redacted() {
        let key = DeviceKey::from_bytes([0xffu8; 32]);
        assert!(!format!("{key:?}").contains("ff"));
        assert!(!key.to_string().contains("ff"));
    }
}
