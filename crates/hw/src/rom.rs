//! ROM image: the attestation code and (on SMART+) the device key.

use std::sync::{Arc, OnceLock};

use erasmus_crypto::{Digest, Sha256};

use crate::key::DeviceKey;

/// Size in bytes of the synthetic attestation-code image every
/// [`crate::Mcu`] carries in ROM.
pub const ATTESTATION_CODE_SIZE: usize = 5 * 1024;

/// The immutable ROM contents of a SMART+ device, or the secure-boot-
/// protected `PrAtt` image of a HYDRA device.
///
/// The ROM holds (a) the attestation/measurement code and (b) the device key
/// `K`. Neither can be modified at runtime; the [`Rom::code_digest`] is what
/// secure boot (HYDRA) checks before handing control to the system.
///
/// The code bytes and their digest sit together behind one [`Arc`]: every
/// device of a deployment runs the same attestation image, so
/// [`crate::Mcu::new`] hands all of them one process-wide copy, built and
/// hashed once. A `Rom` is the per-device key plus a pointer to that image.
///
/// # Example
///
/// ```
/// use erasmus_hw::{DeviceKey, Rom};
///
/// let rom = Rom::new(DeviceKey::from_bytes([1; 32]), b"attestation code image".to_vec());
/// assert_eq!(rom.code().len(), 22);
/// assert_eq!(rom.code_digest().len(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rom {
    key: DeviceKey,
    image: Arc<CodeImage>,
}

/// Attestation code and its SHA-256 digest, hashed once when built.
#[derive(Debug, PartialEq, Eq)]
struct CodeImage {
    code: Box<[u8]>,
    digest: [u8; 32],
}

impl CodeImage {
    fn hashed(code: Box<[u8]>) -> Arc<Self> {
        let digest = Sha256::digest(&code);
        Arc::new(Self { code, digest })
    }
}

impl Rom {
    /// Creates a ROM image holding `key` and the attestation `code` bytes.
    pub fn new(key: DeviceKey, code: Vec<u8>) -> Self {
        Self {
            key,
            image: CodeImage::hashed(code.into_boxed_slice()),
        }
    }

    /// The synthetic [`ATTESTATION_CODE_SIZE`]-byte image, holding `key`:
    /// deterministic, compressible-looking filler (a repeating counter),
    /// since only its size matters. The image and its digest are built once
    /// per process and shared by every ROM made here.
    pub(crate) fn attestation(key: DeviceKey) -> Self {
        static IMAGE: OnceLock<Arc<CodeImage>> = OnceLock::new();
        let image = IMAGE.get_or_init(|| {
            CodeImage::hashed(
                (0..ATTESTATION_CODE_SIZE)
                    .map(|i| (i % 251) as u8)
                    .collect(),
            )
        });
        Self {
            key,
            image: Arc::clone(image),
        }
    }

    /// The device key. Access control is enforced by the MCU, not here; see
    /// [`crate::Mcu::run_trusted`].
    pub(crate) fn key(&self) -> &DeviceKey {
        &self.key
    }

    /// The attestation code bytes.
    pub fn code(&self) -> &[u8] {
        &self.image.code
    }

    /// SHA-256 digest of the attestation code, as checked by secure boot.
    pub fn code_digest(&self) -> &[u8; 32] {
        &self.image.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_code() {
        let rom = Rom::new(DeviceKey::from_bytes([0; 32]), vec![1, 2, 3]);
        assert_eq!(rom.code_digest(), &Sha256::digest(&[1, 2, 3])[..]);
        assert_eq!(rom.code(), &[1, 2, 3]);
        assert_eq!(rom.code().len(), 3);
    }

    #[test]
    fn different_code_different_digest() {
        let a = Rom::new(DeviceKey::from_bytes([0; 32]), vec![1, 2, 3]);
        let b = Rom::new(DeviceKey::from_bytes([0; 32]), vec![1, 2, 4]);
        assert_ne!(a.code_digest(), b.code_digest());
    }
}
