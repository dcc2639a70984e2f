//! Hardware-enforced secure boot (HYDRA).
//!
//! HYDRA relies on secure boot to guarantee the integrity of seL4 and the
//! attestation process at initialization time; SMART+ does not need it
//! because its attestation code is in mask ROM. The simulation models secure
//! boot as a digest check of the loaded image against a reference value
//! burned into fuses at provisioning time.

use erasmus_crypto::constant_time_eq;

use crate::error::HwError;
use crate::rom::Rom;

/// Boot-time image verification.
///
/// # Example
///
/// ```
/// use erasmus_hw::{DeviceKey, Rom, SecureBoot};
///
/// let rom = Rom::new(DeviceKey::from_bytes([1; 32]), b"pratt image".to_vec());
/// let boot = SecureBoot::provision(&rom);
/// assert!(boot.verify(&rom).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureBoot {
    /// Reference digest of the trusted image, fixed at provisioning.
    reference_digest: [u8; 32],
}

impl SecureBoot {
    /// Records the digest of the trusted image (models burning fuses at the
    /// factory).
    pub fn provision(trusted_image: &Rom) -> Self {
        Self {
            reference_digest: *trusted_image.code_digest(),
        }
    }

    /// The provisioned reference digest.
    pub fn reference_digest(&self) -> &[u8; 32] {
        &self.reference_digest
    }

    /// Verifies a loaded image against the provisioned digest.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::SecureBootFailure`] when the digest does not match.
    pub fn verify(&self, image: &Rom) -> Result<(), HwError> {
        if constant_time_eq(image.code_digest(), &self.reference_digest) {
            Ok(())
        } else {
            Err(HwError::SecureBootFailure {
                reason: "attestation image digest does not match provisioned reference".to_owned(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::DeviceKey;

    fn rom(code: &[u8]) -> Rom {
        Rom::new(DeviceKey::from_bytes([0; 32]), code.to_vec())
    }

    #[test]
    fn accepts_provisioned_image() {
        let trusted = rom(b"good image");
        let boot = SecureBoot::provision(&trusted);
        assert!(boot.verify(&trusted).is_ok());
        assert_eq!(boot.reference_digest().len(), 32);
    }

    #[test]
    fn rejects_modified_image() {
        let trusted = rom(b"good image");
        let boot = SecureBoot::provision(&trusted);
        let tampered = rom(b"evil image");
        let err = boot.verify(&tampered).unwrap_err();
        assert!(matches!(err, HwError::SecureBootFailure { .. }));
    }
}
