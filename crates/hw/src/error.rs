//! Error type for the hardware substrate.

use std::fmt;

/// Errors reported by the simulated hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HwError {
    /// An access violated the MPU rule table (e.g. untrusted code tried to
    /// read the device key).
    AccessViolation {
        /// Which subject attempted the access.
        subject: String,
        /// Which region was targeted.
        region: String,
        /// What kind of access was attempted.
        access: String,
    },
    /// A memory operation fell outside the addressed region.
    OutOfBounds {
        /// Requested offset.
        offset: usize,
        /// Requested length.
        len: usize,
        /// Size of the region.
        region_size: usize,
    },
    /// Secure boot rejected the loaded image.
    SecureBootFailure {
        /// Human-readable reason.
        reason: String,
    },
    /// A memory map was configured with overlapping regions.
    OverlappingRegions {
        /// Name of the first region.
        first: String,
        /// Name of the second region.
        second: String,
    },
    /// An application image handed to a device does not have the size of
    /// the device's application memory.
    ImageSizeMismatch {
        /// The profile's application-memory size in bytes.
        expected: usize,
        /// The image's length in bytes.
        actual: usize,
    },
}

impl fmt::Display for HwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HwError::AccessViolation {
                subject,
                region,
                access,
            } => {
                write!(
                    f,
                    "access violation: {subject} attempted {access} on {region}"
                )
            }
            HwError::OutOfBounds {
                offset,
                len,
                region_size,
            } => {
                write!(
                    f,
                    "memory access out of bounds: offset {offset} + len {len} exceeds region of {region_size} bytes"
                )
            }
            HwError::SecureBootFailure { reason } => {
                write!(f, "secure boot failure: {reason}")
            }
            HwError::OverlappingRegions { first, second } => {
                write!(f, "memory regions `{first}` and `{second}` overlap")
            }
            HwError::ImageSizeMismatch { expected, actual } => {
                write!(
                    f,
                    "application image of {actual} bytes does not fit {expected} bytes of application memory"
                )
            }
        }
    }
}

impl std::error::Error for HwError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let err = HwError::AccessViolation {
            subject: "application".into(),
            region: "key".into(),
            access: "read".into(),
        };
        assert!(err.to_string().contains("access violation"));

        let err = HwError::OutOfBounds {
            offset: 10,
            len: 20,
            region_size: 16,
        };
        assert!(err.to_string().contains("out of bounds"));

        let err = HwError::SecureBootFailure {
            reason: "hash mismatch".into(),
        };
        assert!(err.to_string().contains("hash mismatch"));

        let err = HwError::OverlappingRegions {
            first: "rom".into(),
            second: "ram".into(),
        };
        assert!(err.to_string().contains("overlap"));

        let err = HwError::ImageSizeMismatch {
            expected: 1024,
            actual: 64,
        };
        assert!(err.to_string().contains("64 bytes"));
    }

    #[test]
    fn error_trait_object() {
        let err: Box<dyn std::error::Error> = Box::new(HwError::SecureBootFailure {
            reason: "bad signature".into(),
        });
        assert!(err.to_string().contains("secure boot"));
    }
}
