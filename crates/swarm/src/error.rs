//! Error type of the swarm substrate.

use std::fmt;

use erasmus_core::Error as CoreError;

/// Errors reported by swarm construction and the collective protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SwarmError {
    /// A swarm was configured with no devices.
    EmptySwarm,
    /// A device index was out of range.
    UnknownDevice {
        /// The offending index.
        index: usize,
        /// The swarm size.
        size: usize,
    },
    /// An error bubbled up from a single prover/verifier pair.
    Device {
        /// Which device failed.
        index: usize,
        /// The underlying error.
        source: CoreError,
    },
}

impl fmt::Display for SwarmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwarmError::EmptySwarm => f.write_str("swarm has no devices"),
            SwarmError::UnknownDevice { index, size } => {
                write!(f, "device index {index} out of range for swarm of {size}")
            }
            SwarmError::Device { index, source } => {
                write!(f, "device {index} failed: {source}")
            }
        }
    }
}

impl std::error::Error for SwarmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SwarmError::Device { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SwarmError::EmptySwarm.to_string().contains("no devices"));
        assert!(SwarmError::UnknownDevice { index: 9, size: 4 }
            .to_string()
            .contains("9"));
        let device = SwarmError::Device {
            index: 2,
            source: CoreError::NoMeasurements,
        };
        assert!(device.to_string().contains("device 2"));
        assert!(std::error::Error::source(&device).is_some());
        assert!(std::error::Error::source(&SwarmError::EmptySwarm).is_none());
    }
}
