//! ERASMUS — Efficient Remote Attestation via Self-Measurement for
//! Unattended Settings.
//!
//! This is the facade crate of the reproduction workspace. It re-exports the
//! individual crates so that examples, integration tests and downstream users
//! can depend on a single crate:
//!
//! * [`crypto`] — SHA-1/SHA-256/HMAC/keyed-BLAKE2s/HMAC-DRBG implemented from
//!   scratch (the MAC *is* the measurement primitive).
//! * [`hw`] — simulated SMART+/HYDRA-class device hardware: memory map, MPU
//!   rules, ROM, reliable read-only clock, cost and code-size models.
//! * [`sim`] — deterministic discrete-event simulation engine.
//! * [`core`] — the paper's contribution: self-measurement, rolling buffer,
//!   collection protocols (ERASMUS, ERASMUS+OD, on-demand), Quality of
//!   Attestation and malware models.
//! * [`swarm`] — swarm attestation on top of ERASMUS (Section 6).
//!
//! # Quickstart
//!
//! ```
//! use erasmus::prelude::*;
//!
//! # fn main() -> Result<(), erasmus::core::Error> {
//! // A low-end prover that self-measures every 10 simulated seconds and
//! // keeps the last 16 measurements in its rolling buffer.
//! let profile = DeviceProfile::msp430_8mhz(10 * 1024);
//! let config = ProverConfig::builder()
//!     .mac_algorithm(MacAlgorithm::HmacSha256)
//!     .measurement_interval(SimDuration::from_secs(10))
//!     .buffer_slots(16)
//!     .build()?;
//! let key = DeviceKey::from_bytes([0x42; 32]);
//! let mut prover = Prover::new(DeviceId::new(1), profile, key.clone(), config)?;
//! let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
//!
//! // Let the device run for a minute, then collect and verify its history.
//! let mut clock = SimClock::new();
//! for _ in 0..6 {
//!     clock.advance(SimDuration::from_secs(10));
//!     prover.self_measure(clock.now())?;
//! }
//! let response = prover.handle_collection(&CollectionRequest::latest(4), clock.now());
//! let report = verifier.verify_collection(&response, clock.now())?;
//! assert!(report.all_valid());
//! assert_eq!(report.measurements().len(), 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(
    clippy::dbg_macro,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub use erasmus_core as core;
pub use erasmus_crypto as crypto;
pub use erasmus_hw as hw;
pub use erasmus_sim as sim;
pub use erasmus_swarm as swarm;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use erasmus_core::{
        AttestationVerdict, CollectionRequest, CollectionResponse, DeviceId, DeviceKey,
        Measurement, MeasurementBuffer, Prover, ProverConfig, QoaParams, Verifier,
    };
    pub use erasmus_crypto::{Digest, MacAlgorithm, Sha256};
    pub use erasmus_hw::{DeviceProfile, SecurityArchitecture};
    pub use erasmus_sim::{SimClock, SimDuration, SimTime};
}
