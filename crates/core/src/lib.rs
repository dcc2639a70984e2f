//! ERASMUS: Efficient Remote Attestation via Self-Measurement for Unattended
//! Settings — the core library of the reproduction.
//!
//! ERASMUS (Carpent, Rattanavipanon, Tsudik; DATE 2018) splits remote
//! attestation into two phases:
//!
//! * a **measurement phase**, in which the prover periodically measures its
//!   own memory — `M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>` — inside a
//!   hybrid security architecture (SMART+ or HYDRA) and stores the result in
//!   a rolling buffer in insecure storage;
//! * a **collection phase**, in which the verifier occasionally fetches the
//!   latest `k` measurements. This phase involves *no* cryptography on the
//!   prover, so it imposes negligible real-time burden and needs no request
//!   authentication.
//!
//! Compared to on-demand attestation, this detects *mobile* malware that
//! enters and leaves between verifier interactions, and it decouples how
//! often the device is measured (`T_M`) from how often it is checked
//! (`T_C`) — the two axes of the paper's Quality of Attestation
//! ([`QoaParams`]).
//!
//! # Main types
//!
//! * [`Prover`] / [`Verifier`] — the two protocol roles.
//! * [`Measurement`] / [`MeasurementBuffer`] — evidence and its rolling
//!   store.
//! * [`ProverConfig`] / [`ScheduleKind`] — deployment configuration,
//!   including the irregular (Section 3.5) and lenient (Section 5)
//!   schedules.
//! * [`CollectionRequest`] / [`OnDemandRequest`] — the ERASMUS (Figure 2)
//!   and ERASMUS+OD (Figure 4) protocols.
//! * [`DeviceHistory`] / [`VerifierHub`] — the reconstructed per-device
//!   state timeline and the fleet-wide map of such timelines.
//! * [`QoaParams`] — Quality of Attestation analytics.
//! * [`Malware`] / [`Scenario`] — the threat models and the discrete-event
//!   scenario runner used by the security experiments.
//!
//! # Example
//!
//! ```
//! use erasmus_core::{CollectionRequest, DeviceId, Prover, ProverConfig, Verifier};
//! use erasmus_crypto::MacAlgorithm;
//! use erasmus_hw::{DeviceKey, DeviceProfile};
//! use erasmus_sim::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), erasmus_core::Error> {
//! let key = DeviceKey::from_bytes([0x42; 32]);
//! let config = ProverConfig::builder()
//!     .mac_algorithm(MacAlgorithm::HmacSha256)
//!     .measurement_interval(SimDuration::from_secs(10))
//!     .buffer_slots(16)
//!     .build()?;
//! let mut prover = Prover::new(
//!     DeviceId::new(1),
//!     DeviceProfile::msp430_8mhz(10 * 1024),
//!     key.clone(),
//!     config,
//! )?;
//! let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
//! verifier.learn_reference_image(prover.mcu().app_memory());
//!
//! // The device self-measures on schedule; the verifier collects later.
//! prover.run_until(SimTime::from_secs(60))?;
//! let response = prover.handle_collection(&CollectionRequest::latest(6), SimTime::from_secs(60));
//! let report = verifier.verify_collection(&response, SimTime::from_secs(60))?;
//! assert!(report.all_valid());
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
#![warn(missing_docs)]

pub mod buffer;
pub mod config;
pub mod encoding;
pub mod error;
pub mod history;
pub mod hub;
pub mod ids;
pub mod malware;
pub mod measurement;
pub mod protocol;
pub mod prover;
pub mod qoa;
pub mod report;
pub mod scenario;
pub mod schedule;
pub mod verifier;

pub use buffer::MeasurementBuffer;
pub use config::{ProverConfig, ProverConfigBuilder};
pub use encoding::{
    decode_collection_batch, decode_hub_snapshot, encode_collection_batch,
    encode_collection_batch_into, encode_collection_response, encode_collection_response_into,
    encode_hub_snapshot, encode_hub_snapshot_into, encode_measurement, encode_measurement_into,
    DecodeError, DecodeErrorKind, FrameView, MeasurementView, MeasurementViews, ResponseView,
    ResponseViews, MAX_BATCH_RESPONSES, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use error::Error;
pub use history::{
    extend_digest, DeviceHistory, HistoryEntry, HistoryMode, HistorySpan, DEFAULT_RING_CAPACITY,
};
pub use hub::{FrameIngest, VerifierHub, DEDUP_WINDOW};
pub use ids::DeviceId;
pub use malware::{Malware, MalwareBehavior, TamperStrategy};
pub use measurement::{Measurement, MemoryDigest, DIGEST_LEN, MAC_INPUT_LEN};
pub use protocol::{CollectionRequest, CollectionResponse, OnDemandRequest, OnDemandResponse};
pub use prover::{MeasurementOutcome, Prover};
pub use qoa::QoaParams;
pub use report::{AttestationVerdict, CollectionReport, MeasurementVerdict, VerifiedMeasurement};
pub use scenario::{
    InfectionOutcome, InfectionSpec, Scenario, ScenarioOutcome, TimelineEntry, TimelineEvent,
};
pub use schedule::{MeasurementScheduler, ScheduleKind};
pub use verifier::Verifier;

// Re-exported for convenience: the device key lives with the hardware
// substrate (it is provisioned into ROM) but is part of this crate's public
// API surface.
pub use erasmus_hw::DeviceKey;
