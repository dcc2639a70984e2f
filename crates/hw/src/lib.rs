//! Simulated hybrid remote-attestation hardware for the ERASMUS
//! reproduction.
//!
//! The paper implements ERASMUS on two security architectures:
//!
//! * **SMART+** (low-end, MSP430-class): attestation code and the key `K`
//!   live in ROM, the memory backbone enforces that only ROM code can read
//!   `K`, execution of the attestation code is atomic, and a Reliable
//!   Read-Only Clock (RROC) provides tamper-proof timestamps.
//! * **HYDRA** (medium-end, i.MX6-class with an MMU): the attestation
//!   process `PrAtt` runs on seL4, owns `K` and the RROC exclusively, and is
//!   protected by secure boot.
//!
//! This crate models the *properties* of those platforms rather than their
//! gate-level behaviour:
//!
//! * [`Mcu`] — the device: application memory, ROM with the device key,
//!   [`Rroc`], timers, an [`MpuConfig`] access-rule table, and the
//!   [`SecurityArchitecture`] flavour. The key is only reachable through
//!   [`Mcu::run_trusted`], which models entering the ROM/PrAtt attestation
//!   code with interrupts disabled.
//! * [`DeviceProfile`] — per-platform constants (clock rate, per-byte MAC
//!   cost, packet costs, code-size components) calibrated against the
//!   paper's Figures 6 and 8 and Tables 1 and 2.
//! * [`CostModel`] — converts work (bytes MAC'd, packets sent) into
//!   simulated time.
//! * [`CodeSizeModel`] / [`HardwareCost`] — reproduce Table 1 and the
//!   register/LUT overhead numbers of Section 4.1.
//!
//! # Example
//!
//! ```
//! use erasmus_hw::{DeviceKey, DeviceProfile, Mcu};
//! use erasmus_crypto::MacAlgorithm;
//!
//! let profile = DeviceProfile::msp430_8mhz(10 * 1024);
//! let mut mcu = Mcu::new(profile, DeviceKey::from_bytes([7u8; 32]));
//! // Only trusted (ROM-resident) code can touch the key:
//! let tag = mcu.run_trusted(|ctx| {
//!     MacAlgorithm::HmacSha256.mac(ctx.key_bytes(), b"measurement input")
//! }).expect("MPU permits the attestation code to read K");
//! assert_eq!(tag.len(), 32);
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

pub mod codesize;
pub mod cost;
pub mod error;
pub mod key;
pub mod mcu;
pub mod mem;
pub mod mpu;
pub mod profile;
pub mod rom;
pub mod rroc;
pub mod secure_boot;
pub mod timer;

pub use codesize::{CodeSizeModel, ExecutableSize, HardwareCost, RaMode};
pub use cost::CostModel;
pub use error::HwError;
pub use key::DeviceKey;
pub use mcu::{Mcu, TrustedContext};
pub use mem::{MemoryMap, MemoryRegion, RegionKind};
pub use mpu::{AccessKind, MpuConfig, MpuRule, Subject};
pub use profile::{DeviceProfile, SecurityArchitecture};
pub use rom::{Rom, ATTESTATION_CODE_SIZE};
pub use rroc::Rroc;
pub use secure_boot::SecureBoot;
pub use timer::PeriodicTimer;
