//! Swarm attestation on top of ERASMUS (Section 6 of the paper).
//!
//! Some deployments need to attest a *group* (swarm) of interconnected
//! devices. Prior swarm RA protocols — SEDA, SANA, LISA — perform on-demand
//! attestation across a spanning tree and therefore require the topology to
//! stay essentially static for the whole protocol run, whose duration is
//! dominated by per-device measurement computation. ERASMUS removes the
//! computation from the collection path, so a LISA-α-style relay collection
//! finishes quickly and tolerates high mobility.
//!
//! This crate provides:
//!
//! * [`Topology`] — the swarm connectivity graph (ring, grid, random
//!   connected, or hand-built).
//! * [`MobilityModel`] / [`MobilitySimulator`] — link churn applied while a
//!   protocol is in flight.
//! * [`Swarm`] — a fleet of identical ERASMUS provers (MSP430 @ 8 MHz with
//!   4 KiB, HMAC-SHA256, `T_M` = 10 s) plus per-device keys, with two
//!   collective protocols: [`Swarm::erasmus_collection`] (self-measurements
//!   relayed LISA-α style) and [`Swarm::on_demand_attestation`] (SEDA-style
//!   on-demand baseline), each returning a [`SwarmRound`].
//! * [`QosaLevel`] / [`SwarmReport`] — Quality of Swarm Attestation
//!   summaries, the spatial counterpart of QoA.
//! * [`StaggeredSchedule`] — measurement phase offsets that guarantee only a
//!   bounded fraction of the swarm is busy measuring at any instant
//!   (the availability argument at the end of Section 6).
//! * [`AggregationTree`] — SANA/slimIoT-style hierarchical aggregation of
//!   per-device hash-chain heads, so a root verifier folds fixed-size
//!   subtree aggregates instead of per-device reports.
//!
//! # Example
//!
//! ```
//! use erasmus_swarm::{Swarm, Topology};
//! use erasmus_sim::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), erasmus_swarm::SwarmError> {
//! let topology = Topology::ring(8);
//! let mut swarm = Swarm::new(topology, b"fleet seed")?;
//! swarm.run_until(SimTime::from_secs(120))?;
//! let outcome = swarm.erasmus_collection(0, SimTime::from_secs(120), 4)?;
//! assert_eq!(outcome.coverage(), 1.0);
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

pub mod aggregate;
pub mod error;
pub mod mobility;
pub mod qosa;
pub mod schedule;
pub mod swarm;
pub mod topology;

pub use aggregate::{digest_hex, AggregationStats, AggregationTree, SubtreeAggregate};
pub use error::SwarmError;
pub use mobility::{MobilityModel, MobilitySimulator};
pub use qosa::{DeviceStatus, QosaLevel, SwarmReport};
pub use schedule::StaggeredSchedule;
pub use swarm::{Swarm, SwarmRound};
pub use topology::Topology;
