//! Deterministic discrete-event simulation engine for the ERASMUS
//! reproduction.
//!
//! The paper's evaluation reasons about *timelines*: when measurements are
//! taken (every `T_M`), when collections happen (every `T_C`), when mobile
//! malware enters and leaves, and how long each operation takes on a given
//! device (Figures 1, 6, 8; Table 2). This crate provides the time base and
//! event machinery those experiments run on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//!   A device's clock is its `Rroc` in `erasmus-hw`; code that drives a
//!   device by hand counts time in `SimTime`.
//! * [`Engine`] — a discrete-event scheduler on a binary heap delivering
//!   [`ScheduledEvent`]s in `(time, sequence)` order. Events own their
//!   payloads; the heap moves them in and out by value.
//! * [`Trace`] — an append-only record of what happened and when, used by
//!   the scenario runner and by the `repro` harness to print timelines.
//! * [`SimRng`] — a small deterministic RNG for workload generation
//!   (malware dwell times, mobility), so every experiment is reproducible
//!   from a seed.
//! * [`NetworkModel`] — deterministic per-flow latency/jitter/loss, so the
//!   collection links of a fleet experiment can be lossy while every run
//!   stays reproducible from its seed.
//!
//! # Example
//!
//! ```
//! use erasmus_sim::{Engine, SimTime};
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule_at(SimTime::from_secs(5), "measurement");
//! engine.schedule_at(SimTime::from_secs(2), "boot");
//! let mut order = Vec::new();
//! engine.run_with(&mut order, |_, order, event| {
//!     order.push((event.time.as_secs_f64(), event.payload));
//!     true
//! });
//! assert_eq!(order, vec![(2.0, "boot"), (5.0, "measurement")]);
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

pub mod engine;
pub mod network;
pub mod rng;
pub mod time;
pub mod trace;

pub use engine::{Engine, QueueStats, ScheduledEvent};
pub use network::{Corruption, Delivery, FaultDraw, NetworkConfig, NetworkModel};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEntry};
