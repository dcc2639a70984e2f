//! Experiment definitions shared by the `repro` binary and the Criterion
//! benches.
//!
//! Every table and figure of the paper's evaluation has a function here that
//! produces its rows/series from the reproduction. The `repro` binary prints
//! them (see the README's "Reproducing the paper's evaluation" section), and
//! the benches in `benches/` time the underlying operations.

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
#![deny(clippy::disallowed_types)]
#![warn(missing_docs)]

pub mod buffer_sizing;
pub mod fig1;
pub mod fleet;
pub mod hwcost;
pub mod protocol_figures;
pub mod qoa_sweep;
pub mod runtime;
pub mod scheduling;
pub mod swarm_mobility;
pub mod table1;
pub mod table2;

/// Formats a floating-point seconds value the way the paper's figures label
/// their axes.
pub fn fmt_seconds(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.3} us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(0.0000005), "0.500 us");
        assert_eq!(fmt_seconds(0.0025), "2.500 ms");
        assert_eq!(fmt_seconds(7.0), "7.000 s");
    }
}
