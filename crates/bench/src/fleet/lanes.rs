//! The group widths of the fleet benchmark's traced replica.
//!
//! The fleet runtime measures every device through the scalar path and
//! never reads [`super::FleetConfig::lanes`]. Only the replica of the
//! runtime in the fleet benchmark (`crates/bench/examples/benchmark`,
//! `pipeline.rs`) still reads it: it maps the bound onto a group width
//! here and hands each group of due devices to
//! [`erasmus_core::Prover::self_measure_batch`], which measures them one
//! at a time. ROADMAP item 2 deletes the replica, and this module with it.

/// The widest of 8 and 4 not exceeding `lanes`, or 1 when `lanes` < 4.
///
/// `lanes` is an upper bound, not an exact width: 6 groups by 4, 32 by 8,
/// and 2 by 1.
pub fn effective_width(lanes: usize) -> usize {
    match lanes {
        8.. => 8,
        4..=7 => 4,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_width_rounds_down_to_supported() {
        assert_eq!(effective_width(1), 1);
        assert_eq!(effective_width(2), 1);
        assert_eq!(effective_width(3), 1);
        assert_eq!(effective_width(4), 4);
        assert_eq!(effective_width(6), 4);
        assert_eq!(effective_width(8), 8);
        assert_eq!(effective_width(64), 8);
    }
}
