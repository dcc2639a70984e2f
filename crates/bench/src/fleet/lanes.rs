//! Lane widths for batched measurement hashing.
//!
//! The fleet harness batches same-instant measurements into multi-lane hash
//! jobs (the private `shard` module) through
//! [`erasmus_core::Measurement::compute_keyed_batch`]. This module fixes
//! which widths have a lane-interleaved core behind them and how a
//! requested [`super::FleetConfig::lanes`] bound maps onto one. The
//! `multi_buffer` group of the `mac_throughput` criterion bench prices
//! scalar against 4- and 8-lane hashing.

/// Lane widths with a lane-interleaved core behind them, widest first.
pub const SUPPORTED_WIDTHS: [usize; 2] = [8, 4];

/// The widest supported lane width not exceeding `lanes` (1 = scalar).
///
/// `lanes` is an upper bound, not an exact width: 6 batches in groups of
/// 4, 32 in groups of 8, and 2 falls back to the scalar path.
pub fn effective_width(lanes: usize) -> usize {
    SUPPORTED_WIDTHS
        .into_iter()
        .find(|&width| lanes >= width)
        .unwrap_or(1)
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
