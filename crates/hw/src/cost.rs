//! Cycle-cost model: converts attestation work into simulated time.
//!
//! The paper's run-time results (Figures 6 and 8, Table 2) are linear in the
//! amount of memory measured, with platform- and algorithm-specific slopes
//! plus fixed per-operation overheads. [`CostModel`] encodes exactly that
//! model using the constants from [`DeviceProfile`], so the benchmark harness
//! can regenerate the paper's curves and tables on simulated hardware.

use erasmus_crypto::MacAlgorithm;
use erasmus_sim::SimDuration;

use crate::profile::DeviceProfile;

/// Converts operation descriptions into [`SimDuration`]s for one device.
///
/// # Example
///
/// ```
/// use erasmus_crypto::MacAlgorithm;
/// use erasmus_hw::{CostModel, DeviceProfile};
///
/// let profile = DeviceProfile::imx6_sabre_lite(10 * 1024 * 1024);
/// let cost = CostModel::new(&profile);
/// let t = cost.measurement(10 * 1024 * 1024, MacAlgorithm::KeyedBlake2s);
/// // Table 2 of the paper reports 285.6 ms for this operation.
/// assert!((t.as_millis_f64() - 285.6).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    profile: DeviceProfile,
}

impl CostModel {
    /// Creates a cost model for the given device profile.
    pub fn new(profile: &DeviceProfile) -> Self {
        Self { profile: *profile }
    }

    /// The underlying profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    fn cycles_to_duration(&self, cycles: f64) -> SimDuration {
        SimDuration::from_secs_f64(cycles / self.profile.clock_hz() as f64)
    }

    /// Time to compute one self-measurement over `memory_bytes` of
    /// application memory with the given MAC.
    ///
    /// This is the cost of the *measurement phase* — identical for ERASMUS
    /// and on-demand attestation, as the paper observes in Figures 6 and 8.
    pub fn measurement(&self, memory_bytes: usize, alg: MacAlgorithm) -> SimDuration {
        let cycles = self.profile.mac_cycles_per_byte(alg) * memory_bytes as f64
            + self.profile.measurement_overhead_cycles() as f64;
        self.cycles_to_duration(cycles)
    }

    /// Time for the prover to authenticate and freshness-check a verifier
    /// request (on-demand and ERASMUS+OD only; plain ERASMUS skips this).
    pub fn verify_request(&self, alg: MacAlgorithm) -> SimDuration {
        let cycles = self.profile.request_auth_overhead_cycles() as f64
            + self.profile.mac_cycles_per_byte(alg) * self.profile.request_bytes() as f64;
        self.cycles_to_duration(cycles)
    }

    /// Time to read `entries` measurements out of the rolling buffer.
    pub fn buffer_read(&self, entries: usize) -> SimDuration {
        let cycles = self.profile.buffer_read_cycles_per_entry() as f64 * entries as f64;
        self.cycles_to_duration(cycles)
    }

    /// Time to construct an outgoing packet carrying `payload_bytes`.
    pub fn construct_packet(&self, payload_bytes: usize) -> SimDuration {
        let cycles = self.profile.packet_construct_cycles() as f64
            + self.profile.packet_per_byte_cycles() * payload_bytes as f64;
        self.cycles_to_duration(cycles)
    }

    /// Time to hand a packet of `payload_bytes` to the network interface.
    pub fn send_packet(&self, payload_bytes: usize) -> SimDuration {
        let cycles = self.profile.packet_send_cycles() as f64
            + self.profile.packet_per_byte_cycles() * payload_bytes as f64;
        self.cycles_to_duration(cycles)
    }

    /// Total prover-side time for an ERASMUS collection of `entries`
    /// measurements totalling `payload_bytes` (buffer read + packet
    /// construction + transmission; no cryptography).
    pub fn erasmus_collection(&self, entries: usize, payload_bytes: usize) -> SimDuration {
        self.buffer_read(entries)
            + self.construct_packet(payload_bytes)
            + self.send_packet(payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msp430() -> CostModel {
        CostModel::new(&DeviceProfile::msp430_8mhz(10 * 1024))
    }

    fn imx6() -> CostModel {
        CostModel::new(&DeviceProfile::imx6_sabre_lite(10 * 1024 * 1024))
    }

    #[test]
    fn measurement_is_linear_in_memory() {
        let cost = msp430();
        let t1 = cost.measurement(1024, MacAlgorithm::HmacSha256);
        let t2 = cost.measurement(2048, MacAlgorithm::HmacSha256);
        let t4 = cost.measurement(4096, MacAlgorithm::HmacSha256);
        // Slope doubles (minus the fixed overhead).
        let slope_a = t2.as_secs_f64() - t1.as_secs_f64();
        let slope_b = (t4.as_secs_f64() - t2.as_secs_f64()) / 2.0;
        assert!((slope_a - slope_b).abs() / slope_a < 1e-9);
    }

    #[test]
    fn msp430_ten_kb_sha256_takes_about_seven_seconds() {
        let t = msp430().measurement(10 * 1024, MacAlgorithm::HmacSha256);
        assert!((t.as_secs_f64() - 7.0).abs() < 0.1, "{t}");
    }

    #[test]
    fn imx6_table2_compute_measurement() {
        let t = imx6().measurement(10 * 1024 * 1024, MacAlgorithm::KeyedBlake2s);
        assert!((t.as_millis_f64() - 285.6).abs() < 1.0, "{t}");
    }

    #[test]
    fn imx6_table2_collection_breakdown() {
        let cost = imx6();
        // Construct UDP packet ≈ 0.003 ms, send ≈ 0.012 ms for a small payload.
        let construct = cost.construct_packet(0);
        let send = cost.send_packet(0);
        assert!(
            (construct.as_millis_f64() - 0.003).abs() < 0.001,
            "{construct}"
        );
        assert!((send.as_millis_f64() - 0.012).abs() < 0.002, "{send}");
        // ERASMUS total collection ≈ 0.015 ms (plus negligible buffer read).
        let total = cost.erasmus_collection(1, 0);
        assert!(total.as_millis_f64() < 0.02, "{total}");
    }

    #[test]
    fn erasmus_od_is_dominated_by_the_fresh_measurement() {
        let cost = imx6();
        // ERASMUS+OD: request authentication and a fresh measurement, then
        // the same read/construct/send path as plain ERASMUS.
        let plain = cost.erasmus_collection(8, 600);
        let od = cost.verify_request(MacAlgorithm::KeyedBlake2s)
            + cost.measurement(10 * 1024 * 1024, MacAlgorithm::KeyedBlake2s)
            + plain;
        // Table 2: 285.6 ms vs 0.015 ms — a factor of well over 3,000.
        assert!(od.as_secs_f64() / plain.as_secs_f64() > 3_000.0);
    }

    #[test]
    fn verify_request_is_cheap_relative_to_measurement() {
        let cost = imx6();
        let verify = cost.verify_request(MacAlgorithm::KeyedBlake2s);
        let measure = cost.measurement(10 * 1024 * 1024, MacAlgorithm::KeyedBlake2s);
        assert!(verify.as_millis_f64() < 0.01, "{verify}");
        assert!(measure.as_secs_f64() > verify.as_secs_f64() * 1_000.0);
    }

    #[test]
    fn blake2s_faster_than_hmac_sha256_on_both_platforms() {
        for cost in [msp430(), imx6()] {
            let blake = cost.measurement(8 * 1024, MacAlgorithm::KeyedBlake2s);
            let hmac = cost.measurement(8 * 1024, MacAlgorithm::HmacSha256);
            assert!(blake < hmac);
        }
    }

    #[test]
    fn on_demand_roughly_equals_erasmus_measurement() {
        // Fig. 6/8: the measurement run-time of ERASMUS and on-demand are
        // roughly equal; the difference is only the request authentication.
        let cost = msp430();
        let erasmus = cost.measurement(10 * 1024, MacAlgorithm::HmacSha256);
        // On-demand: request authentication, a fresh measurement, and one
        // 72-byte result sent back.
        let on_demand = cost.verify_request(MacAlgorithm::HmacSha256)
            + erasmus
            + cost.construct_packet(72)
            + cost.send_packet(72);
        let relative_gap =
            (on_demand.as_secs_f64() - erasmus.as_secs_f64()) / erasmus.as_secs_f64();
        assert!(
            relative_gap > 0.0 && relative_gap < 0.05,
            "gap {relative_gap}"
        );
    }
}
