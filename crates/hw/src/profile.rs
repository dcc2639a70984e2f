//! Device profiles: the two evaluation platforms of the paper.
//!
//! * [`DeviceProfile::msp430_8mhz`] — the SMART+ platform: an OpenMSP430
//!   core clocked at 8 MHz (Figure 6, Table 1 left half, Section 4.1).
//! * [`DeviceProfile::imx6_sabre_lite`] — the HYDRA platform: an i.MX6
//!   Sabre Lite at 1 GHz running seL4 (Figure 8, Tables 1 and 2,
//!   Section 4.2).
//!
//! The per-byte MAC costs are calibrated so the reproduced curves match the
//! paper's reported shapes: ~7 s to measure 10 KB with HMAC-SHA256 on the
//! MSP430, and 285.6 ms to measure 10 MB with keyed BLAKE2s on the i.MX6
//! (Table 2).

use std::fmt;

use erasmus_crypto::MacAlgorithm;

/// The hybrid security architecture a device is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityArchitecture {
    /// SMART+ (SMART extended with verifier-request authentication and an
    /// RROC) — ROM-resident attestation code for low-end MCUs.
    SmartPlus,
    /// HYDRA — seL4-based attestation process for medium-end devices with an
    /// MMU.
    Hydra,
}

impl SecurityArchitecture {
    /// Both architectures, in the order of Table 1.
    pub const ALL: [SecurityArchitecture; 2] =
        [SecurityArchitecture::SmartPlus, SecurityArchitecture::Hydra];

    /// Name as used in the paper's tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            SecurityArchitecture::SmartPlus => "SMART+",
            SecurityArchitecture::Hydra => "HYDRA",
        }
    }
}

impl fmt::Display for SecurityArchitecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_name())
    }
}

/// Calibrated performance and size constants of one evaluation platform.
///
/// A profile is a set of constants and a static name, so it is `Copy`:
/// [`Mcu::cost_model`](crate::Mcu::cost_model) copies it and never
/// allocates.
///
/// # Example
///
/// ```
/// use erasmus_hw::{DeviceProfile, SecurityArchitecture};
///
/// let msp430 = DeviceProfile::msp430_8mhz(10 * 1024);
/// assert_eq!(msp430.architecture(), SecurityArchitecture::SmartPlus);
/// assert_eq!(msp430.clock_hz(), 8_000_000);
/// assert_eq!(msp430.app_memory_bytes(), 10 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    name: &'static str,
    architecture: SecurityArchitecture,
    clock_hz: u64,
    app_memory_bytes: usize,
    /// MAC throughput cost in CPU cycles per byte of measured memory.
    hmac_sha1_cycles_per_byte: f64,
    hmac_sha256_cycles_per_byte: f64,
    blake2s_cycles_per_byte: f64,
    /// Fixed per-measurement overhead (MAC of the timestamped digest, buffer
    /// slot write, scheduling bookkeeping), in cycles.
    measurement_overhead_cycles: u64,
    /// Fixed part of verifying an authenticated verifier request (nonce /
    /// freshness check), in cycles; the MAC over the request itself is
    /// charged per byte on top of this.
    request_auth_overhead_cycles: u64,
    /// Size of an authenticated attestation request in bytes.
    request_bytes: usize,
    /// Cycles to construct an outgoing UDP packet.
    packet_construct_cycles: u64,
    /// Cycles to hand a packet to the network interface.
    packet_send_cycles: u64,
    /// Extra cycles per payload byte when constructing/sending.
    packet_per_byte_cycles: f64,
    /// Cycles to read one stored measurement out of the rolling buffer.
    buffer_read_cycles_per_entry: u64,
}

impl DeviceProfile {
    /// The SMART+ evaluation platform: OpenMSP430 at 8 MHz with
    /// `app_memory_bytes` of measured memory (the paper sweeps 0–10 KB).
    pub fn msp430_8mhz(app_memory_bytes: usize) -> Self {
        Self {
            name: "MSP430 @ 8 MHz (SMART+)",
            architecture: SecurityArchitecture::SmartPlus,
            clock_hz: 8_000_000,
            app_memory_bytes,
            // Calibrated: HMAC-SHA256 over 10 KB ≈ 7 s at 8 MHz (Fig. 6 / §5).
            hmac_sha1_cycles_per_byte: 4_800.0,
            hmac_sha256_cycles_per_byte: 5_444.0,
            blake2s_cycles_per_byte: 3_491.0,
            measurement_overhead_cycles: 250_000,
            request_auth_overhead_cycles: 20_000,
            request_bytes: 64,
            packet_construct_cycles: 2_000,
            packet_send_cycles: 8_000,
            packet_per_byte_cycles: 2.0,
            buffer_read_cycles_per_entry: 500,
        }
    }

    /// The HYDRA evaluation platform: i.MX6 Sabre Lite at 1 GHz running seL4
    /// with `app_memory_bytes` of measured memory (the paper sweeps 0–10 MB).
    pub fn imx6_sabre_lite(app_memory_bytes: usize) -> Self {
        Self {
            name: "i.MX6 Sabre Lite @ 1 GHz (HYDRA)",
            architecture: SecurityArchitecture::Hydra,
            clock_hz: 1_000_000_000,
            app_memory_bytes,
            hmac_sha1_cycles_per_byte: 35.0,
            // Calibrated: Fig. 8 shows ~0.5 s for 10 MB with HMAC-SHA256.
            hmac_sha256_cycles_per_byte: 50.0,
            // Calibrated: Table 2 reports 285.6 ms for 10 MB with keyed BLAKE2s.
            blake2s_cycles_per_byte: 27.22,
            measurement_overhead_cycles: 200_000,
            request_auth_overhead_cycles: 1_800,
            request_bytes: 64,
            // Table 2: construct UDP packet 0.003 ms, send UDP packet 0.012 ms.
            packet_construct_cycles: 3_000,
            packet_send_cycles: 12_000,
            packet_per_byte_cycles: 0.5,
            buffer_read_cycles_per_entry: 100,
        }
    }

    /// Returns a copy of the profile with a different measured-memory size
    /// (used by the Figure 6/8 memory sweeps).
    pub fn with_app_memory(&self, app_memory_bytes: usize) -> Self {
        Self {
            app_memory_bytes,
            ..*self
        }
    }

    /// Human-readable platform name.
    pub fn name(&self) -> &str {
        self.name
    }

    /// The security architecture this platform implements.
    pub fn architecture(&self) -> SecurityArchitecture {
        self.architecture
    }

    /// CPU clock frequency in Hz.
    pub fn clock_hz(&self) -> u64 {
        self.clock_hz
    }

    /// Size of the measured application memory in bytes.
    pub fn app_memory_bytes(&self) -> usize {
        self.app_memory_bytes
    }

    /// Cycles per byte for the given MAC algorithm on this platform.
    pub fn mac_cycles_per_byte(&self, alg: MacAlgorithm) -> f64 {
        match alg {
            MacAlgorithm::HmacSha1 => self.hmac_sha1_cycles_per_byte,
            MacAlgorithm::HmacSha256 => self.hmac_sha256_cycles_per_byte,
            MacAlgorithm::KeyedBlake2s => self.blake2s_cycles_per_byte,
        }
    }

    /// Fixed per-measurement overhead in cycles.
    pub fn measurement_overhead_cycles(&self) -> u64 {
        self.measurement_overhead_cycles
    }

    /// Fixed request-authentication overhead in cycles (on-demand and
    /// ERASMUS+OD only).
    pub fn request_auth_overhead_cycles(&self) -> u64 {
        self.request_auth_overhead_cycles
    }

    /// Size of an authenticated attestation request in bytes.
    pub fn request_bytes(&self) -> usize {
        self.request_bytes
    }

    /// Cycles to construct an outgoing packet (before payload-dependent cost).
    pub fn packet_construct_cycles(&self) -> u64 {
        self.packet_construct_cycles
    }

    /// Cycles to hand a packet to the network interface (before
    /// payload-dependent cost).
    pub fn packet_send_cycles(&self) -> u64 {
        self.packet_send_cycles
    }

    /// Extra cycles per payload byte for packet construction/transmission.
    pub fn packet_per_byte_cycles(&self) -> f64 {
        self.packet_per_byte_cycles
    }

    /// Cycles to read one measurement entry from the rolling buffer.
    pub fn buffer_read_cycles_per_entry(&self) -> u64 {
        self.buffer_read_cycles_per_entry
    }
}

impl fmt::Display for DeviceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} B app memory)", self.name, self.app_memory_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msp430_profile_constants() {
        let p = DeviceProfile::msp430_8mhz(10 * 1024);
        assert_eq!(p.architecture(), SecurityArchitecture::SmartPlus);
        assert_eq!(p.clock_hz(), 8_000_000);
        assert_eq!(p.app_memory_bytes(), 10 * 1024);
        assert!(
            p.mac_cycles_per_byte(MacAlgorithm::HmacSha256)
                > p.mac_cycles_per_byte(MacAlgorithm::KeyedBlake2s)
        );
        assert!(p.name().contains("MSP430"));
    }

    #[test]
    fn imx6_profile_constants() {
        let p = DeviceProfile::imx6_sabre_lite(10 * 1024 * 1024);
        assert_eq!(p.architecture(), SecurityArchitecture::Hydra);
        assert_eq!(p.clock_hz(), 1_000_000_000);
        // The 1 GHz platform is orders of magnitude faster per byte.
        assert!(p.mac_cycles_per_byte(MacAlgorithm::HmacSha256) < 100.0);
        assert!(p.to_string().contains("i.MX6"));
    }

    #[test]
    fn with_app_memory_only_changes_size() {
        let base = DeviceProfile::msp430_8mhz(1024);
        let bigger = base.with_app_memory(8192);
        assert_eq!(bigger.app_memory_bytes(), 8192);
        assert_eq!(bigger.clock_hz(), base.clock_hz());
        assert_eq!(bigger.architecture(), base.architecture());
    }

    #[test]
    fn architecture_display() {
        assert_eq!(SecurityArchitecture::SmartPlus.to_string(), "SMART+");
        assert_eq!(SecurityArchitecture::Hydra.to_string(), "HYDRA");
        assert_eq!(SecurityArchitecture::ALL.len(), 2);
    }

    #[test]
    fn msp430_headline_calibration() {
        // §5: "7 seconds on an 8-MHz device with 10KB RAM" (HMAC-SHA256).
        let p = DeviceProfile::msp430_8mhz(10 * 1024);
        let cycles = p.mac_cycles_per_byte(MacAlgorithm::HmacSha256) * (10.0 * 1024.0)
            + p.measurement_overhead_cycles() as f64;
        let seconds = cycles / p.clock_hz() as f64;
        assert!(
            (seconds - 7.0).abs() < 0.1,
            "calibration drifted: {seconds} s"
        );
    }

    #[test]
    fn imx6_headline_calibration() {
        // Table 2: 285.6 ms for 10 MB with keyed BLAKE2s.
        let p = DeviceProfile::imx6_sabre_lite(10 * 1024 * 1024);
        let cycles = p.mac_cycles_per_byte(MacAlgorithm::KeyedBlake2s) * (10.0 * 1024.0 * 1024.0)
            + p.measurement_overhead_cycles() as f64;
        let millis = cycles / p.clock_hz() as f64 * 1e3;
        assert!(
            (millis - 285.6).abs() < 1.0,
            "calibration drifted: {millis} ms"
        );
    }
}
