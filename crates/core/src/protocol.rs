//! Protocol messages: ERASMUS collection (Figure 2), ERASMUS+OD (Figure 4),
//! classic on-demand attestation, and the ARQ retry policy that keeps
//! collection reports alive on faulty links.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::as_conversions
)]

use erasmus_crypto::{KeyedMac, MacTag};
use erasmus_sim::{SimDuration, SimTime};

use crate::ids::DeviceId;
use crate::measurement::Measurement;

/// Verifier → prover: "send me your latest `k` measurements" (Figure 2).
///
/// The request carries no authentication on purpose: the ERASMUS collection
/// phase triggers no computation on the prover, so there is no computational
/// DoS to defend against (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollectionRequest {
    /// Number of most-recent measurements requested.
    pub k: usize,
}

impl CollectionRequest {
    /// Requests the `k` latest measurements.
    pub fn latest(k: usize) -> Self {
        Self { k }
    }

    /// Requests the prover's entire buffer (`k = n` after clamping).
    pub fn all() -> Self {
        Self { k: usize::MAX }
    }
}

/// Prover → verifier: the measurements read out of the rolling buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectionResponse {
    /// Which device answered.
    pub device: DeviceId,
    /// Measurements, newest first (at most `min(k, n)` of them).
    pub measurements: Vec<Measurement>,
    /// Prover-side time spent serving the request (buffer read + packet
    /// construction + transmission). With plain ERASMUS this is negligible —
    /// Table 2 reports 0.015 ms.
    pub prover_time: SimDuration,
}

impl CollectionResponse {
    /// Total payload bytes on the wire.
    pub fn payload_bytes(&self) -> usize {
        self.measurements.iter().map(Measurement::wire_size).sum()
    }

    /// The most recent measurement carried in the response, if any.
    pub fn most_recent(&self) -> Option<&Measurement> {
        self.measurements.iter().max_by_key(|m| m.timestamp())
    }
}

/// Verifier → prover: authenticated on-demand request (SMART+ style), also
/// the first message of ERASMUS+OD (Figure 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnDemandRequest {
    /// Verifier timestamp `t_req`, checked for freshness against the RROC.
    pub treq: SimTime,
    /// Number of buffered measurements to return alongside the fresh one
    /// (zero for a pure on-demand attestation).
    pub k: usize,
    /// `MAC_K(t_req, k)` proving the request comes from the verifier.
    pub tag: MacTag,
}

impl OnDemandRequest {
    /// Canonical MAC input for the request, built on the stack: the
    /// big-endian request timestamp followed by `k` as a big-endian u64.
    fn mac_input(treq: SimTime, k: usize) -> [u8; 16] {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = treq.as_nanos().to_be_bytes();
        let [k0, k1, k2, k3, k4, k5, k6, k7] = u64::try_from(k).unwrap_or(u64::MAX).to_be_bytes();
        [
            t0, t1, t2, t3, t4, t5, t6, t7, k0, k1, k2, k3, k4, k5, k6, k7,
        ]
    }

    /// Builds an authenticated request from the verifier's precomputed key
    /// schedule, as [`crate::Verifier::make_on_demand_request`] does.
    pub fn new_keyed(keyed: &KeyedMac, treq: SimTime, k: usize) -> Self {
        let tag = keyed.mac(&Self::mac_input(treq, k));
        Self { treq, k, tag }
    }

    /// Verifies the request MAC against the prover's precomputed key
    /// schedule (done inside its trusted code).
    pub fn verify_keyed(&self, keyed: &KeyedMac) -> bool {
        keyed.verify(&Self::mac_input(self.treq, self.k), &self.tag)
    }
}

/// Prover → verifier: the ERASMUS+OD response (Figure 4): a fresh on-demand
/// measurement `M_0` plus the `k` most recent buffered measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnDemandResponse {
    /// Which device answered.
    pub device: DeviceId,
    /// The freshly computed measurement `M_0`.
    pub fresh: Measurement,
    /// Buffered history, newest first (empty for pure on-demand).
    pub history: Vec<Measurement>,
    /// Prover-side time spent serving the request; dominated by computing
    /// `M_0` (Table 2 reports 285.6 ms on the i.MX6 for 10 MB / BLAKE2s).
    pub prover_time: SimDuration,
}

impl OnDemandResponse {
    /// Total payload bytes on the wire.
    pub fn payload_bytes(&self) -> usize {
        self.fresh.wire_size()
            + self
                .history
                .iter()
                .map(Measurement::wire_size)
                .sum::<usize>()
    }
}

/// ARQ retransmission policy: a bounded retry budget with exponential
/// backoff.
///
/// ERASMUS evidence is produced on a schedule whether or not the network
/// cooperates (Section 3), so a lost collection report is pure information
/// loss. Senders that hold evidence therefore retransmit un-acknowledged
/// transmissions: attempt `n` waits `base_backoff << n` (plus caller-drawn
/// jitter) before retrying, and gives up for good once `budget` retries are
/// exhausted. The policy itself is deterministic — all jitter comes from the
/// caller's seeded network model, which keeps fleet simulations
/// thread-count-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of *re*transmissions after the initial attempt. Zero
    /// disables ARQ entirely.
    pub budget: u32,
    /// Backoff before the first retransmission; doubles on every further
    /// attempt.
    pub base_backoff: SimDuration,
}

impl RetryPolicy {
    /// Default backoff before the first retransmission (100 ms — an order of
    /// magnitude above typical link latency, two below the measurement
    /// interval).
    pub const DEFAULT_BACKOFF: SimDuration = SimDuration::from_millis(100);

    /// ARQ disabled: transmissions are attempted exactly once.
    pub const DISABLED: RetryPolicy = RetryPolicy {
        budget: 0,
        base_backoff: Self::DEFAULT_BACKOFF,
    };

    /// A policy allowing `budget` retransmissions with the default backoff.
    pub fn with_budget(budget: u32) -> Self {
        Self {
            budget,
            base_backoff: Self::DEFAULT_BACKOFF,
        }
    }

    /// Whether any retransmission is allowed at all.
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Whether a transmission that already failed `attempt + 1` times may be
    /// retried (attempts are numbered from zero).
    pub fn allows_retry(&self, attempt: u32) -> bool {
        attempt < self.budget
    }

    /// Backoff before retransmission number `attempt + 1`: exponential in
    /// the attempt index, with the shift saturated so absurd budgets cannot
    /// overflow.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = attempt.min(16);
        SimDuration::from_nanos(self.base_backoff.as_nanos().saturating_mul(1 << shift))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::DISABLED
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasmus_crypto::{Digest, MacAlgorithm, Sha256};

    const KEY: [u8; 32] = [5u8; 32];

    fn request(treq: SimTime, k: usize) -> OnDemandRequest {
        OnDemandRequest::new_keyed(&MacAlgorithm::HmacSha256.with_key(&KEY), treq, k)
    }

    #[test]
    fn collection_request_constructors() {
        assert_eq!(CollectionRequest::latest(3).k, 3);
        assert_eq!(CollectionRequest::all().k, usize::MAX);
    }

    #[test]
    fn on_demand_request_roundtrip() {
        let req = request(SimTime::from_secs(100), 5);
        assert!(req.verify_keyed(&MacAlgorithm::HmacSha256.with_key(&KEY)));
        assert!(!req.verify_keyed(&MacAlgorithm::HmacSha256.with_key(&[0u8; 32])));
    }

    #[test]
    fn request_tag_is_the_oneshot_mac_of_big_endian_time_then_k() {
        // The wire-level MAC input, built by hand: `t_req` as big-endian
        // nanoseconds, then `k` as a big-endian u64.
        let treq = SimTime::from_nanos(0x0102_0304_0506_0708);
        let input = [1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0x0a, 0x0b];
        for alg in MacAlgorithm::ALL {
            let req = OnDemandRequest::new_keyed(&alg.with_key(&KEY), treq, 0x0a0b);
            assert_eq!(req.tag, alg.mac(&KEY, &input), "{alg}");
            assert_eq!((req.treq, req.k), (treq, 0x0a0b), "{alg}");
        }
    }

    #[test]
    fn on_demand_request_binds_k_and_timestamp() {
        let keyed = MacAlgorithm::HmacSha256.with_key(&KEY);
        let req = request(SimTime::from_secs(100), 5);
        // Replaying the tag with different parameters fails.
        let altered_k = OnDemandRequest {
            k: 6,
            ..req.clone()
        };
        assert!(!altered_k.verify_keyed(&keyed));
        let altered_t = OnDemandRequest {
            treq: SimTime::from_secs(101),
            ..req
        };
        assert!(!altered_t.verify_keyed(&keyed));
    }

    #[test]
    fn response_payload_accounting() {
        let keyed = MacAlgorithm::HmacSha256.with_key(&KEY);
        let measure = |secs, memory: &[u8]| {
            Measurement::from_digest_keyed(&keyed, SimTime::from_secs(secs), Sha256::digest(memory))
        };
        let (m1, m2) = (measure(1, b"a"), measure(2, b"b"));
        let response = CollectionResponse {
            device: DeviceId::new(1),
            measurements: vec![m2.clone(), m1.clone()],
            prover_time: SimDuration::from_micros(15),
        };
        assert_eq!(response.payload_bytes(), m1.wire_size() + m2.wire_size());
        assert_eq!(
            response.most_recent().map(|m| m.timestamp()),
            Some(SimTime::from_secs(2))
        );

        let od = OnDemandResponse {
            device: DeviceId::new(1),
            fresh: m2.clone(),
            history: vec![m1.clone()],
            prover_time: SimDuration::from_millis(285),
        };
        assert_eq!(od.payload_bytes(), m1.wire_size() + m2.wire_size());
    }

    #[test]
    fn retry_policy_backoff_is_exponential_and_bounded() {
        let policy = RetryPolicy::with_budget(3);
        assert!(policy.enabled());
        assert!(policy.allows_retry(0));
        assert!(policy.allows_retry(2));
        assert!(!policy.allows_retry(3));
        assert_eq!(policy.backoff(0), RetryPolicy::DEFAULT_BACKOFF);
        assert_eq!(policy.backoff(1), RetryPolicy::DEFAULT_BACKOFF * 2);
        assert_eq!(policy.backoff(3), RetryPolicy::DEFAULT_BACKOFF * 8);
        // The shift saturates instead of overflowing on absurd attempts.
        assert_eq!(policy.backoff(200), policy.backoff(16));
        assert!(!RetryPolicy::DISABLED.enabled());
        assert!(!RetryPolicy::DISABLED.allows_retry(0));
        assert_eq!(RetryPolicy::default(), RetryPolicy::DISABLED);
    }

    #[test]
    fn empty_collection_response() {
        let response = CollectionResponse {
            device: DeviceId::new(9),
            measurements: Vec::new(),
            prover_time: SimDuration::ZERO,
        };
        assert_eq!(response.payload_bytes(), 0);
        assert!(response.most_recent().is_none());
    }
}
