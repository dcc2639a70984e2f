//! Deterministic network model: per-flow latency, jitter and loss.
//!
//! ERASMUS collections cross a real network — the paper prices UDP packet
//! transmission (Table 2) and Section 6 reasons about unattended swarms
//! whose links come and go. [`NetworkModel`] gives simulation drivers a
//! reproducible stand-in for that network: every transmission is either
//! delivered after `base_latency` plus a jitter draw, or dropped with the
//! configured loss probability.
//!
//! Determinism is the whole point. A draw depends only on the model's seed,
//! the caller-chosen *flow* identifier (typically a device id, optionally
//! tagged with a channel) and a per-flow *sequence* number — never on the
//! order in which flows are sampled. A fleet harness that partitions its
//! devices over worker threads therefore observes the exact same delivery
//! pattern at any thread count, which is what keeps lossy benchmark runs
//! reproducible and thread-count-invariant.
//!
//! Beyond loss and latency the model can inject three further fault
//! families — **duplication**, **reordering** (as an extra delivery delay)
//! and **byte corruption** — via [`NetworkModel::sample_faults`]. Fault
//! draws live on their own seed stream, so enabling them never perturbs the
//! loss/jitter pattern an existing `(seed, flow, sequence)` run observed:
//! reliability experiments stay comparable against their fault-free
//! baselines bit for bit.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Parameters of a simulated link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Fixed one-way latency added to every delivered transmission.
    pub base_latency: SimDuration,
    /// Upper bound (exclusive) of the uniform jitter added on top of
    /// `base_latency`. Zero disables jitter.
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a transmission is dropped.
    pub loss: f64,
    /// Probability in `[0, 1]` that a transmission is duplicated: the
    /// original arrives normally and an echo copy arrives after an extra
    /// delay drawn from the fault stream.
    pub duplicate: f64,
    /// Probability in `[0, 1]` that a transmission is reordered: it still
    /// arrives, but only after an extra delay drawn from the fault stream,
    /// letting later sequence numbers overtake it.
    pub reorder: f64,
    /// Probability in `[0, 1]` that a transmission arrives with one payload
    /// byte flipped in flight.
    pub corrupt: f64,
}

impl NetworkConfig {
    /// A perfect link: zero latency, zero jitter, zero loss, zero faults.
    pub const IDEAL: NetworkConfig = NetworkConfig {
        base_latency: SimDuration::ZERO,
        jitter: SimDuration::ZERO,
        loss: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        corrupt: 0.0,
    };

    /// Whether the link is perfect — delivery is certain and instantaneous,
    /// so sampling it never consumes randomness.
    pub fn is_ideal(&self) -> bool {
        self.base_latency.is_zero()
            && self.jitter.is_zero()
            && self.loss == 0.0
            && !self.has_faults()
    }

    /// Whether any of the injected-fault probabilities is non-zero.
    pub fn has_faults(&self) -> bool {
        self.duplicate > 0.0 || self.reorder > 0.0 || self.corrupt > 0.0
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self::IDEAL
    }
}

/// Outcome of one transmission through a [`NetworkModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The transmission arrives after this one-way latency.
    Delivered(SimDuration),
    /// The transmission is lost.
    Dropped,
}

/// An in-flight single-byte corruption drawn from the fault stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corruption {
    /// When true the corruption hits framing metadata (lengths, counts) and
    /// the receiver's decoder is expected to reject the whole frame; when
    /// false it hits authenticated payload bytes and should surface as a
    /// MAC/tampering failure instead.
    pub structural: bool,
    /// Non-zero XOR mask applied to the victim byte.
    pub mask: u8,
}

/// The injected-fault draw for one transmission.
///
/// Sampled by [`NetworkModel::sample_faults`] on a seed stream independent
/// of the loss/latency draw, so a clean draw here never changes the fate an
/// existing run observed for the same `(flow, sequence)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDraw {
    /// `Some(extra)` when the transmission is duplicated: the echo copy
    /// arrives `extra` after the original.
    pub duplicate: Option<SimDuration>,
    /// `Some(extra)` when the transmission is reordered: it arrives `extra`
    /// later than its loss/latency draw said, letting successors overtake.
    pub reorder: Option<SimDuration>,
    /// `Some(corruption)` when one payload byte flips in flight.
    pub corrupt: Option<Corruption>,
}

impl FaultDraw {
    /// A draw with no fault injected.
    pub const CLEAN: FaultDraw = FaultDraw {
        duplicate: None,
        reorder: None,
        corrupt: None,
    };
}

/// Deterministic per-flow network model.
///
/// # Example
///
/// ```
/// use erasmus_sim::{Delivery, NetworkConfig, NetworkModel, SimDuration};
///
/// let config = NetworkConfig {
///     base_latency: SimDuration::from_millis(20),
///     jitter: SimDuration::from_millis(10),
///     ..NetworkConfig::IDEAL
/// };
/// let model = NetworkModel::new(config, 42);
/// match model.sample(7, 0) {
///     Delivery::Delivered(latency) => {
///         assert!(latency >= SimDuration::from_millis(20));
///         assert!(latency < SimDuration::from_millis(30));
///     }
///     Delivery::Dropped => unreachable!("loss is zero"),
/// }
/// // Same (flow, sequence) → same draw, regardless of sampling order.
/// assert_eq!(model.sample(7, 0), model.sample(7, 0));
/// ```
#[derive(Debug, Clone)]
pub struct NetworkModel {
    config: NetworkConfig,
    seed: u64,
}

impl NetworkModel {
    /// Creates a model over `config`, with all draws derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a probability in `[0, 1]` or the latency
    /// parameters are not finite (checked implicitly by `SimDuration`).
    pub fn new(config: NetworkConfig, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.loss),
            "loss probability out of range: {}",
            config.loss
        );
        for (name, p) in [
            ("duplicate", config.duplicate),
            ("reorder", config.reorder),
            ("corrupt", config.corrupt),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} probability out of range: {p}"
            );
        }
        Self { config, seed }
    }

    /// Samples the fate of transmission number `sequence` on `flow`.
    ///
    /// The draw is a pure function of `(seed, flow, sequence)`: callers may
    /// sample flows in any order — or from different threads on clones of
    /// the model — and observe identical outcomes. Use distinct flow ids for
    /// distinct logical channels (e.g. `device * 4 + channel`) so their
    /// streams stay independent.
    pub fn sample(&self, flow: u64, sequence: u64) -> Delivery {
        if self.config.is_ideal() {
            return Delivery::Delivered(SimDuration::ZERO);
        }
        let mut rng = SimRng::seed_from(mix3(self.seed, flow, sequence));
        if self.config.loss > 0.0 && rng.gen_bool(self.config.loss) {
            return Delivery::Dropped;
        }
        let jitter = if self.config.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            rng.gen_duration(SimDuration::ZERO, self.config.jitter)
        };
        Delivery::Delivered(self.config.base_latency + jitter)
    }

    /// Samples the injected faults for transmission `sequence` on `flow`.
    ///
    /// Like [`NetworkModel::sample`] this is a pure function of
    /// `(seed, flow, sequence)`, but it runs on a separate seed stream:
    /// turning fault injection on (or off) leaves the loss/latency pattern
    /// of every transmission untouched. With all fault probabilities at
    /// zero it consumes no randomness and returns [`FaultDraw::CLEAN`].
    ///
    /// Draw order is fixed — duplicate, reorder, corrupt — and each draw
    /// only happens when its probability is non-zero, so enabling one fault
    /// family does not shift the draws of another.
    pub fn sample_faults(&self, flow: u64, sequence: u64) -> FaultDraw {
        if !self.config.has_faults() {
            return FaultDraw::CLEAN;
        }
        let mut rng = SimRng::seed_from(mix3(self.seed ^ FAULT_STREAM, flow, sequence));
        let mut draw = FaultDraw::CLEAN;
        if self.config.duplicate > 0.0 && rng.gen_bool(self.config.duplicate) {
            draw.duplicate = Some(self.extra_delay(&mut rng));
        }
        if self.config.reorder > 0.0 && rng.gen_bool(self.config.reorder) {
            draw.reorder = Some(self.extra_delay(&mut rng));
        }
        if self.config.corrupt > 0.0 && rng.gen_bool(self.config.corrupt) {
            draw.corrupt = Some(Corruption {
                structural: rng.next_u64() & 1 == 0,
                mask: (rng.gen_range(1, 256)) as u8,
            });
        }
        draw
    }

    /// Extra delay for duplicated/reordered copies: a uniform draw over
    /// `[span/4, span)` where `span` is four round-trip-ish link delays,
    /// floored at one millisecond so even an otherwise-ideal link reorders
    /// by a visible amount.
    fn extra_delay(&self, rng: &mut SimRng) -> SimDuration {
        let link = self.config.base_latency + self.config.jitter;
        let span = (link * 4).max(SimDuration::from_millis(1));
        rng.gen_duration(span / 4, span)
    }
}

/// Salt separating the injected-fault stream from the loss/latency stream.
const FAULT_STREAM: u64 = 0x6661_756c_7421_7331;

/// SplitMix64-style finalizer: a cheap bijective scrambler with good
/// avalanche, so adjacent (flow, sequence) pairs land on unrelated seeds.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

fn mix3(seed: u64, flow: u64, sequence: u64) -> u64 {
    mix(seed
        .wrapping_add(mix(flow.wrapping_add(0x9e37_79b9_7f4a_7c15)))
        .wrapping_add(mix(sequence.wrapping_add(0x6a09_e667_f3bc_c909))))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(loss: f64) -> NetworkModel {
        NetworkModel::new(
            NetworkConfig {
                base_latency: SimDuration::from_millis(5),
                jitter: SimDuration::from_millis(5),
                loss,
                ..NetworkConfig::IDEAL
            },
            1234,
        )
    }

    fn faulty() -> NetworkModel {
        NetworkModel::new(
            NetworkConfig {
                base_latency: SimDuration::from_millis(5),
                jitter: SimDuration::from_millis(5),
                loss: 0.1,
                duplicate: 0.2,
                reorder: 0.2,
                corrupt: 0.2,
            },
            1234,
        )
    }

    #[test]
    fn ideal_link_is_instant_and_lossless() {
        let model = NetworkModel::new(NetworkConfig::IDEAL, 0);
        assert!(model.config.is_ideal());
        for flow in 0..100 {
            assert_eq!(
                model.sample(flow, 0),
                Delivery::Delivered(SimDuration::ZERO)
            );
        }
    }

    #[test]
    fn draws_are_pure_functions_of_flow_and_sequence() {
        let model = lossy(0.2);
        let forward: Vec<Delivery> = (0..64).map(|f| model.sample(f, 3)).collect();
        let backward: Vec<Delivery> = (0..64).rev().map(|f| model.sample(f, 3)).collect();
        let backward: Vec<Delivery> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        // A clone (as a worker thread would hold) sees the same world.
        let clone = model.clone();
        for flow in 0..64 {
            assert_eq!(model.sample(flow, 3), clone.sample(flow, 3));
        }
    }

    #[test]
    fn latency_respects_base_and_jitter_bounds() {
        let model = lossy(0.0);
        for flow in 0..32 {
            for seq in 0..8 {
                match model.sample(flow, seq) {
                    Delivery::Delivered(latency) => {
                        assert!(latency >= SimDuration::from_millis(5));
                        assert!(latency < SimDuration::from_millis(10));
                    }
                    Delivery::Dropped => panic!("lossless link dropped a packet"),
                }
            }
        }
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let model = lossy(0.25);
        let drops = (0..4000)
            .filter(|&seq| model.sample(seq % 40, seq / 40) == Delivery::Dropped)
            .count();
        let rate = drops as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "observed loss rate {rate}");
    }

    #[test]
    fn distinct_flows_and_seeds_decorrelate() {
        let a = lossy(0.5);
        let b = NetworkModel::new(a.config, 5678);
        let a_flow0: Vec<bool> = (0..64)
            .map(|s| a.sample(0, s) == Delivery::Dropped)
            .collect();
        let a_flow1: Vec<bool> = (0..64)
            .map(|s| a.sample(1, s) == Delivery::Dropped)
            .collect();
        let b_flow0: Vec<bool> = (0..64)
            .map(|s| b.sample(0, s) == Delivery::Dropped)
            .collect();
        assert_ne!(a_flow0, a_flow1);
        assert_ne!(a_flow0, b_flow0);
    }

    #[test]
    fn fault_draws_are_pure_and_do_not_perturb_delivery() {
        let clean = lossy(0.1);
        let faulted = NetworkModel::new(
            NetworkConfig {
                duplicate: 0.2,
                reorder: 0.2,
                corrupt: 0.2,
                ..clean.config
            },
            1234,
        );
        assert!(!clean.config.has_faults());
        assert!(faulted.config.has_faults());
        for flow in 0..64 {
            for seq in 0..4 {
                // Turning faults on never changes the loss/latency fate.
                assert_eq!(clean.sample(flow, seq), faulted.sample(flow, seq));
                // Fault draws are pure functions of (flow, sequence).
                assert_eq!(
                    faulted.sample_faults(flow, seq),
                    faulted.sample_faults(flow, seq)
                );
                // A fault-free model consumes no randomness at all.
                assert_eq!(clean.sample_faults(flow, seq), FaultDraw::CLEAN);
            }
        }
    }

    #[test]
    fn fault_rates_are_roughly_honoured_and_well_formed() {
        let model = faulty();
        let mut duplicated = 0usize;
        let mut reordered = 0usize;
        let mut corrupted = 0usize;
        let total = 4000u64;
        for seq in 0..total {
            let draw = model.sample_faults(seq % 40, seq / 40);
            if let Some(extra) = draw.duplicate {
                duplicated += 1;
                assert!(extra >= SimDuration::from_millis(10));
                assert!(extra < SimDuration::from_millis(40));
            }
            if let Some(extra) = draw.reorder {
                reordered += 1;
                assert!(!extra.is_zero());
            }
            if let Some(corruption) = draw.corrupt {
                corrupted += 1;
                assert_ne!(corruption.mask, 0, "zero mask would be a no-op flip");
            }
        }
        for (name, hits) in [
            ("duplicate", duplicated),
            ("reorder", reordered),
            ("corrupt", corrupted),
        ] {
            let rate = hits as f64 / total as f64;
            assert!((rate - 0.2).abs() < 0.05, "observed {name} rate {rate}");
        }
    }

    #[test]
    fn single_fault_family_draws_are_independent() {
        // Enabling one family must not shift the draws of another: a
        // corrupt-only model and an all-faults model agree on every
        // corruption the corrupt-only model observes... they cannot be
        // compared draw-for-draw (gating changes the rng stream), but the
        // corrupt-only model must still hit roughly its configured rate.
        let corrupt_only = NetworkModel::new(
            NetworkConfig {
                corrupt: 0.2,
                ..NetworkConfig::IDEAL
            },
            1234,
        );
        assert!(!corrupt_only.config.is_ideal());
        let hits = (0..2000)
            .filter(|&seq| corrupt_only.sample_faults(7, seq).corrupt.is_some())
            .count();
        let rate = hits as f64 / 2000.0;
        assert!((rate - 0.2).abs() < 0.05, "observed corrupt rate {rate}");
        // An otherwise-ideal link still reorders by a visible amount.
        let reorder_only = NetworkModel::new(
            NetworkConfig {
                reorder: 1.0,
                ..NetworkConfig::IDEAL
            },
            1,
        );
        let draw = reorder_only.sample_faults(0, 0);
        assert!(draw.reorder.is_some_and(|extra| !extra.is_zero()));
        assert!(draw.duplicate.is_none() && draw.corrupt.is_none());
    }

    #[test]
    #[should_panic(expected = "corrupt probability")]
    fn invalid_fault_probability_panics() {
        let _ = NetworkModel::new(
            NetworkConfig {
                corrupt: -0.2,
                ..NetworkConfig::IDEAL
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_probability_panics() {
        let _ = NetworkModel::new(
            NetworkConfig {
                loss: 1.5,
                ..NetworkConfig::IDEAL
            },
            0,
        );
    }
}
