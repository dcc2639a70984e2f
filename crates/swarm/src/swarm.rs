//! A swarm of ERASMUS provers and its collective attestation protocols.

use std::collections::BTreeSet;

use erasmus_core::{CollectionRequest, DeviceId, DeviceKey, Prover, ProverConfig, Verifier};
use erasmus_crypto::MacAlgorithm;
use erasmus_hw::DeviceProfile;
use erasmus_sim::{SimDuration, SimTime};

use crate::error::SwarmError;
use crate::mobility::MobilitySimulator;
use crate::qosa::{DeviceStatus, SwarmReport};
use crate::topology::Topology;

/// Application memory of every swarm member, in bytes (an MSP430 @ 8 MHz
/// with 4 KiB).
const MEMORY_BYTES: usize = 4 * 1024;
/// The MAC every swarm measurement is keyed with.
const MAC: MacAlgorithm = MacAlgorithm::HmacSha256;
/// Measurement interval `T_M` of every device.
const MEASUREMENT_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// Rolling-buffer slots per device.
const BUFFER_SLOTS: usize = 16;
/// Per-hop relay latency of the collection protocol (LISA-α style
/// forwarding of stored measurements).
const HOP_LATENCY: SimDuration = SimDuration::from_millis(5);

/// Outcome of one collective attestation round: an ERASMUS collection or
/// an on-demand round.
#[derive(Debug, Clone)]
pub struct SwarmRound {
    /// Per-device report.
    pub report: SwarmReport,
    /// Total wall-clock duration of the round: relaying for an ERASMUS
    /// collection, dominated by the per-device measurement computation for
    /// an on-demand round.
    pub duration: SimDuration,
    /// Total prover-side computation across the swarm (negligible for an
    /// ERASMUS collection: no cryptography in the collection phase).
    pub total_prover_time: SimDuration,
    /// Devices whose response never reached the verifier: unreachable when
    /// the round started or, on demand, disconnected by mobility before it
    /// finished.
    pub unreachable: BTreeSet<usize>,
}

impl SwarmRound {
    /// Fraction of the swarm successfully attested.
    pub fn coverage(&self) -> f64 {
        self.report.coverage()
    }
}

/// A fleet of ERASMUS provers connected by a [`Topology`].
///
/// Device `0..n` map to topology nodes `0..n`; the verifier is assumed to be
/// attached to one node (the *root* of each collection). Each device has its
/// own key derived from a deployment master seed, and the verifier holds all
/// of them — the same trust model as SEDA/LISA. Every device is an MSP430
/// @ 8 MHz with 4 KiB of application memory, measuring with HMAC-SHA256
/// every `T_M` = 10 s into a 16-slot buffer; the collection relay costs
/// 5 ms per hop.
#[derive(Debug)]
pub struct Swarm {
    topology: Topology,
    provers: Vec<Prover>,
    verifiers: Vec<Verifier>,
}

impl Swarm {
    /// Builds a swarm with one prover per topology node, deriving per-device
    /// keys from `master_seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::EmptySwarm`] for an empty topology and
    /// propagates per-device provisioning errors.
    pub fn new(topology: Topology, master_seed: &[u8]) -> Result<Self, SwarmError> {
        if topology.is_empty() {
            return Err(SwarmError::EmptySwarm);
        }
        let mut provers = Vec::with_capacity(topology.len());
        let mut verifiers = Vec::with_capacity(topology.len());
        for index in 0..topology.len() {
            let key = DeviceKey::derive(master_seed, index as u64);
            let prover_config = ProverConfig::builder()
                .mac_algorithm(MAC)
                .measurement_interval(MEASUREMENT_INTERVAL)
                .buffer_slots(BUFFER_SLOTS)
                .build()
                .map_err(|source| SwarmError::Device { index, source })?;
            let prover = Prover::new(
                DeviceId::new(index as u64),
                DeviceProfile::msp430_8mhz(MEMORY_BYTES),
                key.clone(),
                prover_config,
            )
            .map_err(|source| SwarmError::Device { index, source })?;
            let mut verifier = Verifier::new(key, MAC);
            verifier.learn_reference_image(prover.mcu().app_memory());
            verifier.set_expected_interval(MEASUREMENT_INTERVAL);
            provers.push(prover);
            verifiers.push(verifier);
        }
        Ok(Self {
            topology,
            provers,
            verifiers,
        })
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.provers.len()
    }

    /// Whether the swarm has no devices (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.provers.is_empty()
    }

    /// The current topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable access to the topology (e.g. to apply mobility between
    /// collection rounds).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// Immutable access to one device.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::UnknownDevice`] for out-of-range indices.
    pub fn prover(&self, index: usize) -> Result<&Prover, SwarmError> {
        self.provers.get(index).ok_or(SwarmError::UnknownDevice {
            index,
            size: self.provers.len(),
        })
    }

    /// Advances every device to `horizon`, letting scheduled self-
    /// measurements fire.
    ///
    /// # Errors
    ///
    /// Propagates the first per-device failure.
    pub fn run_until(&mut self, horizon: SimTime) -> Result<(), SwarmError> {
        for (index, prover) in self.provers.iter_mut().enumerate() {
            prover
                .run_until(horizon)
                .map_err(|source| SwarmError::Device { index, source })?;
        }
        Ok(())
    }

    /// ERASMUS swarm collection (Section 6): the verifier, attached at
    /// `root`, floods a collection request; every reachable device answers
    /// with its latest `k` stored measurements, relayed hop by hop. No
    /// cryptographic work happens on any prover.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::UnknownDevice`] if `root` is out of range.
    pub fn erasmus_collection(
        &mut self,
        root: usize,
        now: SimTime,
        k: usize,
    ) -> Result<SwarmRound, SwarmError> {
        if root >= self.provers.len() {
            return Err(SwarmError::UnknownDevice {
                index: root,
                size: self.provers.len(),
            });
        }
        let reachable = self.topology.reachable_from(root);
        let distances = self.topology.hop_distances(root);
        let mut statuses = Vec::with_capacity(self.provers.len());
        let mut unreachable = BTreeSet::new();
        let mut total_prover_time = SimDuration::ZERO;
        let mut max_hops = 0usize;

        for (index, &distance) in distances.iter().enumerate() {
            if !reachable.contains(&index) {
                statuses.push((index, DeviceStatus::Unreachable));
                unreachable.insert(index);
                continue;
            }
            max_hops = max_hops.max(distance.unwrap_or(0));
            let response =
                self.provers[index].handle_collection(&CollectionRequest::latest(k), now);
            total_prover_time += response.prover_time;
            let status = match self.verifiers[index].verify_collection(&response, now) {
                Ok(report) => DeviceStatus::from_verdict(report.verdict()),
                Err(_) => DeviceStatus::Compromised,
            };
            statuses.push((index, status));
        }

        // The round finishes once the farthest response has been relayed
        // back: two traversals of the deepest path plus the (tiny) per-device
        // serving time.
        let duration = HOP_LATENCY * (2 * max_hops) as u64 + total_prover_time;
        Ok(SwarmRound {
            report: SwarmReport::from_statuses(statuses),
            duration,
            total_prover_time,
            unreachable,
        })
    }

    /// On-demand (SEDA-style) swarm attestation baseline: the request floods
    /// from `root`, every device computes a *fresh* measurement, and the
    /// responses are gathered back. The round takes at least one full
    /// measurement computation, during which `mobility` keeps rewiring the
    /// topology; a device's response only counts if the device is still
    /// connected to the root when the responses are gathered.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::UnknownDevice`] if `root` is out of range and
    /// propagates per-device protocol errors.
    pub fn on_demand_attestation(
        &mut self,
        root: usize,
        now: SimTime,
        mobility: &mut MobilitySimulator,
    ) -> Result<SwarmRound, SwarmError> {
        if root >= self.provers.len() {
            return Err(SwarmError::UnknownDevice {
                index: root,
                size: self.provers.len(),
            });
        }
        let reachable_at_request = self.topology.reachable_from(root);
        let distances = self.topology.hop_distances(root);
        let mut max_hops = 0usize;
        let mut total_prover_time = SimDuration::ZERO;
        let mut fresh_results: Vec<Option<DeviceStatus>> = vec![None; self.provers.len()];

        for index in 0..self.provers.len() {
            if !reachable_at_request.contains(&index) {
                continue;
            }
            max_hops = max_hops.max(distances[index].unwrap_or(0));
            let request = self.verifiers[index].make_on_demand_request(0, now);
            let response = self.provers[index]
                .handle_on_demand(&request, now)
                .map_err(|source| SwarmError::Device { index, source })?;
            total_prover_time += response.prover_time;
            let status = match self.verifiers[index].verify_on_demand(&request, &response, now) {
                Ok(report) => DeviceStatus::from_verdict(report.verdict()),
                Err(_) => DeviceStatus::Compromised,
            };
            fresh_results[index] = Some(status);
        }

        // The protocol holds the spanning tree for the duration of the
        // slowest device's computation plus the relay back; mobility keeps
        // acting during that window. SEDA-style protocols need the tree to
        // stay intact, so a device only delivers its report if it remains
        // connected to the root through every mobility epoch of the round.
        let measurement_time = self.provers[root]
            .mcu()
            .cost_model()
            .measurement(MEMORY_BYTES, MAC);
        let duration = measurement_time + HOP_LATENCY * (2 * max_hops) as u64;
        let mut connected_throughout = reachable_at_request.clone();
        for _ in 0..mobility.model().epochs_during(duration) {
            mobility.step(&mut self.topology);
            let reachable_now = self.topology.reachable_from(root);
            connected_throughout.retain(|node| reachable_now.contains(node));
        }

        let mut statuses = Vec::with_capacity(self.provers.len());
        let mut unreachable = BTreeSet::new();
        for (index, fresh) in fresh_results.iter().enumerate() {
            match *fresh {
                Some(status) if connected_throughout.contains(&index) => {
                    statuses.push((index, status));
                }
                _ => {
                    statuses.push((index, DeviceStatus::Unreachable));
                    unreachable.insert(index);
                }
            }
        }

        Ok(SwarmRound {
            report: SwarmReport::from_statuses(statuses),
            duration,
            total_prover_time,
            unreachable,
        })
    }

    /// Convenience for experiments: infects one device by writing a payload
    /// into its application memory (persistent compromise).
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::UnknownDevice`] for out-of-range indices.
    pub fn infect_device(&mut self, index: usize, now: SimTime) -> Result<(), SwarmError> {
        let size = self.provers.len();
        let prover = self
            .provers
            .get_mut(index)
            .ok_or(SwarmError::UnknownDevice { index, size })?;
        prover.mcu_mut().advance_time_to(now);
        prover
            .mcu_mut()
            .write_app_memory(0, b"swarm malware payload")
            .map_err(|err| SwarmError::Device {
                index,
                source: err.into(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::MobilityModel;
    use erasmus_sim::SimRng;

    fn swarm(nodes: usize) -> Swarm {
        Swarm::new(Topology::ring(nodes), b"test fleet").expect("swarm builds")
    }

    #[test]
    fn construction_and_accessors() {
        let swarm = swarm(6);
        assert_eq!(swarm.len(), 6);
        assert!(!swarm.is_empty());
        assert!(swarm.prover(0).is_ok());
        assert!(swarm.prover(6).is_err());
        assert_eq!(swarm.topology().len(), 6);
        assert_eq!(swarm.prover(0).expect("device").buffer().capacity(), 16);
    }

    #[test]
    fn empty_topology_rejected() {
        assert!(matches!(
            Swarm::new(Topology::new(0), b"seed"),
            Err(SwarmError::EmptySwarm)
        ));
    }

    #[test]
    fn devices_have_distinct_keys() {
        let mut swarm = swarm(3);
        swarm.run_until(SimTime::from_secs(10)).expect("run");
        let m0 = swarm
            .prover(0)
            .expect("device")
            .buffer()
            .most_recent()
            .expect("m")
            .clone();
        let m1 = swarm
            .prover(1)
            .expect("device")
            .buffer()
            .most_recent()
            .expect("m")
            .clone();
        // Same memory contents and timestamp, different keys → different tags.
        assert_eq!(m0.digest(), m1.digest());
        assert_ne!(m0.tag(), m1.tag());
    }

    #[test]
    fn healthy_connected_swarm_has_full_coverage() {
        let mut swarm = swarm(8);
        swarm.run_until(SimTime::from_secs(60)).expect("run");
        let outcome = swarm
            .erasmus_collection(0, SimTime::from_secs(60), 4)
            .expect("collection");
        assert_eq!(outcome.coverage(), 1.0);
        assert!(outcome.report.swarm_healthy());
        assert!(outcome.unreachable.is_empty());
        // Collection is fast: well under a second for an 8-device ring.
        assert!(
            outcome.duration < SimDuration::from_secs(1),
            "{}",
            outcome.duration
        );
    }

    #[test]
    fn compromised_device_is_flagged_in_swarm_report() {
        let mut swarm = swarm(5);
        swarm.run_until(SimTime::from_secs(20)).expect("run");
        swarm
            .infect_device(3, SimTime::from_secs(25))
            .expect("infect");
        swarm.run_until(SimTime::from_secs(60)).expect("run");
        let outcome = swarm
            .erasmus_collection(0, SimTime::from_secs(60), 6)
            .expect("collection");
        assert!(!outcome.report.swarm_healthy());
        assert_eq!(outcome.report.unhealthy_devices(), vec![3]);
        assert_eq!(outcome.report.status(3), Some(DeviceStatus::Compromised));
    }

    #[test]
    fn partitioned_devices_are_unreachable() {
        let mut swarm = swarm(6);
        swarm.run_until(SimTime::from_secs(30)).expect("run");
        // Cut node 3 off entirely.
        swarm.topology_mut().remove_link(2, 3);
        swarm.topology_mut().remove_link(3, 4);
        let outcome = swarm
            .erasmus_collection(0, SimTime::from_secs(30), 3)
            .expect("collection");
        assert_eq!(outcome.report.status(3), Some(DeviceStatus::Unreachable));
        assert!(outcome.coverage() < 1.0);
        assert!(outcome.unreachable.contains(&3));
    }

    #[test]
    fn on_demand_round_is_much_slower_than_erasmus_collection() {
        let mut swarm = swarm(6);
        swarm.run_until(SimTime::from_secs(60)).expect("run");
        let erasmus = swarm
            .erasmus_collection(0, SimTime::from_secs(60), 4)
            .expect("collection");
        let mut mobility = MobilitySimulator::new(MobilityModel::Static, SimRng::seed_from(1));
        let on_demand = swarm
            .on_demand_attestation(0, SimTime::from_secs(61), &mut mobility)
            .expect("attestation");
        assert_eq!(on_demand.coverage(), 1.0);
        // The on-demand round is dominated by the fresh measurement (seconds
        // on the MSP430 profile); the ERASMUS collection is milliseconds.
        assert!(on_demand.duration.as_secs_f64() / erasmus.duration.as_secs_f64() > 50.0);
        assert!(on_demand.total_prover_time > erasmus.total_prover_time);
    }

    #[test]
    fn mobility_hurts_on_demand_but_not_erasmus_collection() {
        let mut rng = SimRng::seed_from(42);
        let topology = Topology::random_connected(24, 3.0, &mut rng);
        let mut swarm = Swarm::new(topology, b"mobile fleet").expect("swarm builds");
        swarm.run_until(SimTime::from_secs(60)).expect("run");

        // High churn: every device rewires every 100 ms on average.
        let model = MobilityModel::churn(SimDuration::from_millis(100), 0.6);
        let mut mobility = MobilitySimulator::new(model, SimRng::seed_from(7));

        let erasmus = swarm
            .erasmus_collection(0, SimTime::from_secs(60), 6)
            .expect("collection");
        let on_demand = swarm
            .on_demand_attestation(0, SimTime::from_secs(61), &mut mobility)
            .expect("attestation");

        assert!(
            erasmus.coverage() > 0.95,
            "erasmus coverage {}",
            erasmus.coverage()
        );
        assert!(
            on_demand.coverage() < erasmus.coverage(),
            "on-demand {} vs erasmus {}",
            on_demand.coverage(),
            erasmus.coverage()
        );
    }
}
