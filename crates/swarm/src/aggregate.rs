//! Hierarchical aggregation of per-device attestation state (SANA /
//! slimIoT style).
//!
//! A million-device fleet cannot funnel per-device reports into one root
//! verifier. Instead, sub-verifiers each summarise a subtree of devices —
//! device count, healthy count, lifetime entries and one 32-byte digest
//! folded over the subtree's hash-chain heads — and the root folds those
//! fixed-size aggregates. The root digest is a pure function of the
//! per-device head digests in device-id order, so it is invariant to how
//! the fleet was sharded, merged or snapshot-restored, and it changes if
//! any single device timeline is tampered with.
//!
//! The tree is a balanced bottom-up k-ary fold: level 0 holds one leaf
//! aggregate per device, each level above folds up to `fanout` children
//! into one node, and the last level is the root. Aggregation work is
//! O(devices) with depth O(log_fanout devices).

use erasmus_core::{DeviceId, VerifierHub};
use erasmus_crypto::{Digest, Sha256};

/// Domain-separation prefix for leaf digests.
const LEAF_TAG: u8 = 0x00;
/// Domain-separation prefix for internal-node digests.
const NODE_TAG: u8 = 0x01;

/// Fixed-size summary of a subtree: what a sub-verifier hands upward
/// instead of its devices' individual reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubtreeAggregate {
    /// Devices in the subtree.
    pub devices: u64,
    /// Devices in the subtree with no compromise evidence.
    pub healthy_devices: u64,
    /// Lifetime history entries across the subtree.
    pub entries: u64,
    /// Digest folded over the subtree's children (leaf digests at the
    /// bottom, child aggregates above).
    pub digest: [u8; 32],
}

impl SubtreeAggregate {
    /// The leaf of one device: its identity and hash-chain head (the chain
    /// folded over the retained window) under the leaf tag, whether it has
    /// never shown a compromised or forged measurement, and its lifetime
    /// history entries.
    fn leaf(device: DeviceId, head: &[u8; 32], healthy: bool, entries: u64) -> SubtreeAggregate {
        let mut hasher = Sha256::new();
        hasher.update(&[LEAF_TAG]);
        hasher.update(&device.value().to_be_bytes());
        hasher.update(head);
        SubtreeAggregate {
            devices: 1,
            healthy_devices: u64::from(healthy),
            entries,
            digest: hasher.finalize(),
        }
    }

    fn fold(children: &[SubtreeAggregate]) -> SubtreeAggregate {
        let mut hasher = Sha256::new();
        hasher.update(&[NODE_TAG]);
        let mut devices = 0u64;
        let mut healthy_devices = 0u64;
        let mut entries = 0u64;
        for child in children {
            hasher.update(&child.digest);
            devices += child.devices;
            healthy_devices += child.healthy_devices;
            entries += child.entries;
        }
        SubtreeAggregate {
            devices,
            healthy_devices,
            entries,
            digest: hasher.finalize(),
        }
    }
}

/// Shape statistics for a built [`AggregationTree`], reported in each fleet
/// run's aggregation summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggregationStats {
    /// Leaf count (one per device).
    pub leaves: usize,
    /// Total nodes across all levels, leaves included.
    pub nodes: usize,
    /// Number of levels, leaves included (0 for an empty tree).
    pub depth: usize,
    /// Maximum children folded into one node.
    pub fanout: usize,
}

/// A balanced k-ary aggregation tree over a fleet's per-device state.
#[derive(Debug, Clone)]
pub struct AggregationTree {
    fanout: usize,
    /// `levels[0]` holds the leaf aggregates; each following level folds
    /// the one below; the last level holds exactly the root.
    levels: Vec<Vec<SubtreeAggregate>>,
}

impl AggregationTree {
    /// Builds the tree over leaf aggregates already computed, in device
    /// order; they become level 0. Sub-verifiers that each hold a contiguous
    /// slice of the fleet can hand up their hub's
    /// [`AggregationTree::leaf_aggregates`] and drop the hub: concatenated
    /// in device order, the slices build the same tree as
    /// [`AggregationTree::from_hub`] over the union of the hubs. A fanout
    /// below 2 is clamped to 2 (a unary fold would never terminate the
    /// level reduction).
    pub fn from_leaf_aggregates(mut level: Vec<SubtreeAggregate>, fanout: usize) -> Self {
        let fanout = fanout.max(2);
        let mut levels = Vec::new();
        if level.is_empty() {
            return Self { fanout, levels };
        }
        loop {
            let done = level.len() == 1;
            levels.push(level);
            if done {
                break;
            }
            let below = levels.last().expect("level just pushed");
            level = below.chunks(fanout).map(SubtreeAggregate::fold).collect();
        }
        Self { fanout, levels }
    }

    /// One leaf aggregate per device the hub tracks, in device-id order:
    /// the leaf of the device's head digest, health flag (no compromise
    /// evidence ever) and lifetime entry count.
    pub fn leaf_aggregates(hub: &VerifierHub) -> Vec<SubtreeAggregate> {
        hub.histories()
            .map(|history| {
                SubtreeAggregate::leaf(
                    history.device(),
                    history.head_digest(),
                    history.first_compromise().is_none(),
                    history.len() as u64,
                )
            })
            .collect()
    }

    /// Builds the tree from a verifier hub: one leaf per tracked device, in
    /// device-id order ([`AggregationTree::leaf_aggregates`]).
    pub fn from_hub(hub: &VerifierHub, fanout: usize) -> Self {
        Self::from_leaf_aggregates(Self::leaf_aggregates(hub), fanout)
    }

    /// The root aggregate, or `None` for an empty fleet.
    pub fn root(&self) -> Option<&SubtreeAggregate> {
        self.levels.last().and_then(|level| level.first())
    }

    /// Shape statistics for reporting.
    pub fn stats(&self) -> AggregationStats {
        AggregationStats {
            leaves: self.levels.first().map_or(0, Vec::len),
            nodes: self.levels.iter().map(Vec::len).sum(),
            depth: self.levels.len(),
            fanout: self.fanout,
        }
    }
}

/// Lowercase-hex rendering of an aggregate digest, for reports and logs.
pub fn digest_hex(digest: &[u8; 32]) -> String {
    let mut out = String::with_capacity(64);
    for byte in digest {
        out.push(char::from_digit(u32::from(byte >> 4), 16).expect("nibble < 16"));
        out.push(char::from_digit(u32::from(byte & 0xf), 16).expect("nibble < 16"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasmus_core::{CollectionRequest, Prover, ProverConfig, Verifier};
    use erasmus_crypto::MacAlgorithm;
    use erasmus_hw::{DeviceKey, DeviceProfile};
    use erasmus_sim::{SimDuration, SimTime};

    fn leaf(id: u64, fill: u8, healthy: bool, entries: u64) -> SubtreeAggregate {
        SubtreeAggregate::leaf(DeviceId::new(id), &[fill; 32], healthy, entries)
    }

    #[test]
    fn balanced_shape_and_counts() {
        let leaves = (0..10)
            .map(|i| leaf(i, i as u8, i % 2 == 0, i + 1))
            .collect();
        let tree = AggregationTree::from_leaf_aggregates(leaves, 4);
        let stats = tree.stats();
        assert_eq!(stats.leaves, 10);
        assert_eq!(stats.depth, 3, "10 leaves / fanout 4 -> 10, 3, 1");
        assert_eq!(stats.nodes, 10 + 3 + 1);
        assert_eq!(stats.fanout, 4);
        let root = tree.root().expect("non-empty");
        assert_eq!(root.devices, 10);
        assert_eq!(root.healthy_devices, 5);
        assert_eq!(root.entries, (1..=10).sum::<u64>());
    }

    #[test]
    fn root_digest_detects_any_tampered_head() {
        let heads = [[0x40; 32]; 7];
        let tree_of = |heads: &[[u8; 32]]| {
            let leaves = (0..)
                .zip(heads)
                .map(|(id, head)| SubtreeAggregate::leaf(DeviceId::new(id), head, true, 3))
                .collect();
            AggregationTree::from_leaf_aggregates(leaves, 3)
        };
        let baseline = tree_of(&heads);
        let again = tree_of(&heads);
        assert_eq!(baseline.root(), again.root(), "deterministic");

        for victim in 0..heads.len() {
            let mut tampered = heads;
            tampered[victim][0] ^= 1;
            let tree = tree_of(&tampered);
            assert_ne!(
                tree.root().unwrap().digest,
                baseline.root().unwrap().digest,
                "flipping device {victim}'s head must change the root"
            );
        }
    }

    #[test]
    fn empty_fleet_has_no_root() {
        let tree = AggregationTree::from_leaf_aggregates(Vec::new(), 8);
        assert!(tree.root().is_none());
        assert_eq!(
            tree.stats(),
            AggregationStats {
                leaves: 0,
                nodes: 0,
                depth: 0,
                fanout: 8,
            }
        );
    }

    #[test]
    fn fanout_is_clamped_to_binary() {
        let leaves = (0..4).map(|i| leaf(i, 1, true, 1)).collect();
        let tree = AggregationTree::from_leaf_aggregates(leaves, 0);
        assert_eq!(tree.stats().fanout, 2);
        assert_eq!(tree.stats().depth, 3, "4 leaves -> 4, 2, 1");
    }

    /// Device `id` measured every 10 s up to 40 s, then collected into `hub`.
    /// An `infected` device takes an implant into its application memory at
    /// 20 s, so its later measurements read compromised.
    fn attest_into(hub: &mut VerifierHub, id: u64, infected: bool) {
        let key = DeviceKey::derive(b"aggregate-test", id);
        let interval = SimDuration::from_secs(10);
        let config = ProverConfig::builder()
            .measurement_interval(interval)
            .buffer_slots(4)
            .build()
            .expect("valid config");
        let mut prover = Prover::new(
            DeviceId::new(id),
            DeviceProfile::msp430_8mhz(256),
            key.clone(),
            config,
        )
        .expect("provisioning");
        let mut verifier = Verifier::new(key, MacAlgorithm::HmacSha256);
        verifier.learn_reference_image(prover.mcu().app_memory());
        verifier.set_expected_interval(interval);
        if infected {
            prover.run_until(SimTime::from_secs(20)).expect("measure");
            prover
                .mcu_mut()
                .write_app_memory(0, b"implant")
                .expect("infect");
        }
        let at = SimTime::from_secs(40);
        prover.run_until(at).expect("measure");
        let response = prover.handle_collection(&CollectionRequest::latest(4), at);
        let report = verifier.verify_collection(&response, at).expect("report");
        assert!(hub.ingest(&report));
    }

    #[test]
    fn leaf_aggregates_of_split_hubs_build_the_merged_hubs_tree() {
        // Three disjoint hubs of 5, 7 and 9 devices: at fanout 4 their
        // boundaries fall inside level-1 nodes. Device 8 is infected.
        let fanout = 4;
        let mut hubs = Vec::new();
        let mut first = 0;
        for size in [5, 7, 9] {
            let mut hub = VerifierHub::new();
            for id in first..first + size {
                attest_into(&mut hub, id, id == 8);
            }
            first += size;
            hubs.push(hub);
        }
        let level = hubs
            .iter()
            .flat_map(AggregationTree::leaf_aggregates)
            .collect();
        let split = AggregationTree::from_leaf_aggregates(level, fanout);

        let mut merged = VerifierHub::new();
        for hub in hubs {
            assert!(merged.merge(hub));
        }
        assert_eq!(merged.compromised_devices(), vec![DeviceId::new(8)]);
        let whole = AggregationTree::from_hub(&merged, fanout);

        assert_eq!(split.stats(), whole.stats());
        assert_eq!(split.stats().leaves, 21);
        // Devices, healthy devices, entries and the root digest.
        assert_eq!(split.root(), whole.root());
        let root = split.root().expect("non-empty");
        assert_eq!(root.healthy_devices, 20);
        assert_eq!(root.entries, merged.total_entries());
    }

    #[test]
    fn digest_hex_is_lowercase_and_stable() {
        let mut digest = [0u8; 32];
        digest[0] = 0xab;
        digest[31] = 0x01;
        let hex = digest_hex(&digest);
        assert_eq!(hex.len(), 64);
        assert!(hex.starts_with("ab"));
        assert!(hex.ends_with("01"));
    }
}
