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

/// Per-device input to the aggregation tree: the device's identity, its
/// hash-chain head and the health/volume summary a sub-verifier reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregationLeaf {
    /// The device this leaf summarises.
    pub device: DeviceId,
    /// The device's hash-chain head digest (chain folded over the retained
    /// window).
    pub head: [u8; 32],
    /// Whether the device has never shown a compromised or forged
    /// measurement.
    pub healthy: bool,
    /// Lifetime history entries ingested for the device.
    pub entries: u64,
}

impl AggregationLeaf {
    fn aggregate(&self) -> SubtreeAggregate {
        let mut hasher = Sha256::new();
        hasher.update(&[LEAF_TAG]);
        hasher.update(&self.device.value().to_be_bytes());
        hasher.update(&self.head);
        SubtreeAggregate {
            devices: 1,
            healthy_devices: u64::from(self.healthy),
            entries: self.entries,
            digest: hasher.finalize(),
        }
    }
}

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
    /// Builds the tree from explicit leaves, in the order given. A fanout
    /// below 2 is clamped to 2 (a unary fold would never terminate the
    /// level reduction).
    pub fn from_leaves(leaves: &[AggregationLeaf], fanout: usize) -> Self {
        let fanout = fanout.max(2);
        let mut levels = Vec::new();
        if leaves.is_empty() {
            return Self { fanout, levels };
        }
        let mut level: Vec<SubtreeAggregate> =
            leaves.iter().map(AggregationLeaf::aggregate).collect();
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

    /// Builds the tree from a verifier hub: one leaf per tracked device, in
    /// device-id order, carrying the device's head digest, health flag
    /// (no compromise evidence ever) and lifetime entry count.
    pub fn from_hub(hub: &VerifierHub, fanout: usize) -> Self {
        let leaves: Vec<AggregationLeaf> = hub
            .histories()
            .map(|history| AggregationLeaf {
                device: history.device(),
                head: *history.head_digest(),
                healthy: history.first_compromise().is_none(),
                entries: history.len() as u64,
            })
            .collect();
        Self::from_leaves(&leaves, fanout)
    }

    /// The root aggregate, or `None` for an empty fleet.
    pub fn root(&self) -> Option<&SubtreeAggregate> {
        self.levels.last().and_then(|level| level.first())
    }

    /// The aggregates one level below the root — what each top-level
    /// sub-verifier reports. Empty for fleets small enough that the root
    /// folds leaves directly (or for an empty tree).
    pub fn sub_verifiers(&self) -> &[SubtreeAggregate] {
        if self.levels.len() < 2 {
            return &[];
        }
        &self.levels[self.levels.len() - 2]
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

    fn leaf(id: u64, fill: u8, healthy: bool, entries: u64) -> AggregationLeaf {
        AggregationLeaf {
            device: DeviceId::new(id),
            head: [fill; 32],
            healthy,
            entries,
        }
    }

    #[test]
    fn balanced_shape_and_counts() {
        let leaves: Vec<AggregationLeaf> = (0..10)
            .map(|i| leaf(i, i as u8, i % 2 == 0, i + 1))
            .collect();
        let tree = AggregationTree::from_leaves(&leaves, 4);
        let stats = tree.stats();
        assert_eq!(stats.leaves, 10);
        assert_eq!(stats.depth, 3, "10 leaves / fanout 4 -> 10, 3, 1");
        assert_eq!(stats.nodes, 10 + 3 + 1);
        assert_eq!(stats.fanout, 4);
        assert_eq!(tree.sub_verifiers().len(), 3);
        let root = tree.root().expect("non-empty");
        assert_eq!(root.devices, 10);
        assert_eq!(root.healthy_devices, 5);
        assert_eq!(root.entries, (1..=10).sum::<u64>());
    }

    #[test]
    fn root_digest_detects_any_tampered_head() {
        let leaves: Vec<AggregationLeaf> = (0..7).map(|i| leaf(i, 0x40, true, 3)).collect();
        let baseline = AggregationTree::from_leaves(&leaves, 3);
        let again = AggregationTree::from_leaves(&leaves, 3);
        assert_eq!(baseline.root(), again.root(), "deterministic");

        for victim in 0..leaves.len() {
            let mut tampered = leaves.clone();
            tampered[victim].head[0] ^= 1;
            let tree = AggregationTree::from_leaves(&tampered, 3);
            assert_ne!(
                tree.root().unwrap().digest,
                baseline.root().unwrap().digest,
                "flipping device {victim}'s head must change the root"
            );
        }
    }

    #[test]
    fn empty_fleet_has_no_root() {
        let tree = AggregationTree::from_leaves(&[], 8);
        assert!(tree.root().is_none());
        assert!(tree.sub_verifiers().is_empty());
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
        let leaves: Vec<AggregationLeaf> = (0..4).map(|i| leaf(i, 1, true, 1)).collect();
        let tree = AggregationTree::from_leaves(&leaves, 0);
        assert_eq!(tree.stats().fanout, 2);
        assert_eq!(tree.stats().depth, 3, "4 leaves -> 4, 2, 1");
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
