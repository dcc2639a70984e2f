//! Swarm connectivity graph.

use std::collections::{BTreeSet, VecDeque};

use erasmus_sim::SimRng;

/// An undirected connectivity graph over `n` devices (node indices
/// `0..n`).
///
/// # Example
///
/// ```
/// use erasmus_swarm::Topology;
///
/// let ring = Topology::ring(5);
/// assert!(ring.is_connected());
/// assert_eq!(ring.neighbors(0), vec![1, 4]);
/// assert_eq!(ring.reachable_from(0).len(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    nodes: usize,
    /// Sorted adjacency sets (BTreeSet keeps iteration deterministic).
    adjacency: Vec<BTreeSet<usize>>,
}

impl Topology {
    /// Creates a topology with `nodes` isolated nodes.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            adjacency: vec![BTreeSet::new(); nodes],
        }
    }

    /// A ring of `nodes` devices (each connected to its two neighbours).
    pub fn ring(nodes: usize) -> Self {
        let mut topology = Self::new(nodes);
        if nodes > 1 {
            for i in 0..nodes {
                topology.add_link(i, (i + 1) % nodes);
            }
        }
        topology
    }

    /// A full mesh over `nodes` devices.
    pub fn full_mesh(nodes: usize) -> Self {
        let mut topology = Self::new(nodes);
        for a in 0..nodes {
            for b in (a + 1)..nodes {
                topology.add_link(a, b);
            }
        }
        topology
    }

    /// A `width × height` grid (4-neighbour connectivity).
    pub fn grid(width: usize, height: usize) -> Self {
        let mut topology = Self::new(width * height);
        for y in 0..height {
            for x in 0..width {
                let node = y * width + x;
                if x + 1 < width {
                    topology.add_link(node, node + 1);
                }
                if y + 1 < height {
                    topology.add_link(node, node + width);
                }
            }
        }
        topology
    }

    /// A random connected topology: a random spanning tree plus extra random
    /// links until the average degree reaches `target_degree`.
    pub fn random_connected(nodes: usize, target_degree: f64, rng: &mut SimRng) -> Self {
        let mut topology = Self::new(nodes);
        if nodes <= 1 {
            return topology;
        }
        // Random spanning tree: attach each node to a random earlier node.
        for node in 1..nodes {
            let parent = rng.gen_range(0, node as u64) as usize;
            topology.add_link(node, parent);
        }
        let target_links = ((target_degree * nodes as f64) / 2.0).ceil() as usize;
        let mut guard = 0usize;
        while topology.link_count() < target_links && guard < nodes * nodes {
            let a = rng.gen_range(0, nodes as u64) as usize;
            let b = rng.gen_range(0, nodes as u64) as usize;
            if a != b {
                topology.add_link(a, b);
            }
            guard += 1;
        }
        topology
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.adjacency.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Adds an undirected link (no-op for self-links or out-of-range nodes).
    pub fn add_link(&mut self, a: usize, b: usize) {
        if a == b || a >= self.nodes || b >= self.nodes {
            return;
        }
        self.adjacency[a].insert(b);
        self.adjacency[b].insert(a);
    }

    /// Removes an undirected link if present.
    pub fn remove_link(&mut self, a: usize, b: usize) {
        if a < self.nodes && b < self.nodes {
            self.adjacency[a].remove(&b);
            self.adjacency[b].remove(&a);
        }
    }

    /// Neighbours of `node`, in ascending order.
    pub fn neighbors(&self, node: usize) -> Vec<usize> {
        self.adjacency
            .get(node)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All undirected links as `(low, high)` pairs.
    pub fn links(&self) -> Vec<(usize, usize)> {
        let mut links = Vec::with_capacity(self.link_count());
        for (a, neighbors) in self.adjacency.iter().enumerate() {
            for &b in neighbors {
                if a < b {
                    links.push((a, b));
                }
            }
        }
        links
    }

    /// The set of nodes reachable from `root` (including `root` itself).
    pub fn reachable_from(&self, root: usize) -> BTreeSet<usize> {
        let mut reachable = BTreeSet::new();
        if root >= self.nodes {
            return reachable;
        }
        let mut queue = VecDeque::from([root]);
        reachable.insert(root);
        while let Some(node) = queue.pop_front() {
            for &next in &self.adjacency[node] {
                if reachable.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        reachable
    }

    /// Hop distance from `root` to every node (`None` for unreachable ones).
    pub fn hop_distances(&self, root: usize) -> Vec<Option<usize>> {
        let mut distances = vec![None; self.nodes];
        if root >= self.nodes {
            return distances;
        }
        distances[root] = Some(0);
        let mut queue = VecDeque::from([root]);
        while let Some(node) = queue.pop_front() {
            let next_distance = distances[node].expect("visited nodes have a distance") + 1;
            for &next in &self.adjacency[node] {
                if distances[next].is_none() {
                    distances[next] = Some(next_distance);
                    queue.push_back(next);
                }
            }
        }
        distances
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        self.nodes <= 1 || self.reachable_from(0).len() == self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_properties() {
        let ring = Topology::ring(6);
        assert_eq!(ring.len(), 6);
        assert_eq!(ring.link_count(), 6);
        assert!(ring.is_connected());
        assert_eq!(ring.neighbors(0), vec![1, 5]);
        assert_eq!(ring.hop_distances(0)[3], Some(3));
    }

    #[test]
    fn grid_properties() {
        let grid = Topology::grid(3, 3);
        assert_eq!(grid.len(), 9);
        assert_eq!(grid.link_count(), 12);
        assert!(grid.is_connected());
        // Centre node has 4 neighbours.
        assert_eq!(grid.neighbors(4).len(), 4);
        // Opposite corner is 4 hops away.
        assert_eq!(grid.hop_distances(0)[8], Some(4));
    }

    #[test]
    fn full_mesh_properties() {
        let mesh = Topology::full_mesh(5);
        assert_eq!(mesh.link_count(), 10);
        assert!(mesh.hop_distances(0).iter().skip(1).all(|d| *d == Some(1)));
    }

    #[test]
    fn add_remove_links() {
        let mut topology = Topology::new(4);
        assert!(!topology.is_connected());
        topology.add_link(0, 1);
        topology.add_link(1, 2);
        topology.add_link(2, 3);
        assert!(topology.is_connected());
        assert_eq!(topology.link_count(), 3);
        topology.remove_link(1, 2);
        assert_eq!(topology.link_count(), 2);
        assert!(!topology.is_connected());
        assert_eq!(topology.reachable_from(0), BTreeSet::from([0, 1]));
        // Self-links and out-of-range links are ignored.
        topology.add_link(0, 0);
        topology.add_link(0, 99);
        assert_eq!(topology.neighbors(0), vec![1]);
        assert!(topology.neighbors(99).is_empty());
    }

    #[test]
    fn links_enumeration() {
        let mut topology = Topology::new(3);
        topology.add_link(2, 0);
        topology.add_link(1, 2);
        assert_eq!(topology.links(), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn random_connected_is_connected_and_meets_degree() {
        let mut rng = SimRng::seed_from(11);
        let topology = Topology::random_connected(50, 4.0, &mut rng);
        assert_eq!(topology.len(), 50);
        assert!(topology.is_connected());
        let avg_degree = 2.0 * topology.link_count() as f64 / 50.0;
        assert!(avg_degree >= 3.5, "average degree {avg_degree}");
    }

    #[test]
    fn degenerate_sizes() {
        assert!(Topology::new(0).is_empty());
        assert!(Topology::new(0).is_connected());
        assert!(Topology::ring(1).is_connected());
        assert_eq!(Topology::ring(1).link_count(), 0);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(Topology::random_connected(1, 2.0, &mut rng).link_count(), 0);
        assert!(Topology::new(3).reachable_from(99).is_empty());
    }
}
