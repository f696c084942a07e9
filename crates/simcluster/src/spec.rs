//! Cluster topology specification and the presets used by the paper's
//! experiments (§4.1.1): a 4-node local cluster and Amazon EC2 clusters
//! of 20, 50 and 80 small instances.

use crate::cost::CostModel;
use crate::time::VDuration;

/// Identifier of a simulated worker node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Per-node hardware description.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Relative CPU speed: 1.0 is the reference core; 0.5 takes twice as
    /// long per record. Heterogeneous presets vary this, which is what
    /// the load-balancing experiments exercise.
    pub speed: f64,
    /// Map task slots available on this node (Hadoop default: 2).
    pub map_slots: usize,
    /// Reduce task slots available on this node (Hadoop default: 2).
    pub reduce_slots: usize,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec {
            speed: 1.0,
            map_slots: 2,
            reduce_slots: 2,
        }
    }
}

/// Full description of a simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable preset name, carried into experiment output.
    pub name: String,
    /// One entry per worker node.
    pub nodes: Vec<NodeSpec>,
    /// The deterministic cost parameters for this cluster.
    pub cost: CostModel,
}

impl ClusterSpec {
    /// A cluster of `n` identical nodes under the given cost model.
    pub fn uniform(name: impl Into<String>, n: usize, cost: CostModel) -> Self {
        assert!(n > 0, "a cluster needs at least one node");
        ClusterSpec {
            name: name.into(),
            nodes: vec![NodeSpec::default(); n],
            cost,
        }
    }

    /// The paper's local cluster: 4 dual-core nodes on a 1 Gbps switch.
    pub fn local(n: usize) -> Self {
        Self::uniform(format!("local-{n}"), n, CostModel::hadoop_era())
    }

    /// The paper's EC2 cluster of `n` small instances.
    pub fn ec2(n: usize) -> Self {
        let mut spec = Self::uniform(format!("ec2-{n}"), n, CostModel::ec2_small());
        for node in &mut spec.nodes {
            node.speed = 0.8; // EC2 small vs. reference local core
        }
        spec
    }

    /// A single node with no network: used to measure `T*` for the
    /// parallel-efficiency experiment (Fig. 14).
    pub fn single() -> Self {
        Self::uniform("single", 1, CostModel::ec2_small())
    }

    /// Applies [`CostModel::scaled_for_sample`] to this cluster's cost
    /// model: experiments run on a `scale`-sized data sample but report
    /// full-size virtual times.
    pub fn with_sample_scale(mut self, scale: f64) -> Self {
        self.cost = self.cost.scaled_for_sample(scale);
        self
    }

    /// Number of worker nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True only for the (disallowed) empty cluster; kept for idiomatic
    /// pairing with [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate over node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Speed factor of `node`.
    pub fn speed(&self, node: NodeId) -> f64 {
        self.nodes[node.index()].speed
    }

    /// How many persistent map/reduce *pairs* `node` can host: a pair
    /// occupies one map slot and one reduce slot for the whole job
    /// (§3.2), so the node's capacity is the smaller of the two.
    pub fn node_pair_capacity(&self, node: NodeId) -> usize {
        let spec = &self.nodes[node.index()];
        spec.map_slots.min(spec.reduce_slots)
    }

    /// Total persistent-pair capacity of the cluster.
    pub fn pair_capacity(&self) -> usize {
        self.node_ids().map(|n| self.node_pair_capacity(n)).sum()
    }

    /// Deterministic placement of `n` persistent pairs onto nodes:
    /// round-robin over the nodes, skipping nodes whose slots are full.
    /// Both engines use this map, so a `FailureEvent` naming a node
    /// kills the same pairs everywhere.
    pub fn assign_pairs(&self, n: usize) -> Vec<NodeId> {
        assert!(
            n <= self.pair_capacity(),
            "cannot place {n} persistent pairs on {} slots",
            self.pair_capacity()
        );
        let mut remaining: Vec<usize> = self
            .node_ids()
            .map(|id| self.node_pair_capacity(id))
            .collect();
        let mut assignment = Vec::with_capacity(n);
        let mut cursor = 0usize;
        while assignment.len() < n {
            if remaining[cursor] > 0 {
                remaining[cursor] -= 1;
                assignment.push(NodeId(cursor as u32));
            }
            cursor = (cursor + 1) % self.nodes.len();
        }
        assignment
    }

    /// The paper's §3.4.1 relocation rule, shared by every engine: each
    /// pair `assignment` puts on a node in `failed` (the nodes out of
    /// service: those this rollback lost and those earlier ones left
    /// down) moves, in pair order, to the fastest node outside `failed`
    /// with a free pair slot, ties going to the lowest id. A pair no
    /// such node has room for stays where it is: its node is restarted.
    pub fn relocate(&self, assignment: &mut [NodeId], failed: &[NodeId]) {
        let mut hosted = vec![0usize; self.len()];
        for node in assignment.iter() {
            hosted[node.index()] += 1;
        }
        for node in assignment.iter_mut().filter(|node| failed.contains(node)) {
            let free = |id: &NodeId| {
                !failed.contains(id) && hosted[id.index()] < self.node_pair_capacity(*id)
            };
            let faster = |a: &NodeId, b: &NodeId| {
                (self.speed(*a).total_cmp(&self.speed(*b))).then(b.0.cmp(&a.0))
            };
            if let Some(to) = self.node_ids().filter(free).max_by(faster) {
                hosted[to.index()] += 1;
                *node = to;
            }
        }
    }

    /// The paper's §3.4.2 migration rule, shared by both engines:
    /// per-node load is the worst per-pair busy time hosted there;
    /// average the node loads excluding the longest and shortest, and
    /// when the slowest node exceeds that average by more than
    /// `deviation`, migrate one of its pairs to the fastest node with
    /// spare capacity. Returns `(pair, target_node)` or `None` when the
    /// cluster is balanced (or no profitable target exists — migrating
    /// onto an equally slow or slower node never helps).
    ///
    /// `pair_busy[q]` is pair `q`'s per-iteration busy time: virtual
    /// seconds on the simulation engine, a wall-clock EWMA on the
    /// native backend. The rule itself is substrate-agnostic. A node in
    /// `down` (out of service after a failure) is never a target.
    pub fn pick_migration(
        &self,
        assignment: &[NodeId],
        pair_busy: &[f64],
        deviation: f64,
        down: &[NodeId],
    ) -> Option<(usize, NodeId)> {
        let mut node_time = vec![0.0f64; self.len()];
        let mut node_pairs: Vec<Vec<usize>> = vec![Vec::new(); self.len()];
        for (q, node) in assignment.iter().enumerate() {
            node_time[node.index()] = node_time[node.index()].max(pair_busy[q]);
            node_pairs[node.index()].push(q);
        }
        let mut active: Vec<(usize, f64)> = node_time
            .iter()
            .enumerate()
            .filter(|(i, _)| !node_pairs[*i].is_empty())
            .map(|(i, &t)| (i, t))
            .collect();
        if active.len() < 2 {
            return None;
        }
        active.sort_by(|a, b| a.1.total_cmp(&b.1));
        let avg = if active.len() > 2 {
            let inner = &active[1..active.len() - 1];
            inner.iter().map(|(_, t)| t).sum::<f64>() / inner.len() as f64
        } else {
            active.iter().map(|(_, t)| t).sum::<f64>() / active.len() as f64
        };
        let (slowest_node, slowest_time) = *active.last().unwrap();
        if avg <= 0.0 || slowest_time <= avg * (1.0 + deviation) {
            return None;
        }
        // Fastest worker with spare capacity; prefer idle nodes.
        let mut per_node = vec![0usize; self.len()];
        for node in assignment {
            per_node[node.index()] += 1;
        }
        let target = self
            .node_ids()
            .filter(|nid| nid.index() != slowest_node && !down.contains(nid))
            .filter(|nid| per_node[nid.index()] < self.node_pair_capacity(*nid))
            .min_by(|a, b| {
                node_time[a.index()]
                    .total_cmp(&node_time[b.index()])
                    .then(a.0.cmp(&b.0))
            })?;
        // Migrating onto a slower node never helps.
        if self.speed(target) <= self.speed(NodeId(slowest_node as u32)) {
            return None;
        }
        let pair = *node_pairs[slowest_node].first()?;
        Some((pair, target))
    }

    /// Transfer time for `bytes` from `from` to `to` under this
    /// cluster's cost model: local transfers use loopback bandwidth,
    /// remote transfers pay latency plus network bandwidth.
    pub fn transfer_time(&self, from: NodeId, to: NodeId, bytes: u64) -> VDuration {
        if from == to {
            self.cost.local_transfer_time(bytes)
        } else {
            self.cost.remote_transfer_time(bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shape() {
        let local = ClusterSpec::local(4);
        assert_eq!(local.len(), 4);
        assert!(local.nodes.iter().all(|n| n.map_slots == 2));
        assert_eq!(local.name, "local-4");

        let ec2 = ClusterSpec::ec2(20);
        assert_eq!(ec2.len(), 20);
        assert!(ec2.nodes.iter().all(|n| (n.speed - 0.8).abs() < 1e-12));

        let single = ClusterSpec::single();
        assert_eq!(single.len(), 1);
    }

    #[test]
    fn local_transfer_cheaper_than_remote() {
        let spec = ClusterSpec::local(2);
        let local = spec.transfer_time(NodeId(0), NodeId(0), 1 << 20);
        let remote = spec.transfer_time(NodeId(0), NodeId(1), 1 << 20);
        assert!(local < remote);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        let _ = ClusterSpec::uniform("empty", 0, CostModel::hadoop_era());
    }

    #[test]
    fn pick_migration_moves_off_the_slow_node() {
        let mut spec = ClusterSpec::local(4);
        spec.nodes[0].speed = 0.2;
        // Pairs 0..3 on nodes 0..3; pair 0 is ~5x slower than the rest.
        let assignment: Vec<NodeId> = (0..4).map(NodeId).collect();
        let busy = [5.0, 1.0, 1.0, 1.1];
        let (pair, target) = spec
            .pick_migration(&assignment, &busy, 0.3, &[])
            .expect("imbalance above threshold must migrate");
        assert_eq!(pair, 0);
        // Least-loaded faster node (node1, load 1.0).
        assert_eq!(target, NodeId(1));
    }

    #[test]
    fn pick_migration_respects_deviation_threshold() {
        let spec = ClusterSpec::local(4);
        let assignment: Vec<NodeId> = (0..4).map(NodeId).collect();
        // 10% over the trimmed mean: below a 25% deviation threshold.
        let busy = [1.1, 1.0, 1.0, 1.0];
        assert_eq!(spec.pick_migration(&assignment, &busy, 0.25, &[]), None);
    }

    #[test]
    fn relocate_fills_the_fastest_free_nodes_then_restarts_in_place() {
        let mut spec = ClusterSpec::local(4);
        spec.nodes[2].speed = 2.0;
        // Node 0 hosts pairs 0 and 2; node 2 has one free slot left.
        let mut assignment = vec![NodeId(0), NodeId(2), NodeId(0), NodeId(1)];
        spec.relocate(&mut assignment, &[NodeId(0)]);
        assert_eq!(assignment, [NodeId(2), NodeId(2), NodeId(1), NodeId(1)]);
        // A node hosting no pair moves nothing.
        spec.relocate(&mut assignment, &[NodeId(0)]);
        assert_eq!(assignment, [NodeId(2), NodeId(2), NodeId(1), NodeId(1)]);
        // Nodes 1 and 2 fail together: none of their pairs lands on the
        // other, so all four share nodes 0 and 3.
        spec.relocate(&mut assignment, &[NodeId(1), NodeId(2)]);
        assert_eq!(assignment, [NodeId(0), NodeId(0), NodeId(3), NodeId(3)]);
        // Every slot of a full cluster is taken: node 0's pairs stay on
        // it, a restarted node.
        let full = ClusterSpec::local(2);
        let mut assignment = full.assign_pairs(4);
        let before = assignment.clone();
        full.relocate(&mut assignment, &[NodeId(0)]);
        assert_eq!(assignment, before);
    }

    #[test]
    fn pick_migration_never_targets_a_node_out_of_service() {
        let mut spec = ClusterSpec::local(4);
        spec.nodes[0].speed = 0.2;
        // Node 3 is idle because a failure emptied it: out of service.
        let assignment = vec![NodeId(0), NodeId(1), NodeId(2)];
        let busy = [5.0, 1.0, 1.0];
        let idle = spec.pick_migration(&assignment, &busy, 0.3, &[]);
        assert_eq!(idle, Some((0, NodeId(3))));
        let down = spec.pick_migration(&assignment, &busy, 0.3, &[NodeId(3)]);
        assert_eq!(down, Some((0, NodeId(1))));
    }

    #[test]
    fn pick_migration_never_targets_a_slower_node() {
        let mut spec = ClusterSpec::local(2);
        spec.nodes[0].speed = 0.5;
        spec.nodes[1].speed = 0.4; // even slower than the straggler
        let assignment = vec![NodeId(0), NodeId(1)];
        let busy = [10.0, 1.0];
        assert_eq!(spec.pick_migration(&assignment, &busy, 0.1, &[]), None);
    }
}
