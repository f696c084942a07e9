//! Virtual-time slot scheduling: the JobTracker's task assignment.
//!
//! Hadoop exposes a fixed number of map/reduce slots per TaskTracker
//! (default two of each) and assigns tasks to free slots, preferring
//! nodes that hold a replica of the task's input split. The list
//! scheduler here reproduces that in virtual time: each slot tracks the
//! instant it becomes free, and a task is placed on the slot giving the
//! earliest start, with locality as the tie-breaker.

use imr_simcluster::{ClusterSpec, NodeId, VInstant};

/// One pool of slots (map or reduce) across the cluster.
#[derive(Debug, Clone)]
pub struct SlotPool {
    /// `free[n]` holds the free-instants of node `n`'s slots.
    free: Vec<Vec<VInstant>>,
}

impl SlotPool {
    /// Builds the pool from the cluster spec. `map` selects map slots
    /// (true) or reduce slots (false).
    pub fn new(spec: &ClusterSpec, map: bool, at: VInstant) -> Self {
        let free = spec
            .nodes
            .iter()
            .map(|n| vec![at; if map { n.map_slots } else { n.reduce_slots }])
            .collect();
        SlotPool { free }
    }

    /// Chooses the placement for a task that becomes ready at `ready`,
    /// preferring `preferred` nodes (input-split replicas). Returns the
    /// chosen node and the start instant. Does **not** occupy the slot;
    /// call [`occupy`](Self::occupy) once the finish time is known.
    pub fn place(&self, ready: VInstant, preferred: &[NodeId]) -> (NodeId, VInstant) {
        let mut best: Option<(VInstant, bool, NodeId)> = None;
        for (n, slots) in self.free.iter().enumerate() {
            let Some(&slot_free) = slots.iter().min() else {
                continue;
            };
            let node = NodeId(n as u32);
            let start = slot_free.max(ready);
            let local = preferred.contains(&node);
            let better = match &best {
                None => true,
                Some((bs, bl, bn)) => {
                    // Earlier start wins; ties prefer locality, then
                    // lower node id for determinism.
                    (start, !local, node.0) < (*bs, !*bl, bn.0)
                }
            };
            if better {
                best = Some((start, local, node));
            }
        }
        let (start, _, node) = best.expect("cluster has no slots");
        (node, start)
    }

    /// Marks the earliest-free slot of `node` busy until `until`.
    pub fn occupy(&mut self, node: NodeId, until: VInstant) {
        let slots = &mut self.free[node.index()];
        let slot = slots
            .iter_mut()
            .min()
            .expect("occupying a node with no slots");
        *slot = until;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imr_simcluster::VDuration;

    fn at(s: u64) -> VInstant {
        VInstant::EPOCH + VDuration::from_secs(s)
    }

    #[test]
    fn placement_prefers_locality_on_ties() {
        let spec = ClusterSpec::local(3);
        let pool = SlotPool::new(&spec, true, VInstant::EPOCH);
        let (node, start) = pool.place(VInstant::EPOCH, &[NodeId(2)]);
        assert_eq!(node, NodeId(2));
        assert_eq!(start, VInstant::EPOCH);
    }

    #[test]
    fn placement_prefers_earlier_start_over_locality() {
        let spec = ClusterSpec::local(2);
        let mut pool = SlotPool::new(&spec, true, VInstant::EPOCH);
        // Fill both of node 0's slots until t=100.
        pool.occupy(NodeId(0), at(100));
        pool.occupy(NodeId(0), at(100));
        let (node, start) = pool.place(VInstant::EPOCH, &[NodeId(0)]);
        assert_eq!(node, NodeId(1), "waiting 100s for locality is wrong");
        assert_eq!(start, VInstant::EPOCH);
    }

    #[test]
    fn slots_serialize_task_waves() {
        let spec = ClusterSpec::local(1); // one node, two map slots
        let mut pool = SlotPool::new(&spec, true, VInstant::EPOCH);
        // Three equal tasks of 10s: two run immediately, third waits.
        for expected_start in [0u64, 0, 10] {
            let (node, start) = pool.place(VInstant::EPOCH, &[]);
            assert_eq!(start, at(expected_start));
            pool.occupy(node, start + VDuration::from_secs(10));
        }
    }

    #[test]
    fn ready_time_lower_bounds_start() {
        let spec = ClusterSpec::local(2);
        let pool = SlotPool::new(&spec, false, VInstant::EPOCH);
        let (_, start) = pool.place(at(42), &[]);
        assert_eq!(start, at(42));
    }
}
