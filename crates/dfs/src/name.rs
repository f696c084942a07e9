//! Namespace and block-placement metadata: the namenode.

use imr_simcluster::NodeId;
use std::collections::BTreeMap;

/// Identifier of one stored block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// Metadata for one immutable file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Blocks in file order.
    pub blocks: Vec<BlockId>,
    /// Total file length in bytes.
    pub len: u64,
}

/// The namenode: path → file metadata, block → replica locations.
///
/// Deterministic placement: the first replica lands on the writer's node
/// (HDFS's write-locality rule) and the remaining replicas are assigned
/// round-robin over the other nodes, rotated by block id so replicas
/// spread evenly. A failed node gets no replica.
#[derive(Debug)]
pub struct NameNode {
    files: BTreeMap<String, FileMeta>,
    replicas: BTreeMap<BlockId, Vec<NodeId>>,
    next_block: u64,
    cluster_size: usize,
    replication: usize,
    dead: Vec<bool>,
}

impl NameNode {
    /// A namenode for `cluster_size` datanodes with the given
    /// replication factor (clamped to the cluster size).
    pub fn new(cluster_size: usize, replication: usize) -> Self {
        assert!(cluster_size > 0, "a DFS needs at least one datanode");
        NameNode {
            files: BTreeMap::new(),
            replicas: BTreeMap::new(),
            next_block: 0,
            cluster_size,
            replication: replication.clamp(1, cluster_size),
            dead: vec![false; cluster_size],
        }
    }

    /// Effective replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Allocates a fresh block written by `writer`, returning its id and
    /// chosen replica locations (writer first, unless it failed).
    pub fn allocate_block(&mut self, writer: NodeId) -> (BlockId, Vec<NodeId>) {
        let id = BlockId(self.next_block);
        self.next_block += 1;
        let mut nodes = Vec::with_capacity(self.replication);
        if !self.dead[writer.index()] {
            nodes.push(writer);
        }
        self.fill(&mut nodes, id.0 as usize + writer.index() + 1);
        self.replicas.insert(id, nodes.clone());
        (id, nodes)
    }

    /// Adds live nodes to `nodes`, round-robin from node `cursor` (mod
    /// the cluster size), until it holds the replication factor or every
    /// live node.
    fn fill(&self, nodes: &mut Vec<NodeId>, cursor: usize) {
        for i in (cursor..cursor + self.cluster_size).map(|c| c % self.cluster_size) {
            let candidate = NodeId(i as u32);
            if nodes.len() < self.replication && !self.dead[i] && !nodes.contains(&candidate) {
                nodes.push(candidate);
            }
        }
    }

    /// Records a completed file.
    pub fn commit_file(&mut self, path: &str, meta: FileMeta) {
        self.files.insert(path.to_owned(), meta);
    }

    /// Looks up a file.
    pub fn file(&self, path: &str) -> Option<&FileMeta> {
        self.files.get(path)
    }

    /// Replica locations of a block (empty if the block is unknown or
    /// fully lost).
    pub fn locations(&self, block: BlockId) -> &[NodeId] {
        self.replicas.get(&block).map_or(&[], Vec::as_slice)
    }

    /// Removes a file, returning its blocks for datanode cleanup.
    pub fn remove_file(&mut self, path: &str) -> Option<Vec<BlockId>> {
        let meta = self.files.remove(path)?;
        for b in &meta.blocks {
            self.replicas.remove(b);
        }
        Some(meta.blocks)
    }

    /// Renames a file, moving metadata only (blocks stay where they
    /// are). Returns `false` if the source is missing or the target
    /// already exists.
    pub fn rename_file(&mut self, from: &str, to: &str) -> bool {
        if self.files.contains_key(to) {
            return false;
        }
        match self.files.remove(from) {
            Some(meta) => {
                self.files.insert(to.to_owned(), meta);
                true
            }
            None => false,
        }
    }

    /// Drops every replica hosted on `node` (node failure). Returns the
    /// blocks that lost their last replica.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<BlockId> {
        self.dead[node.index()] = true;
        let mut lost = Vec::new();
        for (block, nodes) in &mut self.replicas {
            nodes.retain(|&n| n != node);
            if nodes.is_empty() {
                lost.push(*block);
            }
        }
        lost
    }

    /// HDFS's re-replication: every block that kept a live replica gets
    /// new ones on live nodes until it holds the replication factor or
    /// every live node. Returns each copy to make as `(block, from, to)`.
    pub fn re_replicate(&mut self) -> Vec<(BlockId, NodeId, NodeId)> {
        let mut replicas = std::mem::take(&mut self.replicas);
        let mut copies = Vec::new();
        for (block, nodes) in &mut replicas {
            let (Some(&from), held) = (nodes.first(), nodes.len()) else {
                continue;
            };
            self.fill(nodes, block.0 as usize + 1);
            copies.extend(nodes[held..].iter().map(|&to| (*block, from, to)));
        }
        self.replicas = replicas;
        copies
    }

    /// All paths with the given prefix, in lexicographic order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .range(prefix.to_owned()..)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(p, _)| p.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_replica_is_local_to_writer() {
        let mut nn = NameNode::new(4, 3);
        for writer in 0..4u32 {
            let (_, nodes) = nn.allocate_block(NodeId(writer));
            assert_eq!(nodes[0], NodeId(writer));
            assert_eq!(nodes.len(), 3);
            let mut uniq = nodes.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas must be distinct");
        }
    }

    #[test]
    fn replication_clamps_to_cluster_size() {
        let mut nn = NameNode::new(2, 3);
        assert_eq!(nn.replication(), 2);
        let (_, nodes) = nn.allocate_block(NodeId(0));
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn file_lifecycle() {
        let mut nn = NameNode::new(3, 2);
        let (b0, _) = nn.allocate_block(NodeId(0));
        let (b1, _) = nn.allocate_block(NodeId(1));
        nn.commit_file(
            "/data/x",
            FileMeta {
                blocks: vec![b0, b1],
                len: 100,
            },
        );
        assert_eq!(nn.file("/data/x").unwrap().len, 100);
        assert_eq!(nn.list("/data"), vec!["/data/x".to_string()]);
        assert_eq!(nn.list("/other"), Vec::<String>::new());
        let blocks = nn.remove_file("/data/x").unwrap();
        assert_eq!(blocks, vec![b0, b1]);
        assert!(nn.file("/data/x").is_none());
        assert!(nn.locations(b0).is_empty());
    }

    #[test]
    fn fail_node_reports_fully_lost_blocks() {
        let mut nn = NameNode::new(2, 1);
        let (b, nodes) = nn.allocate_block(NodeId(0));
        assert_eq!(nodes, vec![NodeId(0)]);
        let lost = nn.fail_node(NodeId(0));
        assert_eq!(lost, vec![b]);
    }

    #[test]
    fn a_failed_node_gets_no_replica_and_re_replication_restores_the_factor() {
        let mut nn = NameNode::new(4, 3);
        let (b, before) = nn.allocate_block(NodeId(0));
        assert!(nn.fail_node(NodeId(0)).is_empty());
        assert_eq!(nn.locations(b).len(), 2);
        let copies = nn.re_replicate();
        assert_eq!(copies.len(), 1);
        assert_eq!(nn.locations(b).len(), 3);
        assert!(!nn.locations(b).contains(&NodeId(0)));
        assert_eq!(copies[0].1, before[1]);
        // Written on the failed node, a block lands on live nodes only.
        let (_, nodes) = nn.allocate_block(NodeId(0));
        assert_eq!(nodes.len(), 3);
        assert!(!nodes.contains(&NodeId(0)));
        // With one live node left, it holds every surviving block.
        nn.fail_node(NodeId(1));
        nn.fail_node(NodeId(2));
        nn.re_replicate();
        assert_eq!(nn.locations(b), [NodeId(3)]);
    }

    #[test]
    fn fail_node_keeps_replicated_blocks() {
        let mut nn = NameNode::new(3, 2);
        let (b, _) = nn.allocate_block(NodeId(0));
        let lost = nn.fail_node(NodeId(0));
        assert!(lost.is_empty());
        assert_eq!(nn.locations(b).len(), 1);
    }

    #[test]
    fn placement_spreads_over_cluster() {
        let mut nn = NameNode::new(8, 2);
        let mut counts = vec![0usize; 8];
        for _ in 0..80 {
            let (_, nodes) = nn.allocate_block(NodeId(0));
            counts[nodes[1].index()] += 1;
        }
        // Secondary replicas should not all land on one node.
        assert!(counts.iter().filter(|&&c| c > 0).count() >= 4, "{counts:?}");
    }
}
