//! The DFS facade used by both engines.
//!
//! All operations take the caller's [`NodeId`] and [`TaskClock`] so the
//! simulation can charge locality-correct virtual time: local reads hit
//! disk, remote reads pay network transfer, and writes pay a
//! replication pipeline. Payloads are real bytes held in datanode
//! stores, so reads return exactly what was written.

use crate::name::{BlockId, FileMeta, NameNode};
use bytes::Bytes;
use imr_simcluster::{ClusterSpec, MetricsHandle, NodeId, TaskClock};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Default block size: Hadoop's 64 MB (paper §4.1).
pub const DEFAULT_BLOCK_SIZE: u64 = 64 * 1024 * 1024;

/// Errors surfaced by DFS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// No file exists at the path.
    NotFound(String),
    /// A file already exists at the path (files are immutable).
    AlreadyExists(String),
    /// Every replica of a needed block is gone.
    BlockLost(String),
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NotFound(p) => write!(f, "dfs: no such file {p}"),
            DfsError::AlreadyExists(p) => write!(f, "dfs: file exists {p}"),
            DfsError::BlockLost(p) => write!(f, "dfs: data lost for {p}"),
        }
    }
}

impl std::error::Error for DfsError {}

struct DfsInner {
    name: NameNode,
    /// Per-node block stores. `stores[n][b]` is the replica of block `b`
    /// on node `n`.
    stores: Vec<HashMap<BlockId, Bytes>>,
}

/// A simulated HDFS shared by every worker in one cluster.
#[derive(Clone)]
pub struct Dfs {
    inner: Arc<RwLock<DfsInner>>,
    spec: Arc<ClusterSpec>,
    metrics: MetricsHandle,
    block_size: u64,
}

impl Dfs {
    /// Creates a DFS over the given cluster with `replication` replicas
    /// per block and the default 64 MB block size.
    pub fn new(spec: Arc<ClusterSpec>, metrics: MetricsHandle, replication: usize) -> Self {
        Self::with_block_size(spec, metrics, replication, DEFAULT_BLOCK_SIZE)
    }

    /// As [`Dfs::new`] with an explicit block size (tests use small
    /// blocks to exercise multi-block paths cheaply).
    pub fn with_block_size(
        spec: Arc<ClusterSpec>,
        metrics: MetricsHandle,
        replication: usize,
        block_size: u64,
    ) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let n = spec.len();
        Dfs {
            inner: Arc::new(RwLock::new(DfsInner {
                name: NameNode::new(n, replication),
                stores: vec![HashMap::new(); n],
            })),
            spec,
            metrics,
            block_size,
        }
    }

    /// The cluster this DFS spans.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The configured block size.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Writes an immutable file, charging the writer's clock for the
    /// local disk write plus the replication pipeline to remote
    /// replicas. Remote replica bytes are counted as network traffic.
    pub fn write(
        &self,
        path: &str,
        data: Bytes,
        writer: NodeId,
        clock: &mut TaskClock,
    ) -> Result<(), DfsError> {
        let mut inner = self.inner.write();
        if inner.name.file(path).is_some() {
            return Err(DfsError::AlreadyExists(path.to_owned()));
        }
        let len = data.len() as u64;
        let mut blocks = Vec::new();
        let mut offset = 0u64;
        // Zero-length files still commit (with no blocks).
        while offset < len || (len == 0 && blocks.is_empty() && offset == 0) {
            let end = (offset + self.block_size).min(len);
            let chunk = data.slice(offset as usize..end as usize);
            let chunk_len = chunk.len() as u64;
            let (block, nodes) = inner.name.allocate_block(writer);
            // Local disk write on the primary replica.
            clock.advance(self.spec.cost.disk_time(chunk_len));
            // Pipeline to the remaining replicas: in HDFS the pipeline
            // is serial per block but overlapped with streaming; we
            // charge one network hop (the pipeline's bottleneck link)
            // plus the remote disk write in parallel across replicas.
            let remote_count = nodes.iter().filter(|&&n| n != writer).count() as u64;
            if remote_count > 0 {
                clock.advance(self.spec.cost.remote_transfer_time(chunk_len));
                self.metrics.dfs_write_bytes.add(chunk_len * remote_count);
            }
            for &n in &nodes {
                inner.stores[n.index()].insert(block, chunk.clone());
            }
            blocks.push(block);
            if len == 0 {
                break;
            }
            offset = end;
        }
        inner.name.commit_file(path, FileMeta { blocks, len });
        Ok(())
    }

    /// Reads a whole file from the replica set, preferring a replica
    /// local to `reader`. Remote block bytes are counted as network
    /// traffic and charged at network speed; local blocks at disk speed.
    /// A file held in one block — every file up to the block size — is
    /// that block's bytes, shared, not copied; a longer one is its
    /// blocks concatenated into a fresh buffer.
    pub fn read(
        &self,
        path: &str,
        reader: NodeId,
        clock: &mut TaskClock,
    ) -> Result<Bytes, DfsError> {
        let inner = self.inner.read();
        let meta = inner
            .name
            .file(path)
            .ok_or_else(|| DfsError::NotFound(path.to_owned()))?
            .clone();
        let whole = meta.blocks.len() == 1;
        let mut out = bytes::BytesMut::with_capacity(if whole { 0 } else { meta.len as usize });
        for block in &meta.blocks {
            // A failed node holds no replica.
            let live = inner.name.locations(*block);
            let source = if live.contains(&reader) {
                reader
            } else {
                *live
                    .first()
                    .ok_or_else(|| DfsError::BlockLost(path.to_owned()))?
            };
            let chunk = inner.stores[source.index()]
                .get(block)
                .cloned()
                .ok_or_else(|| DfsError::BlockLost(path.to_owned()))?;
            let chunk_len = chunk.len() as u64;
            // Source disk read, then the wire if remote.
            clock.advance(self.spec.cost.disk_time(chunk_len));
            if source != reader {
                clock.advance(self.spec.cost.remote_transfer_time(chunk_len));
                self.metrics.dfs_read_bytes.add(chunk_len);
            } else {
                self.metrics.dfs_local_read_bytes.add(chunk_len);
            }
            if whole {
                return Ok(chunk);
            }
            out.extend_from_slice(&chunk);
        }
        Ok(out.freeze())
    }

    /// File length without transferring data (namenode metadata call).
    pub fn len(&self, path: &str) -> Result<u64, DfsError> {
        self.inner
            .read()
            .name
            .file(path)
            .map(|m| m.len)
            .ok_or_else(|| DfsError::NotFound(path.to_owned()))
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.inner.read().name.file(path).is_some()
    }

    /// Paths under `prefix`, sorted.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.read().name.list(prefix)
    }

    /// Deletes a file and frees its blocks. Deleting a missing file is
    /// an error so engines notice bookkeeping bugs.
    pub fn delete(&self, path: &str) -> Result<(), DfsError> {
        let mut inner = self.inner.write();
        let blocks = inner
            .name
            .remove_file(path)
            .ok_or_else(|| DfsError::NotFound(path.to_owned()))?;
        for store in &mut inner.stores {
            for b in &blocks {
                store.remove(b);
            }
        }
        Ok(())
    }

    /// Overwrite helper: delete-if-exists then write. Iterative drivers
    /// use this for per-iteration output paths.
    pub fn put(
        &self,
        path: &str,
        data: Bytes,
        writer: NodeId,
        clock: &mut TaskClock,
    ) -> Result<(), DfsError> {
        if self.exists(path) {
            self.delete(path)?;
        }
        self.write(path, data, writer, clock)
    }

    /// Atomically renames `from` to `to`, replacing any existing file at
    /// `to` (POSIX rename semantics). Blocks do not move; this is a
    /// namenode metadata operation, so readers never observe a partially
    /// written file at `to`.
    pub fn rename(&self, from: &str, to: &str) -> Result<(), DfsError> {
        let mut inner = self.inner.write();
        if inner.name.file(from).is_none() {
            return Err(DfsError::NotFound(from.to_owned()));
        }
        if let Some(blocks) = inner.name.remove_file(to) {
            for store in &mut inner.stores {
                for b in &blocks {
                    store.remove(b);
                }
            }
        }
        let renamed = inner.name.rename_file(from, to);
        debug_assert!(renamed, "rename target still busy after removal");
        Ok(())
    }

    /// Crash-safe overwrite: writes to a hidden temporary file in the
    /// same directory, then renames over `path`. A reader (or a
    /// recovering worker) either sees the complete old file or the
    /// complete new one, never a torn write — which is what checkpoint
    /// snapshots require.
    pub fn put_atomic(
        &self,
        path: &str,
        data: Bytes,
        writer: NodeId,
        clock: &mut TaskClock,
    ) -> Result<(), DfsError> {
        let (dir, name) = path.rsplit_once('/').unwrap_or(("", path));
        // Hidden name: never matches the `part-` prefix listings used
        // for dataset enumeration.
        let tmp = format!("{dir}/.{name}.tmp");
        if self.exists(&tmp) {
            self.delete(&tmp)?;
        }
        self.write(&tmp, data, writer, clock)?;
        self.rename(&tmp, path)
    }

    /// Marks a node failed: its replicas become unreadable and it takes
    /// no new ones. Blocks whose last replica lived there are lost (reads
    /// will error); every other block is copied back up to the
    /// replication factor on live nodes, one copy after another on
    /// `clock` — a disk read at the source, then the wire — and the
    /// copied bytes are counted as replica write traffic.
    pub fn fail_node(&self, node: NodeId, clock: &mut TaskClock) {
        let mut inner = self.inner.write();
        inner.name.fail_node(node);
        inner.stores[node.index()].clear();
        for (block, from, to) in inner.name.re_replicate() {
            if let Some(chunk) = inner.stores[from.index()].get(&block).cloned() {
                let len = chunk.len() as u64;
                clock.advance(self.spec.cost.disk_time(len));
                clock.advance(self.spec.cost.remote_transfer_time(len));
                self.metrics.dfs_write_bytes.add(len);
                inner.stores[to.index()].insert(block, chunk);
            }
        }
    }

    /// Locality map: for each block of `path`, the nodes holding a live
    /// replica. The baseline engine's scheduler uses this to place map
    /// tasks near their splits.
    pub fn block_locations(&self, path: &str) -> Result<Vec<Vec<NodeId>>, DfsError> {
        let inner = self.inner.read();
        let meta = inner
            .name
            .file(path)
            .ok_or_else(|| DfsError::NotFound(path.to_owned()))?;
        Ok(meta
            .blocks
            .iter()
            .map(|b| inner.name.locations(*b).to_vec())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imr_simcluster::{Metrics, VDuration};

    fn dfs(n: usize, repl: usize, block: u64) -> Dfs {
        Dfs::with_block_size(
            Arc::new(ClusterSpec::local(n)),
            Arc::new(Metrics::default()),
            repl,
            block,
        )
    }

    #[test]
    fn write_then_read_round_trips() {
        let fs = dfs(4, 3, 16);
        let mut clock = TaskClock::default();
        let data = Bytes::from((0..100u8).collect::<Vec<_>>());
        fs.write("/f", data.clone(), NodeId(0), &mut clock).unwrap();
        assert!(clock.now().since_epoch() > VDuration::ZERO);
        assert_eq!(fs.len("/f").unwrap(), 100);
        let mut rclock = TaskClock::default();
        let back = fs.read("/f", NodeId(2), &mut rclock).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn local_read_is_cheaper_than_remote() {
        let fs = dfs(4, 1, 1 << 20);
        let mut clock = TaskClock::default();
        let data = Bytes::from(vec![7u8; 100_000]);
        fs.write("/f", data, NodeId(1), &mut clock).unwrap();
        let mut local = TaskClock::default();
        fs.read("/f", NodeId(1), &mut local).unwrap();
        let mut remote = TaskClock::default();
        fs.read("/f", NodeId(3), &mut remote).unwrap();
        assert!(local.now() < remote.now());
    }

    #[test]
    fn remote_reads_count_network_bytes() {
        let metrics = Arc::new(Metrics::default());
        let fs = Dfs::with_block_size(
            Arc::new(ClusterSpec::local(2)),
            Arc::clone(&metrics),
            1,
            1 << 20,
        );
        let mut clock = TaskClock::default();
        fs.write("/f", Bytes::from(vec![1u8; 5_000]), NodeId(0), &mut clock)
            .unwrap();
        fs.read("/f", NodeId(0), &mut clock).unwrap();
        assert_eq!(
            metrics.dfs_read_bytes.get(),
            0,
            "local read crossed network"
        );
        fs.read("/f", NodeId(1), &mut clock).unwrap();
        assert_eq!(metrics.dfs_read_bytes.get(), 5_000);
    }

    #[test]
    fn a_one_block_read_shares_the_block_and_charges_as_a_copy_did() {
        let metrics = Arc::new(Metrics::default());
        let fs = Dfs::with_block_size(
            Arc::new(ClusterSpec::local(2)),
            Arc::clone(&metrics),
            1,
            1 << 10,
        );
        let cost = fs.cluster().cost.clone();
        let data = Bytes::from((0..1000u32).map(|i| i as u8).collect::<Vec<_>>());
        fs.write("/one", data.clone(), NodeId(0), &mut TaskClock::default())
            .unwrap();
        let (mut local, mut remote) = (TaskClock::default(), TaskClock::default());
        let near = fs.read("/one", NodeId(0), &mut local).unwrap();
        let far = fs.read("/one", NodeId(1), &mut remote).unwrap();
        for back in [&near, &far] {
            assert_eq!(*back, data);
            assert_eq!(back.as_ptr(), data.as_ptr(), "the read copied the block");
        }
        let disk = cost.disk_time(1000);
        assert_eq!(local.now().since_epoch(), disk);
        assert_eq!(
            remote.now().since_epoch(),
            disk + cost.remote_transfer_time(1000)
        );
        assert_eq!(metrics.dfs_local_read_bytes.get(), 1000);
        assert_eq!(metrics.dfs_read_bytes.get(), 1000);

        // Three blocks: concatenated into a buffer of the reader's own,
        // each block charged.
        let long = Bytes::from((0..2500u32).map(|i| (i % 251) as u8).collect::<Vec<_>>());
        fs.write("/three", long.clone(), NodeId(0), &mut TaskClock::default())
            .unwrap();
        let mut clock = TaskClock::default();
        let back = fs.read("/three", NodeId(0), &mut clock).unwrap();
        assert_eq!(back, long);
        assert_ne!(back.as_ptr(), long.as_ptr());
        let blocks = cost.disk_time(1024) + cost.disk_time(1024) + cost.disk_time(452);
        assert_eq!(clock.now().since_epoch(), blocks);
        assert_eq!(metrics.dfs_local_read_bytes.get(), 1000 + 2500);
    }

    #[test]
    fn replication_counts_write_traffic() {
        let metrics = Arc::new(Metrics::default());
        let fs = Dfs::with_block_size(
            Arc::new(ClusterSpec::local(4)),
            Arc::clone(&metrics),
            3,
            1 << 20,
        );
        let mut clock = TaskClock::default();
        fs.write("/f", Bytes::from(vec![1u8; 1_000]), NodeId(0), &mut clock)
            .unwrap();
        // Two remote replicas of 1000 bytes each.
        assert_eq!(metrics.dfs_write_bytes.get(), 2_000);
    }

    #[test]
    fn re_replication_is_charged_and_counted() {
        let metrics = Arc::new(Metrics::default());
        let spec = Arc::new(ClusterSpec::local(4));
        let fs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 3, 1 << 20);
        let mut clock = TaskClock::default();
        fs.write("/f", Bytes::from(vec![1u8; 1_000]), NodeId(0), &mut clock)
            .unwrap();
        // Losing node 0 leaves two replicas; the third is copied to the
        // one live node without one: a disk read and a network hop.
        let mut lost = TaskClock::default();
        fs.fail_node(NodeId(0), &mut lost);
        assert_eq!(metrics.dfs_write_bytes.get(), 2_000 + 1_000);
        let copy = spec.cost.disk_time(1_000) + spec.cost.remote_transfer_time(1_000);
        assert_eq!(lost.now().since_epoch(), copy);
        assert_eq!(fs.block_locations("/f").unwrap()[0].len(), 3);
    }

    #[test]
    fn files_are_immutable_but_put_overwrites() {
        let fs = dfs(2, 1, 64);
        let mut clock = TaskClock::default();
        fs.write("/f", Bytes::from_static(b"one"), NodeId(0), &mut clock)
            .unwrap();
        assert_eq!(
            fs.write("/f", Bytes::from_static(b"two"), NodeId(0), &mut clock),
            Err(DfsError::AlreadyExists("/f".into()))
        );
        fs.put("/f", Bytes::from_static(b"two"), NodeId(0), &mut clock)
            .unwrap();
        assert_eq!(
            fs.read("/f", NodeId(0), &mut clock).unwrap(),
            Bytes::from_static(b"two")
        );
    }

    #[test]
    fn multi_block_files_split_and_reassemble() {
        let fs = dfs(3, 2, 10);
        let mut clock = TaskClock::default();
        let data = Bytes::from((0..37u8).collect::<Vec<_>>());
        fs.write("/big", data.clone(), NodeId(0), &mut clock)
            .unwrap();
        let locs = fs.block_locations("/big").unwrap();
        assert_eq!(locs.len(), 4); // ceil(37/10)
        assert!(locs.iter().all(|l| l.len() == 2));
        let back = fs.read("/big", NodeId(2), &mut clock).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn node_failure_falls_back_to_replicas() {
        let fs = dfs(3, 2, 1 << 20);
        let mut clock = TaskClock::default();
        fs.write("/f", Bytes::from_static(b"precious"), NodeId(0), &mut clock)
            .unwrap();
        fs.fail_node(NodeId(0), &mut clock);
        let back = fs.read("/f", NodeId(1), &mut clock).unwrap();
        assert_eq!(back, Bytes::from_static(b"precious"));
    }

    #[test]
    fn losing_all_replicas_is_an_error() {
        let fs = dfs(2, 1, 1 << 20);
        let mut clock = TaskClock::default();
        fs.write("/f", Bytes::from_static(b"gone"), NodeId(0), &mut clock)
            .unwrap();
        fs.fail_node(NodeId(0), &mut clock);
        assert_eq!(
            fs.read("/f", NodeId(1), &mut clock),
            Err(DfsError::BlockLost("/f".into()))
        );
    }

    #[test]
    fn delete_and_list() {
        let fs = dfs(2, 1, 64);
        let mut clock = TaskClock::default();
        fs.write("/a/1", Bytes::from_static(b"x"), NodeId(0), &mut clock)
            .unwrap();
        fs.write("/a/2", Bytes::from_static(b"y"), NodeId(0), &mut clock)
            .unwrap();
        fs.write("/b/1", Bytes::from_static(b"z"), NodeId(0), &mut clock)
            .unwrap();
        assert_eq!(fs.list("/a/"), vec!["/a/1".to_string(), "/a/2".to_string()]);
        fs.delete("/a/1").unwrap();
        assert!(!fs.exists("/a/1"));
        assert_eq!(fs.delete("/a/1"), Err(DfsError::NotFound("/a/1".into())));
    }

    #[test]
    fn rename_moves_metadata_and_overwrites() {
        let fs = dfs(3, 2, 64);
        let mut clock = TaskClock::default();
        fs.write("/d/a", Bytes::from_static(b"new"), NodeId(0), &mut clock)
            .unwrap();
        fs.write("/d/b", Bytes::from_static(b"old"), NodeId(1), &mut clock)
            .unwrap();
        fs.rename("/d/a", "/d/b").unwrap();
        assert!(!fs.exists("/d/a"));
        assert_eq!(
            fs.read("/d/b", NodeId(2), &mut clock).unwrap(),
            Bytes::from_static(b"new")
        );
        assert_eq!(
            fs.rename("/d/a", "/d/c"),
            Err(DfsError::NotFound("/d/a".into()))
        );
    }

    #[test]
    fn put_atomic_overwrites_and_leaves_no_tmp() {
        let fs = dfs(3, 2, 64);
        let mut clock = TaskClock::default();
        fs.put_atomic(
            "/ck/part-00000",
            Bytes::from_static(b"v1"),
            NodeId(0),
            &mut clock,
        )
        .unwrap();
        fs.put_atomic(
            "/ck/part-00000",
            Bytes::from_static(b"v2"),
            NodeId(1),
            &mut clock,
        )
        .unwrap();
        assert_eq!(
            fs.read("/ck/part-00000", NodeId(2), &mut clock).unwrap(),
            Bytes::from_static(b"v2")
        );
        // The temporary is hidden from `part-` listings and cleaned up.
        assert_eq!(fs.list("/ck/part-"), vec!["/ck/part-00000".to_string()]);
        assert_eq!(fs.list("/ck/."), Vec::<String>::new());
    }

    #[test]
    fn empty_file_round_trips() {
        let fs = dfs(2, 2, 64);
        let mut clock = TaskClock::default();
        fs.write("/empty", Bytes::new(), NodeId(0), &mut clock)
            .unwrap();
        assert_eq!(fs.len("/empty").unwrap(), 0);
        let back = fs.read("/empty", NodeId(1), &mut clock).unwrap();
        assert!(back.is_empty());
    }
}
