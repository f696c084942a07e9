//! # imr-dfs — simulated distributed file system (HDFS stand-in)
//!
//! Immutable block-structured files with configurable replication,
//! write-local placement, locality-aware reads and node-failure
//! semantics. Every operation charges virtual time to the caller's
//! [`TaskClock`](imr_simcluster::TaskClock) and counts network-crossing
//! bytes in the shared metrics, which is where the paper's DFS
//! load/dump overhead (limitation 1 of §2.2) becomes measurable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod name;
mod snapshot;

pub use client::{Dfs, DfsError, DEFAULT_BLOCK_SIZE};
pub use name::{BlockId, FileMeta, NameNode};
pub use snapshot::{
    hist_path, migration_epochs, migration_marker, resume_epoch, snapshot_dir, snapshot_epochs,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use bytes::Bytes;
    use imr_simcluster::{ClusterSpec, Metrics, NodeId, TaskClock};
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        /// Any payload round-trips through any block size, read from any
        /// node, failed or not — as long as a replica survives.
        #[test]
        fn payloads_round_trip(
            data in proptest::collection::vec(any::<u8>(), 0..2_000),
            block in 1u64..257,
            nodes in 2usize..6,
            repl in 1usize..4,
        ) {
            let fs = Dfs::with_block_size(
                Arc::new(ClusterSpec::local(nodes)),
                Arc::new(Metrics::default()),
                repl,
                block,
            );
            let mut clock = TaskClock::default();
            let payload = Bytes::from(data);
            fs.write("/p", payload.clone(), NodeId(0), &mut clock).unwrap();
            for reader in 0..nodes as u32 {
                let mut rc = TaskClock::default();
                prop_assert_eq!(fs.read("/p", NodeId(reader), &mut rc).unwrap(), payload.clone());
            }
            // Fail the writer; with replication >= 2 data must survive.
            fs.fail_node(NodeId(0), &mut clock);
            let mut rc = TaskClock::default();
            let read = fs.read("/p", NodeId(1), &mut rc);
            if repl.min(nodes) >= 2 || payload.is_empty() {
                prop_assert_eq!(read.unwrap(), payload);
            }
        }

        /// Virtual read time is monotone in payload size.
        #[test]
        fn read_time_monotone_in_size(small in 1usize..1_000, extra in 1usize..1_000) {
            let fs = Dfs::with_block_size(
                Arc::new(ClusterSpec::local(2)),
                Arc::new(Metrics::default()),
                1,
                1 << 16,
            );
            let mut clock = TaskClock::default();
            fs.write("/s", Bytes::from(vec![0u8; small]), NodeId(0), &mut clock).unwrap();
            fs.write("/l", Bytes::from(vec![0u8; small + extra]), NodeId(0), &mut clock).unwrap();
            let mut cs = TaskClock::default();
            fs.read("/s", NodeId(1), &mut cs).unwrap();
            let mut cl = TaskClock::default();
            fs.read("/l", NodeId(1), &mut cl).unwrap();
            prop_assert!(cl.now() >= cs.now());
        }
    }
}
