//! Umbrella crate for the iMapReduce reproduction workspace.
//!
//! Re-exports the member crates so integration tests and examples can use
//! a single dependency root.

#![forbid(unsafe_code)]

pub use imapreduce as core;
pub use imr_algorithms as algorithms;
pub use imr_dfs as dfs;
pub use imr_graph as graph;
pub use imr_jobs as jobs;
pub use imr_mapreduce as mapreduce;
pub use imr_native as native;
pub use imr_net as net;
pub use imr_records as records;
pub use imr_simcluster as simcluster;

pub mod worker;
