//! Shared construction helpers for tests and the bench harness.

use imapreduce::IterativeRunner;
use imr_dfs::Dfs;
use imr_mapreduce::JobRunner;
use imr_native::{NativeRunner, WorkerSpec};
use imr_simcluster::{ClusterSpec, Metrics, MetricsHandle};
use std::sync::Arc;

/// Block size used by test fixtures: small enough to exercise
/// multi-block paths on toy data.
pub const TEST_BLOCK: u64 = 1 << 20;

/// An iMapReduce runner over a fresh local cluster of `n` nodes.
pub fn imr_runner(n: usize) -> IterativeRunner {
    imr_runner_on(ClusterSpec::local(n))
}

/// An iMapReduce runner over an arbitrary cluster spec.
pub fn imr_runner_on(spec: ClusterSpec) -> IterativeRunner {
    let spec = Arc::new(spec);
    let metrics: MetricsHandle = Arc::new(Metrics::default());
    let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 3, TEST_BLOCK);
    IterativeRunner::new(spec, dfs, metrics)
}

/// A native multi-threaded runner over a fresh local `n`-node DFS. The
/// node count only shapes DFS placement; parallelism comes from
/// `IterConfig::num_tasks` worker threads.
pub fn native_runner(n: usize) -> NativeRunner {
    native_runner_on(ClusterSpec::local(n))
}

/// A native multi-threaded runner over an arbitrary cluster spec: node
/// speeds below 1.0 are emulated by stretching hosted pairs' compute,
/// which is what the load-balancing tests exercise.
pub fn native_runner_on(spec: ClusterSpec) -> NativeRunner {
    let spec = Arc::new(spec);
    let metrics: MetricsHandle = Arc::new(Metrics::default());
    let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 3, TEST_BLOCK);
    NativeRunner::new(dfs, metrics)
}

/// A baseline MapReduce runner over a fresh local cluster of `n` nodes.
pub fn mr_runner(n: usize) -> JobRunner {
    mr_runner_on(ClusterSpec::local(n))
}

/// A baseline MapReduce runner over an arbitrary cluster spec.
pub fn mr_runner_on(spec: ClusterSpec) -> JobRunner {
    let spec = Arc::new(spec);
    let metrics: MetricsHandle = Arc::new(Metrics::default());
    let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 3, TEST_BLOCK);
    JobRunner::new(spec, dfs, metrics)
}

/// A native runner over a fresh local `n`-node DFS whose pairs run as
/// `bin` worker processes over TCP, each launched with `job_args` to
/// resolve the job (configs it runs must set
/// `IterConfig::with_tcp_transport`).
pub fn tcp_runner(n: usize, bin: &str, job_args: &[&str]) -> NativeRunner {
    let args = job_args.iter().map(|s| (*s).to_owned()).collect();
    native_runner(n).with_workers(WorkerSpec::new(bin, args))
}
