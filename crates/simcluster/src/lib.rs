//! # imr-simcluster — deterministic virtual-time cluster substrate
//!
//! The iMapReduce paper evaluates on a 4-node local cluster and on 20–80
//! Amazon EC2 instances. This crate replaces that hardware with a
//! deterministic simulation:
//!
//! * [`VInstant`]/[`VDuration`] — an exact, integer-nanosecond virtual
//!   timeline;
//! * [`TaskClock`] — Lamport-style per-task clocks that make
//!   the timeline a pure function of the dataflow, independent of host
//!   scheduling;
//! * [`CostModel`] — calibrated Hadoop-era cost constants (job setup,
//!   task launch, disk/network bandwidth, per-record CPU, sort);
//! * [`ClusterSpec`] — topology presets matching the paper's testbeds;
//! * [`Metrics`] — the byte/task counters behind the paper's
//!   communication-cost and factor-decomposition figures.
//!
//! Engines execute user code *for real* on real data; only *time* is
//! simulated. See `DESIGN.md` §5 for the full rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod cost;
mod metrics;
mod spec;
mod time;
mod timeline;

pub use clock::TaskClock;
pub use cost::{jitter_u01, CostModel};
pub use metrics::{Counter, Metrics, MetricsHandle, MetricsSnapshot, COUNTER_NAMES};
pub use spec::{ClusterSpec, NodeId, NodeSpec};
pub use time::{VDuration, VInstant};
pub use timeline::RunReport;

#[cfg(test)]
mod integration_tests {
    use super::*;
    use std::sync::Arc;

    /// A miniature two-stage pipeline computed purely with clocks:
    /// verifies that barrier semantics produce the textbook critical
    /// path, which is the foundation both engines build on.
    #[test]
    fn critical_path_of_a_two_stage_pipeline() {
        let spec = ClusterSpec::local(2);
        let cost = &spec.cost;

        // Two map tasks on different nodes with different input sizes.
        let mut map0 = TaskClock::default();
        let mut map1 = TaskClock::default();
        map0.advance(cost.compute_time(1_000, 100_000, spec.speed(NodeId(0))));
        map1.advance(cost.compute_time(4_000, 400_000, spec.speed(NodeId(1))));

        // Each ships 50 kB to a reducer on node 0.
        let a0 = map0.now() + spec.transfer_time(NodeId(0), NodeId(0), 50_000);
        let a1 = map1.now() + spec.transfer_time(NodeId(1), NodeId(0), 50_000);

        let mut reduce = TaskClock::default();
        reduce.barrier([a0, a1]);
        // The reducer cannot start before the slower mapper's data lands.
        assert!(reduce.now() >= map1.now());
        assert_eq!(reduce.now(), a0.max(a1));
    }

    #[test]
    fn metrics_are_shared_across_clones() {
        let m: MetricsHandle = Arc::new(Metrics::default());
        let m2 = Arc::clone(&m);
        m.dfs_read_bytes.add(123);
        assert_eq!(m2.dfs_read_bytes.get(), 123);
    }
}
