//! Shared metrics counters.
//!
//! The communication-cost experiment (paper Fig. 11) and the factor
//! decomposition (Fig. 10) are read off these counters. They are plain
//! atomics so every task thread can charge them without locking.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One named monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (between experiment runs).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Declares the counter schema once. The [`Metrics`] registry, its
/// plain-data [`MetricsSnapshot`], [`COUNTER_NAMES`] and every
/// whole-registry operation are generated from the one field list
/// below, so they agree on the counters and their order by
/// construction.
macro_rules! counter_schema {
    ($($(#[$doc:meta])* $name:ident,)+) => {
        /// All counters tracked by the simulation, shared via
        /// [`MetricsHandle`].
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[$doc])* pub $name: Counter,)+
        }

        /// Counter names in [`Metrics`] declaration order — the schema
        /// shared by [`MetricsSnapshot::values`], telemetry sampling and
        /// reporting.
        pub const COUNTER_NAMES: [&str; COUNTERS] = [$(stringify!($name)),+];

        /// How many counters the schema declares.
        const COUNTERS: usize = [$(stringify!($name)),+].len();

        /// Plain-data copy of the counters at one instant. Fields mirror
        /// [`Metrics`] one-to-one.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl Metrics {
            /// Every counter in declaration order, for the
            /// whole-registry operations.
            fn counters(&self) -> [&Counter; COUNTERS] {
                [$(&self.$name),+]
            }

            /// A point-in-time snapshot of all counters, for reporting.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot { $($name: self.$name.get()),+ }
            }
        }

        impl MetricsSnapshot {
            /// Counter values in [`COUNTER_NAMES`] order.
            pub fn values(&self) -> [u64; COUNTERS] {
                [$(self.$name),+]
            }

            /// Field-wise `self - earlier` (saturating): the counters
            /// one run added on a shared registry, given snapshots taken
            /// before and after it.
            pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot { $($name: self.$name.saturating_sub(earlier.$name)),+ }
            }
        }
    };
}

counter_schema! {
    /// Bytes moved map→reduce across the network (remote shuffle only).
    shuffle_remote_bytes,
    /// Bytes moved map→reduce on the same worker.
    shuffle_local_bytes,
    /// Bytes read remotely from the distributed file system.
    dfs_read_bytes,
    /// Bytes read from a node-local DFS replica. Still moves through
    /// the DataNode protocol (no short-circuit reads in 2011 Hadoop),
    /// so Fig. 11's exchanged-bytes metric includes it.
    dfs_local_read_bytes,
    /// Bytes written to the distributed file system (incl. replication).
    dfs_write_bytes,
    /// Bytes passed reduce→map over iMapReduce's persistent connections.
    state_handoff_bytes,
    /// Bytes broadcast reduce→all-maps (one2all mapping).
    broadcast_bytes,
    /// Bytes written by checkpointing.
    checkpoint_bytes,
    /// MapReduce jobs launched (every Hadoop iteration is ≥1 job).
    jobs_launched,
    /// Task attempts launched (persistent tasks count once).
    tasks_launched,
    /// Task migrations performed by load balancing.
    migrations,
    /// Stalled workers declared failed by the watchdog (hang faults on
    /// the native backend, modelled stall detection on the simulator).
    stalls_detected,
    /// Failure recoveries performed (checkpoint rollback + respawn).
    recoveries,
    /// Records passed through user map functions.
    map_input_records,
    /// Records passed through user reduce functions.
    reduce_input_records,
    /// Delta pairs propagated between tasks under the barrier-free
    /// accumulative mode (Maiter-style delta shuffle).
    deltas_sent,
    /// Pending keys deferred past a full priority batch under the
    /// accumulative mode's largest-delta-first scheduler.
    priority_preemptions,
    /// Global accumulated-progress termination checks performed under
    /// the accumulative mode.
    termination_checks,
    /// Frames that failed their wire integrity check (CRC/sequence
    /// mismatch: flipped bits, drops, duplicates).
    corrupt_frames,
    /// Worker reconnect attempts after a torn-down generation
    /// (reconnect-with-replay respawns).
    reconnect_attempts,
    /// Recovery retry budgets exhausted — the supervisor gave up on a
    /// run after `NetPolicy::retry_budget` no-progress retries.
    retries_exhausted,
    /// Faults injected by the deterministic network-chaos layer
    /// (drops, corruptions, duplicates, resets, stalls).
    chaos_injections,
    /// Connection attempts rejected during accept for a bad hello
    /// (wrong generation/job, out-of-range pair, garbage bytes).
    hellos_rejected,
}

impl Metrics {
    /// Total bytes that crossed the network for any reason. A
    /// checkpoint's bytes count once, as the DFS replica traffic
    /// (`dfs_write_bytes`) they already are; `checkpoint_bytes` is a
    /// breakdown of that, not an addend.
    pub fn total_network_bytes(&self) -> u64 {
        self.snapshot().total_network_bytes()
    }

    /// Total bytes exchanged between tasks and with the DFS — the
    /// paper's Fig. 11 "total communication cost" notion: every shuffle
    /// byte (Hadoop's shuffle serializes through disk and HTTP fetch
    /// even on one machine), all DFS replica traffic, broadcasts,
    /// reduce→map hand-offs and checkpoints (once, through
    /// [`Metrics::total_network_bytes`]).
    pub fn total_exchanged_bytes(&self) -> u64 {
        self.snapshot().total_exchanged_bytes()
    }

    /// Clears every counter (between experiment runs or between the
    /// jobs of a multi-run comparison on one shared registry).
    pub fn reset_all(&self) {
        for counter in self.counters() {
            counter.reset();
        }
    }

    /// Adds `increments` ([`MetricsSnapshot::values`] order) counter by
    /// counter: how a registry kept in another process is folded into
    /// this one.
    pub fn add_values(&self, increments: &[u64]) {
        for (counter, &n) in self.counters().iter().zip(increments) {
            counter.add(n);
        }
    }
}

/// Cheaply clonable shared handle to a [`Metrics`] registry.
pub type MetricsHandle = Arc<Metrics>;

impl MetricsSnapshot {
    /// `(name, value)` pairs in [`COUNTER_NAMES`] order.
    pub fn named(&self) -> [(&'static str, u64); COUNTERS] {
        let mut out = [("", 0u64); COUNTERS];
        for (slot, pair) in out
            .iter_mut()
            .zip(COUNTER_NAMES.into_iter().zip(self.values()))
        {
            *slot = pair;
        }
        out
    }

    /// Total bytes that crossed the network (see
    /// [`Metrics::total_network_bytes`]).
    pub fn total_network_bytes(&self) -> u64 {
        self.shuffle_remote_bytes
            + self.dfs_read_bytes
            + self.dfs_write_bytes
            + self.broadcast_bytes
    }

    /// Total bytes exchanged (see [`Metrics::total_exchanged_bytes`]).
    pub fn total_exchanged_bytes(&self) -> u64 {
        self.total_network_bytes()
            + self.shuffle_local_bytes
            + self.state_handoff_bytes
            + self.dfs_local_read_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_accumulate_and_reset() {
        let m = Metrics::default();
        m.shuffle_remote_bytes.add(10);
        m.shuffle_remote_bytes.add(5);
        m.dfs_read_bytes.add(7);
        assert_eq!(m.shuffle_remote_bytes.get(), 15);
        assert_eq!(m.total_network_bytes(), 22);
        m.reset_all();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let m: MetricsHandle = Arc::new(Metrics::default());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..1_000 {
                        m.tasks_launched.add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.tasks_launched.get(), 8_000);
    }

    #[test]
    fn reset_all_clears_every_counter() {
        let m = Metrics::default();
        for counter in m.counters() {
            counter.add(1);
        }
        assert_ne!(m.snapshot(), MetricsSnapshot::default());
        m.reset_all();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn delta_isolates_one_runs_counters() {
        let m = Metrics::default();
        m.recoveries.add(2);
        m.migrations.add(1);
        let before = m.snapshot();
        m.recoveries.add(3);
        m.shuffle_local_bytes.add(100);
        let d = m.snapshot().delta(&before);
        assert_eq!(d.recoveries, 3);
        assert_eq!(d.migrations, 0);
        assert_eq!(d.shuffle_local_bytes, 100);
        // Saturating: a reset between snapshots cannot underflow.
        m.reset_all();
        assert_eq!(m.snapshot().delta(&before), MetricsSnapshot::default());
    }

    #[test]
    fn names_and_values_cover_every_counter() {
        let m = Metrics::default();
        assert_eq!(COUNTER_NAMES.len(), m.counters().len());
        // Charge each counter a distinct value through the registry and
        // check values() reads them back in declaration order.
        for (i, counter) in m.counters().iter().enumerate() {
            counter.add(i as u64 + 1);
        }
        let values = m.snapshot().values();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(
                *v,
                i as u64 + 1,
                "counter {} out of order",
                COUNTER_NAMES[i]
            );
        }
        let named = m.snapshot().named();
        for (i, (name, v)) in named.iter().enumerate() {
            assert_eq!(*name, COUNTER_NAMES[i]);
            assert_eq!(*v, i as u64 + 1);
        }
    }

    #[test]
    fn snapshot_matches_live_counters() {
        let m = Metrics::default();
        m.jobs_launched.add(3);
        m.state_handoff_bytes.add(99);
        let s = m.snapshot();
        assert_eq!(s.jobs_launched, 3);
        assert_eq!(s.state_handoff_bytes, 99);
        // Handoff bytes stay off the network tally: they ride a local pipe.
        assert_eq!(s.total_network_bytes(), 0);
    }

    #[test]
    fn a_checkpoint_counts_once() {
        // A checkpoint part replicated to two remote nodes: the DFS
        // counts its replica bytes, and the run also notes them as
        // checkpoint traffic.
        let m = Metrics::default();
        m.dfs_write_bytes.add(2 * 100);
        m.checkpoint_bytes.add(2 * 100);
        assert_eq!(m.total_network_bytes(), 200);
        assert_eq!(m.total_exchanged_bytes(), 200);
    }
}
