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

/// All counters tracked by the simulation, shared via [`MetricsHandle`].
#[derive(Debug, Default)]
pub struct Metrics {
    /// Bytes moved map→reduce across the network (remote shuffle only).
    pub shuffle_remote_bytes: Counter,
    /// Bytes moved map→reduce on the same worker.
    pub shuffle_local_bytes: Counter,
    /// Bytes read remotely from the distributed file system.
    pub dfs_read_bytes: Counter,
    /// Bytes read from a node-local DFS replica. Still moves through
    /// the DataNode protocol (no short-circuit reads in 2011 Hadoop),
    /// so Fig. 11's exchanged-bytes metric includes it.
    pub dfs_local_read_bytes: Counter,
    /// Bytes written to the distributed file system (incl. replication).
    pub dfs_write_bytes: Counter,
    /// Bytes passed reduce→map over iMapReduce's persistent connections.
    pub state_handoff_bytes: Counter,
    /// Bytes broadcast reduce→all-maps (one2all mapping).
    pub broadcast_bytes: Counter,
    /// Bytes written by checkpointing.
    pub checkpoint_bytes: Counter,
    /// MapReduce jobs launched (every Hadoop iteration is ≥1 job).
    pub jobs_launched: Counter,
    /// Task attempts launched (persistent tasks count once).
    pub tasks_launched: Counter,
    /// Task migrations performed by load balancing.
    pub migrations: Counter,
    /// Stalled workers declared failed by the watchdog (hang faults on
    /// the native backend, modelled stall detection on the simulator).
    pub stalls_detected: Counter,
    /// Failure recoveries performed (checkpoint rollback + respawn).
    pub recoveries: Counter,
    /// Records passed through user map functions.
    pub map_input_records: Counter,
    /// Records passed through user reduce functions.
    pub reduce_input_records: Counter,
    /// Delta pairs propagated between tasks under the barrier-free
    /// accumulative mode (Maiter-style delta shuffle).
    pub deltas_sent: Counter,
    /// Pending keys deferred past a full priority batch under the
    /// accumulative mode's largest-delta-first scheduler.
    pub priority_preemptions: Counter,
    /// Global accumulated-progress termination checks performed under
    /// the accumulative mode.
    pub termination_checks: Counter,
    /// Frames that failed their wire integrity check (CRC/sequence
    /// mismatch: flipped bits, drops, duplicates).
    pub corrupt_frames: Counter,
    /// Worker reconnect attempts after a torn-down generation
    /// (reconnect-with-replay respawns).
    pub reconnect_attempts: Counter,
    /// Recovery retry budgets exhausted — the supervisor gave up on a
    /// run after `NetPolicy::retry_budget` no-progress retries.
    pub retries_exhausted: Counter,
    /// Faults injected by the deterministic network-chaos layer
    /// (drops, corruptions, duplicates, resets, stalls).
    pub chaos_injections: Counter,
    /// Connection attempts rejected during accept for a bad hello
    /// (wrong generation/job, out-of-range pair, garbage bytes).
    pub hellos_rejected: Counter,
}

impl Metrics {
    /// Total bytes that crossed the network for any reason.
    pub fn total_network_bytes(&self) -> u64 {
        self.shuffle_remote_bytes.get()
            + self.dfs_read_bytes.get()
            + self.dfs_write_bytes.get()
            + self.broadcast_bytes.get()
            + self.checkpoint_bytes.get()
    }

    /// Total bytes exchanged between tasks and with the DFS — the
    /// paper's Fig. 11 "total communication cost" notion: every shuffle
    /// byte (Hadoop's shuffle serializes through disk and HTTP fetch
    /// even on one machine), all DFS replica traffic, broadcasts,
    /// reduce→map hand-offs and checkpoints.
    pub fn total_exchanged_bytes(&self) -> u64 {
        self.total_network_bytes()
            + self.shuffle_local_bytes.get()
            + self.state_handoff_bytes.get()
            + self.dfs_local_read_bytes.get()
    }

    /// Every counter in declaration order. Whole-registry operations go
    /// through this list so a newly added counter cannot be forgotten
    /// by one of them.
    fn counters(&self) -> [&Counter; 23] {
        [
            &self.shuffle_remote_bytes,
            &self.shuffle_local_bytes,
            &self.dfs_read_bytes,
            &self.dfs_local_read_bytes,
            &self.dfs_write_bytes,
            &self.state_handoff_bytes,
            &self.broadcast_bytes,
            &self.checkpoint_bytes,
            &self.jobs_launched,
            &self.tasks_launched,
            &self.migrations,
            &self.stalls_detected,
            &self.recoveries,
            &self.map_input_records,
            &self.reduce_input_records,
            &self.deltas_sent,
            &self.priority_preemptions,
            &self.termination_checks,
            &self.corrupt_frames,
            &self.reconnect_attempts,
            &self.retries_exhausted,
            &self.chaos_injections,
            &self.hellos_rejected,
        ]
    }

    /// Clears every counter (between experiment runs or between the
    /// jobs of a multi-run comparison on one shared registry).
    pub fn reset_all(&self) {
        for counter in self.counters() {
            counter.reset();
        }
    }

    /// Clears every counter. Alias of [`Metrics::reset_all`], retained
    /// for existing call sites.
    pub fn reset(&self) {
        self.reset_all();
    }

    /// Adds `increments` ([`MetricsSnapshot::values`] order) counter by
    /// counter: how a registry kept in another process is folded into
    /// this one.
    pub fn add_values(&self, increments: &[u64]) {
        for (counter, &n) in self.counters().iter().zip(increments) {
            counter.add(n);
        }
    }

    /// A point-in-time snapshot of all counters, for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            shuffle_remote_bytes: self.shuffle_remote_bytes.get(),
            shuffle_local_bytes: self.shuffle_local_bytes.get(),
            dfs_read_bytes: self.dfs_read_bytes.get(),
            dfs_local_read_bytes: self.dfs_local_read_bytes.get(),
            dfs_write_bytes: self.dfs_write_bytes.get(),
            state_handoff_bytes: self.state_handoff_bytes.get(),
            broadcast_bytes: self.broadcast_bytes.get(),
            checkpoint_bytes: self.checkpoint_bytes.get(),
            jobs_launched: self.jobs_launched.get(),
            tasks_launched: self.tasks_launched.get(),
            migrations: self.migrations.get(),
            stalls_detected: self.stalls_detected.get(),
            recoveries: self.recoveries.get(),
            map_input_records: self.map_input_records.get(),
            reduce_input_records: self.reduce_input_records.get(),
            deltas_sent: self.deltas_sent.get(),
            priority_preemptions: self.priority_preemptions.get(),
            termination_checks: self.termination_checks.get(),
            corrupt_frames: self.corrupt_frames.get(),
            reconnect_attempts: self.reconnect_attempts.get(),
            retries_exhausted: self.retries_exhausted.get(),
            chaos_injections: self.chaos_injections.get(),
            hellos_rejected: self.hellos_rejected.get(),
        }
    }
}

/// Cheaply clonable shared handle to a [`Metrics`] registry.
pub type MetricsHandle = Arc<Metrics>;

/// Counter names in [`Metrics`] declaration order — the one schema
/// shared by [`MetricsSnapshot::values`], telemetry sampling and
/// reporting, so a counter added to the struct without a name here (or
/// vice versa) fails the length checks below at compile/test time.
pub const COUNTER_NAMES: [&str; 23] = [
    "shuffle_remote_bytes",
    "shuffle_local_bytes",
    "dfs_read_bytes",
    "dfs_local_read_bytes",
    "dfs_write_bytes",
    "state_handoff_bytes",
    "broadcast_bytes",
    "checkpoint_bytes",
    "jobs_launched",
    "tasks_launched",
    "migrations",
    "stalls_detected",
    "recoveries",
    "map_input_records",
    "reduce_input_records",
    "deltas_sent",
    "priority_preemptions",
    "termination_checks",
    "corrupt_frames",
    "reconnect_attempts",
    "retries_exhausted",
    "chaos_injections",
    "hellos_rejected",
];

/// Plain-data copy of the counters at one instant. Fields mirror
/// [`Metrics`] one-to-one.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`Metrics::shuffle_remote_bytes`].
    pub shuffle_remote_bytes: u64,
    /// See [`Metrics::shuffle_local_bytes`].
    pub shuffle_local_bytes: u64,
    /// See [`Metrics::dfs_read_bytes`].
    pub dfs_read_bytes: u64,
    /// See [`Metrics::dfs_local_read_bytes`].
    pub dfs_local_read_bytes: u64,
    /// See [`Metrics::dfs_write_bytes`].
    pub dfs_write_bytes: u64,
    /// See [`Metrics::state_handoff_bytes`].
    pub state_handoff_bytes: u64,
    /// See [`Metrics::broadcast_bytes`].
    pub broadcast_bytes: u64,
    /// See [`Metrics::checkpoint_bytes`].
    pub checkpoint_bytes: u64,
    /// See [`Metrics::jobs_launched`].
    pub jobs_launched: u64,
    /// See [`Metrics::tasks_launched`].
    pub tasks_launched: u64,
    /// See [`Metrics::migrations`].
    pub migrations: u64,
    /// See [`Metrics::stalls_detected`].
    pub stalls_detected: u64,
    /// See [`Metrics::recoveries`].
    pub recoveries: u64,
    /// See [`Metrics::map_input_records`].
    pub map_input_records: u64,
    /// See [`Metrics::reduce_input_records`].
    pub reduce_input_records: u64,
    /// See [`Metrics::deltas_sent`].
    pub deltas_sent: u64,
    /// See [`Metrics::priority_preemptions`].
    pub priority_preemptions: u64,
    /// See [`Metrics::termination_checks`].
    pub termination_checks: u64,
    /// See [`Metrics::corrupt_frames`].
    pub corrupt_frames: u64,
    /// See [`Metrics::reconnect_attempts`].
    pub reconnect_attempts: u64,
    /// See [`Metrics::retries_exhausted`].
    pub retries_exhausted: u64,
    /// See [`Metrics::chaos_injections`].
    pub chaos_injections: u64,
    /// See [`Metrics::hellos_rejected`].
    pub hellos_rejected: u64,
}

impl MetricsSnapshot {
    /// Counter values in [`COUNTER_NAMES`] order.
    pub fn values(&self) -> [u64; 23] {
        [
            self.shuffle_remote_bytes,
            self.shuffle_local_bytes,
            self.dfs_read_bytes,
            self.dfs_local_read_bytes,
            self.dfs_write_bytes,
            self.state_handoff_bytes,
            self.broadcast_bytes,
            self.checkpoint_bytes,
            self.jobs_launched,
            self.tasks_launched,
            self.migrations,
            self.stalls_detected,
            self.recoveries,
            self.map_input_records,
            self.reduce_input_records,
            self.deltas_sent,
            self.priority_preemptions,
            self.termination_checks,
            self.corrupt_frames,
            self.reconnect_attempts,
            self.retries_exhausted,
            self.chaos_injections,
            self.hellos_rejected,
        ]
    }

    /// `(name, value)` pairs in [`COUNTER_NAMES`] order.
    pub fn named(&self) -> [(&'static str, u64); 23] {
        let values = self.values();
        let mut out = [("", 0u64); 23];
        for (slot, (name, value)) in out.iter_mut().zip(COUNTER_NAMES.iter().zip(values)) {
            *slot = (name, value);
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
            + self.checkpoint_bytes
    }

    /// Total bytes exchanged (see [`Metrics::total_exchanged_bytes`]).
    pub fn total_exchanged_bytes(&self) -> u64 {
        self.total_network_bytes()
            + self.shuffle_local_bytes
            + self.state_handoff_bytes
            + self.dfs_local_read_bytes
    }

    /// Field-wise `self - earlier` (saturating): the counters one run
    /// added on a shared registry, given snapshots taken before and
    /// after it.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            shuffle_remote_bytes: self
                .shuffle_remote_bytes
                .saturating_sub(earlier.shuffle_remote_bytes),
            shuffle_local_bytes: self
                .shuffle_local_bytes
                .saturating_sub(earlier.shuffle_local_bytes),
            dfs_read_bytes: self.dfs_read_bytes.saturating_sub(earlier.dfs_read_bytes),
            dfs_local_read_bytes: self
                .dfs_local_read_bytes
                .saturating_sub(earlier.dfs_local_read_bytes),
            dfs_write_bytes: self.dfs_write_bytes.saturating_sub(earlier.dfs_write_bytes),
            state_handoff_bytes: self
                .state_handoff_bytes
                .saturating_sub(earlier.state_handoff_bytes),
            broadcast_bytes: self.broadcast_bytes.saturating_sub(earlier.broadcast_bytes),
            checkpoint_bytes: self
                .checkpoint_bytes
                .saturating_sub(earlier.checkpoint_bytes),
            jobs_launched: self.jobs_launched.saturating_sub(earlier.jobs_launched),
            tasks_launched: self.tasks_launched.saturating_sub(earlier.tasks_launched),
            migrations: self.migrations.saturating_sub(earlier.migrations),
            stalls_detected: self.stalls_detected.saturating_sub(earlier.stalls_detected),
            recoveries: self.recoveries.saturating_sub(earlier.recoveries),
            map_input_records: self
                .map_input_records
                .saturating_sub(earlier.map_input_records),
            reduce_input_records: self
                .reduce_input_records
                .saturating_sub(earlier.reduce_input_records),
            deltas_sent: self.deltas_sent.saturating_sub(earlier.deltas_sent),
            priority_preemptions: self
                .priority_preemptions
                .saturating_sub(earlier.priority_preemptions),
            termination_checks: self
                .termination_checks
                .saturating_sub(earlier.termination_checks),
            corrupt_frames: self.corrupt_frames.saturating_sub(earlier.corrupt_frames),
            reconnect_attempts: self
                .reconnect_attempts
                .saturating_sub(earlier.reconnect_attempts),
            retries_exhausted: self
                .retries_exhausted
                .saturating_sub(earlier.retries_exhausted),
            chaos_injections: self
                .chaos_injections
                .saturating_sub(earlier.chaos_injections),
            hellos_rejected: self.hellos_rejected.saturating_sub(earlier.hellos_rejected),
        }
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
        m.reset();
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
}
