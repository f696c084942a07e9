//! Live telemetry for all four engines (DESIGN.md §9).
//!
//! Three layers, all hand-rolled like `crates/net`'s TCP and the bench
//! JSON module — zero external dependencies:
//!
//! * **Sampling** — every [`Metrics`](imr_simcluster::Metrics) counter
//!   plus a small gauge set (handoff-channel depth, pending delta mass,
//!   admission-queue length, in-flight slots) snapshotted into a
//!   ring-buffered time series at iteration boundaries. On the
//!   simulation engine the stamps are virtual nanos, so a run's series
//!   is bit-reproducible; on the native engines they are monotonic
//!   nanos since the run started — the same two clock conventions
//!   `imr-trace` uses.
//! * **Phase-latency histograms** — fixed-boundary log2 buckets
//!   ([`Histogram`]) for the map phase, reduce phase, reduce→map state
//!   handoff, barrier wait and checkpoint write.
//! * **Exposition** — [`Exposition`] renders Prometheus text format;
//!   [`TelemetryServer`] serves it over a tiny blocking HTTP listener,
//!   and the `imr-stat` CLI polls it.
//!
//! The shared registry is [`Telemetry`] (one per run or per job),
//! cheaply cloned as [`TelemetryHandle`]. Engines never call it
//! directly: they emit `imr-trace` span events into
//! `imapreduce::Observer`, which records each phase span's duration
//! here and takes the sample on `IterEnd` — on TCP the workers ship
//! only events and the coordinator's observer does the same.

#![forbid(unsafe_code)]

mod expo;
mod hist;
mod series;
mod server;

pub use expo::{chrome_counter_track, Exposition, JobStats};
pub use hist::{HistSnapshot, Histogram, NUM_BUCKETS};
pub use series::{Sample, GAUGE_NAMES, NUM_COUNTERS, NUM_GAUGES};
pub use server::{Provider, TelemetryServer};

use imr_simcluster::MetricsSnapshot;
use series::SeriesRing;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The five instrumented phases, one latency histogram each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// User map work for one iteration (activation → map done).
    Map,
    /// User reduce work for one iteration (inputs ready → reduce done).
    Reduce,
    /// Reduce→map state handoff (encode + transfer of the state part).
    Handoff,
    /// Time spent blocked at the global synchronization barrier.
    BarrierWait,
    /// Serializing and writing one checkpoint snapshot.
    CheckpointWrite,
}

/// Number of instrumented phases.
pub const NUM_PHASES: usize = 5;

/// Every phase, in [`Phase::index`] order.
pub const PHASES: [Phase; NUM_PHASES] = [
    Phase::Map,
    Phase::Reduce,
    Phase::Handoff,
    Phase::BarrierWait,
    Phase::CheckpointWrite,
];

impl Phase {
    /// Stable slot of this phase in histogram arrays and on the wire.
    pub fn index(self) -> usize {
        match self {
            Phase::Map => 0,
            Phase::Reduce => 1,
            Phase::Handoff => 2,
            Phase::BarrierWait => 3,
            Phase::CheckpointWrite => 4,
        }
    }

    /// Stable lowercase name, used as the Prometheus `phase` label.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Map => "map",
            Phase::Reduce => "reduce",
            Phase::Handoff => "handoff",
            Phase::BarrierWait => "barrier_wait",
            Phase::CheckpointWrite => "checkpoint_write",
        }
    }
}

/// The non-counter columns of a [`Sample`], settable from anywhere via
/// [`Telemetry::set_gauge`]. Order matches
/// [`GAUGE_NAMES`](crate::GAUGE_NAMES).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Unconsumed segments in this pair's reduce→map handoff channel.
    HandoffDepth,
    /// Accumulative mode: pending-delta mass still to converge
    /// (an `f64` stored as its bit pattern).
    PendingDeltaMass,
    /// Jobs waiting in the service admission queue.
    QueueLen,
    /// Fleet slots currently leased to running jobs.
    InflightSlots,
}

impl Gauge {
    /// Stable slot of this gauge in [`Sample::gauges`].
    pub fn index(self) -> usize {
        match self {
            Gauge::HandoffDepth => 0,
            Gauge::PendingDeltaMass => 1,
            Gauge::QueueLen => 2,
            Gauge::InflightSlots => 3,
        }
    }
}

/// One run's (or one job's) telemetry registry: five phase histograms,
/// the current gauge values, and the sampled time series ring.
pub struct Telemetry {
    hists: [Histogram; NUM_PHASES],
    gauges: [AtomicU64; NUM_GAUGES],
    series: Mutex<SeriesRing>,
}

/// Cheaply clonable shared handle to a [`Telemetry`] registry.
pub type TelemetryHandle = Arc<Telemetry>;

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::with_capacity(4096)
    }
}

impl Telemetry {
    /// A registry whose series ring keeps the newest `capacity` samples.
    pub fn with_capacity(capacity: usize) -> Self {
        Telemetry {
            hists: std::array::from_fn(|_| Histogram::default()),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            series: Mutex::new(SeriesRing::new(capacity)),
        }
    }

    /// Records one `phase` latency observation of `nanos`.
    pub fn record_phase(&self, phase: Phase, nanos: u64) {
        self.hists[phase.index()].record(nanos);
    }

    /// Sets a gauge to `value`; the next sample carries it.
    pub fn set_gauge(&self, gauge: Gauge, value: u64) {
        self.gauges[gauge.index()].store(value, Ordering::Relaxed);
    }

    /// Current values of all gauges, in [`Gauge::index`] order.
    pub fn gauges(&self) -> [u64; NUM_GAUGES] {
        std::array::from_fn(|i| self.gauges[i].load(Ordering::Relaxed))
    }

    /// Snapshots `metrics` plus the current gauges into the series as
    /// one sample stamped `stamp_nanos` for `worker`.
    pub fn sample(
        &self,
        stamp_nanos: u64,
        worker: u32,
        generation: u32,
        iteration: u64,
        metrics: &MetricsSnapshot,
    ) {
        let sample = Sample {
            stamp_nanos,
            worker,
            generation,
            iteration,
            counters: metrics.values(),
            gauges: self.gauges(),
        };
        self.series
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .push(sample);
    }

    /// The retained series, ordered by `(stamp, worker, iteration)` so
    /// two runs compare positionally regardless of thread arrival order.
    pub fn samples(&self) -> Vec<Sample> {
        let mut out = self
            .series
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .iter()
            .collect::<Vec<_>>();
        out.sort_by_key(|s| (s.stamp_nanos, s.worker, s.iteration, s.generation));
        out
    }

    /// Samples evicted from the ring so far (series longer than the
    /// ring capacity lose their oldest entries, never their newest).
    pub fn dropped_samples(&self) -> u64 {
        self.series
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .dropped()
    }

    /// Point-in-time snapshot of all five phase histograms.
    pub fn hist_snapshots(&self) -> [HistSnapshot; NUM_PHASES] {
        std::array::from_fn(|i| self.hists[i].snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_round_trip_through_index() {
        for (i, phase) in PHASES.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
        let names: Vec<_> = PHASES.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "map",
                "reduce",
                "handoff",
                "barrier_wait",
                "checkpoint_write"
            ]
        );
    }

    #[test]
    fn gauges_flow_into_samples() {
        let tel = Telemetry::default();
        tel.set_gauge(Gauge::QueueLen, 7);
        tel.set_gauge(Gauge::InflightSlots, 3);
        tel.sample(10, 0, 0, 1, &MetricsSnapshot::default());
        let samples = tel.samples();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].gauges[Gauge::QueueLen.index()], 7);
        assert_eq!(samples[0].gauges[Gauge::InflightSlots.index()], 3);
        assert_eq!(samples[0].gauges[Gauge::HandoffDepth.index()], 0);
    }

    #[test]
    fn samples_sort_by_stamp_then_worker() {
        let tel = Telemetry::default();
        tel.sample(20, 1, 0, 2, &MetricsSnapshot::default());
        tel.sample(10, 3, 0, 1, &MetricsSnapshot::default());
        tel.sample(10, 0, 0, 1, &MetricsSnapshot::default());
        let stamps: Vec<_> = tel
            .samples()
            .iter()
            .map(|s| (s.stamp_nanos, s.worker))
            .collect();
        assert_eq!(stamps, [(10, 0), (10, 3), (20, 1)]);
    }

    #[test]
    fn phase_records_land_in_their_histogram() {
        let tel = Telemetry::default();
        tel.record_phase(Phase::Map, 100);
        tel.record_phase(Phase::Map, 200);
        tel.record_phase(Phase::CheckpointWrite, 5_000);
        let snaps = tel.hist_snapshots();
        assert_eq!(snaps[Phase::Map.index()].count(), 2);
        assert_eq!(snaps[Phase::Map.index()].sum(), 300);
        assert_eq!(snaps[Phase::CheckpointWrite.index()].count(), 1);
        assert_eq!(snaps[Phase::Reduce.index()].count(), 0);
    }
}
