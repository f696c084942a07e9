//! The sampled time series: one flat-schema [`Sample`] per worker per
//! iteration boundary, retained in a bounded ring (newest wins).

use imr_simcluster::COUNTER_NAMES;
use std::collections::VecDeque;

/// Number of counter columns in a sample — every [`Metrics`]
/// (imr_simcluster::Metrics) counter, in declaration order.
pub const NUM_COUNTERS: usize = COUNTER_NAMES.len();

/// Number of gauge columns in a sample (see [`crate::Gauge`]).
pub const NUM_GAUGES: usize = 4;

/// Gauge column names, in [`crate::Gauge::index`] order.
pub const GAUGE_NAMES: [&str; NUM_GAUGES] = [
    "handoff_depth",
    "pending_delta_mass",
    "queue_len",
    "inflight_slots",
];

/// One point of the sampled series: the full counter registry plus the
/// gauges, stamped on the engine's clock (virtual nanos on sim,
/// monotonic nanos since run start on native) and tagged with the
/// worker and supervisor generation that recorded it. A kill/rollback
/// shows up as a generation transition in the worker's series — the
/// "series gap" the telemetry tests assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Engine-clock timestamp in nanoseconds.
    pub stamp_nanos: u64,
    /// Recording worker (pair index; `u32::MAX` for coordinator scope).
    pub worker: u32,
    /// Supervisor generation the worker was running in.
    pub generation: u32,
    /// Iteration (or accumulative check epoch) just completed.
    pub iteration: u64,
    /// Counter values in `COUNTER_NAMES` order.
    pub counters: [u64; NUM_COUNTERS],
    /// Gauge values in [`GAUGE_NAMES`] order.
    pub gauges: [u64; NUM_GAUGES],
}

/// Bounded sample ring: keeps the newest `capacity` samples and counts
/// what it evicted.
#[derive(Debug)]
pub(crate) struct SeriesRing {
    capacity: usize,
    buf: VecDeque<Sample>,
    dropped: u64,
}

impl SeriesRing {
    /// A ring retaining at most `capacity` samples (min 1).
    pub fn new(capacity: usize) -> Self {
        SeriesRing {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, sample: Sample) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(sample);
    }

    /// Retained samples, oldest first (insertion order).
    pub fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        self.buf.iter().copied()
    }

    /// Samples evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(stamp: u64) -> Sample {
        Sample {
            stamp_nanos: stamp,
            worker: 0,
            generation: 0,
            iteration: stamp,
            counters: [0; NUM_COUNTERS],
            gauges: [0; NUM_GAUGES],
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut ring = SeriesRing::new(3);
        for i in 0..5 {
            ring.push(sample(i));
        }
        assert_eq!(ring.dropped(), 2);
        let stamps: Vec<_> = ring.iter().map(|s| s.stamp_nanos).collect();
        assert_eq!(stamps, [2, 3, 4]);
    }

    #[test]
    fn gauge_schema_matches_columns() {
        assert_eq!(GAUGE_NAMES.len(), NUM_GAUGES);
        assert_eq!(NUM_COUNTERS, COUNTER_NAMES.len());
    }
}
