//! Fixed-boundary log2-bucket latency histograms.
//!
//! Bucket `i` counts observations `v` with `floor(log2(v)) == i`, i.e.
//! `v ∈ [2^i, 2^(i+1))`; zero lands in bucket 0. The boundaries are the
//! same for every histogram ever recorded, so quantiles from different
//! runs and engines compare directly.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets; covers the full `u64` nanosecond range.
pub const NUM_BUCKETS: usize = 64;

/// Bucket index of one observation.
fn bucket_of(nanos: u64) -> usize {
    if nanos <= 1 {
        0
    } else {
        63 - nanos.leading_zeros() as usize
    }
}

/// Inclusive upper boundary of bucket `i` (`2^(i+1) - 1`, saturating).
fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A live, lock-free latency histogram (plain relaxed atomics, like the
/// metrics counters: every pair thread records without locking).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `nanos`.
    pub fn record(&self, nanos: u64) {
        self.counts[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Plain-data copy of the current buckets.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data histogram: the reporting form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts.
    pub counts: [u64; NUM_BUCKETS],
    /// Sum of all recorded values (for means).
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            counts: [0; NUM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// The `q`-quantile (0..=1) as the upper boundary of the bucket
    /// where the cumulative count crosses `ceil(q * total)`. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// Median latency upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th-percentile latency upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_zero_in_bucket_zero() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1_023), 9);
        assert_eq!(bucket_of(1_024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(9), 1_023);
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn record_snapshot_quantiles() {
        let h = Histogram::default();
        for v in [100u64, 200, 300, 400, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum(), 1_001_000);
        assert_eq!(s.mean(), 200_200);
        // p50: rank 3 of 5 → the 300 observation's bucket [256, 512).
        assert_eq!(s.p50(), 511);
        // p99: rank 5 → the 1e6 observation's bucket [2^19, 2^20).
        assert_eq!(s.p99(), (1u64 << 20) - 1);
        assert_eq!(HistSnapshot::default().p50(), 0);
    }
}
