//! Run reports: the per-iteration timelines both engines emit and the
//! experiment harness plots.

use crate::metrics::MetricsSnapshot;
use crate::time::{VDuration, VInstant};

/// The outcome of one iterative run on one engine, in virtual time.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Engine/variant label, e.g. `"MapReduce"` or `"iMapReduce (sync.)"`.
    pub label: String,
    /// Virtual instant at which each iteration's results were complete
    /// (global, i.e. the max over all reduce tasks), index 0 = iteration 1.
    pub iteration_done: Vec<VInstant>,
    /// Virtual instant the whole run finished (final output on DFS).
    pub finished: VInstant,
    /// Metric counters accumulated during the run.
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// Number of iterations executed.
    pub fn iterations(&self) -> usize {
        self.iteration_done.len()
    }

    /// The per-iteration spans (iteration k end minus iteration k−1 end).
    pub fn iteration_spans(&self) -> Vec<VDuration> {
        let mut prev = VInstant::EPOCH;
        self.iteration_done
            .iter()
            .map(|&t| {
                let d = t.duration_since(prev);
                prev = t;
                d
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        RunReport {
            label: "test".into(),
            iteration_done: vec![
                VInstant::EPOCH + VDuration::from_secs(10),
                VInstant::EPOCH + VDuration::from_secs(18),
                VInstant::EPOCH + VDuration::from_secs(30),
            ],
            finished: VInstant::EPOCH + VDuration::from_secs(31),
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn cumulative_and_span_views_agree() {
        let r = report();
        assert_eq!(r.iterations(), 3);
        let spans = r.iteration_spans();
        assert_eq!(
            spans,
            vec![
                VDuration::from_secs(10),
                VDuration::from_secs(8),
                VDuration::from_secs(12)
            ]
        );
    }
}
