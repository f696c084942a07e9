//! Turning an event stream into numbers: per-phase latency summaries
//! (count / mean / max — the histograms live in `imr-telemetry`), the
//! §3.3 async-overlap score, and the canonical cross-engine ordering
//! used by the determinism tests.

use crate::{TraceEvent, TraceKind};
use std::collections::BTreeMap;

/// Latency summary for one phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStats {
    /// Spans observed.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub total_nanos: u64,
    /// Longest span, nanoseconds.
    pub max_nanos: u64,
}

impl PhaseStats {
    fn add(&mut self, nanos: u64) {
        self.count += 1;
        self.total_nanos += nanos;
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Mean span duration in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }
}

/// Aggregated view of one trace, produced by
/// [`TraceReport::from_events`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Highest iteration number seen.
    pub iterations: u32,
    /// Map-phase latency summary.
    pub map: PhaseStats,
    /// Reduce-phase latency summary.
    pub reduce: PhaseStats,
    /// Whole-iteration latency summary (per-task `IterStart` →
    /// `IterEnd`).
    pub iter: PhaseStats,
    /// Fraction of map-phase time at iteration `k+1` spent while some
    /// reduce phase of iteration `k` was still running — the §3.3
    /// async-pipeline overlap. Exactly 0 for synchronous runs, positive
    /// when eager map activation pays off.
    pub async_overlap: f64,
    /// `Rollback` events observed.
    pub rollbacks: u64,
    /// `Migration` events observed.
    pub migrations: u64,
    /// `StallDetected` events observed.
    pub stalls: u64,
    /// `Reconnect` events observed.
    pub reconnects: u64,
}

impl TraceReport {
    /// Aggregate an event stream.
    pub fn from_events(events: &[TraceEvent]) -> TraceReport {
        let mut report = TraceReport::default();
        let mut iter_starts: BTreeMap<(u32, u32, u32), u64> = BTreeMap::new();
        for event in events {
            report.iterations = report.iterations.max(event.iteration);
            let key = (event.generation, event.iteration, event.task);
            match event.kind {
                TraceKind::MapPhase => report.map.add(event.duration_nanos()),
                TraceKind::ReducePhase => report.reduce.add(event.duration_nanos()),
                TraceKind::IterStart => {
                    iter_starts.insert(key, event.start_nanos);
                }
                TraceKind::IterEnd => {
                    if let Some(start) = iter_starts.remove(&key) {
                        report.iter.add(event.end_nanos.saturating_sub(start));
                    }
                }
                TraceKind::Rollback { .. } => report.rollbacks += 1,
                TraceKind::Migration { .. } => report.migrations += 1,
                TraceKind::StallDetected => report.stalls += 1,
                TraceKind::Reconnect { .. } => report.reconnects += 1,
                TraceKind::StateHandoff { .. }
                | TraceKind::Broadcast { .. }
                | TraceKind::Checkpoint { .. }
                | TraceKind::DeltaRound { .. }
                | TraceKind::TerminationCheck { .. }
                | TraceKind::Corrupt { .. }
                | TraceKind::Retry { .. }
                | TraceKind::RejectedHello
                | TraceKind::BarrierWait
                | TraceKind::DeltaMerge => {}
            }
        }
        report.async_overlap = async_overlap_score(events);
        report
    }

    /// One JSONL summary line for this report.
    pub fn summary_line(&self, mode: &str) -> String {
        format!(
            concat!(
                "{{\"mode\":\"{}\",\"iterations\":{},\"async_overlap\":{:.6},",
                "\"map_mean_ns\":{},\"map_max_ns\":{},",
                "\"reduce_mean_ns\":{},\"reduce_max_ns\":{},",
                "\"iter_mean_ns\":{},\"iter_max_ns\":{},",
                "\"rollbacks\":{},\"migrations\":{},\"stalls\":{},\"reconnects\":{}}}"
            ),
            mode,
            self.iterations,
            self.async_overlap,
            self.map.mean_nanos(),
            self.map.max_nanos,
            self.reduce.mean_nanos(),
            self.reduce.max_nanos,
            self.iter.mean_nanos(),
            self.iter.max_nanos,
            self.rollbacks,
            self.migrations,
            self.stalls,
            self.reconnects,
        )
    }
}

/// Fraction of map-phase time at iteration `k+1` that overlaps *any*
/// reduce phase of iteration `k` within the same generation.
///
/// Timestamps only ever compare within one engine's run here, so the
/// score is meaningful for both virtual-time and wall-clock traces.
pub fn async_overlap_score(events: &[TraceEvent]) -> f64 {
    let mut reduces: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
    for event in events {
        if let TraceKind::ReducePhase = event.kind {
            reduces
                .entry((event.generation, event.iteration))
                .or_default()
                .push((event.start_nanos, event.end_nanos));
        }
    }
    for spans in reduces.values_mut() {
        spans.sort_unstable();
        // Merge into disjoint intervals so overlapping reduces are not
        // double-counted against one map span.
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for &(start, end) in spans.iter() {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        *spans = merged;
    }

    let mut map_total = 0u64;
    let mut overlap_total = 0u64;
    for event in events {
        if !matches!(event.kind, TraceKind::MapPhase) || event.iteration < 2 {
            continue;
        }
        map_total += event.duration_nanos();
        let Some(prev) = reduces.get(&(event.generation, event.iteration - 1)) else {
            continue;
        };
        for &(start, end) in prev {
            let lo = start.max(event.start_nanos);
            let hi = end.min(event.end_nanos);
            overlap_total += hi.saturating_sub(lo);
        }
    }
    if map_total == 0 {
        0.0
    } else {
        overlap_total as f64 / map_total as f64
    }
}

/// The canonical event ordering compared across engines: sort by
/// `(generation, iteration, task, kind rank)` — everything *except*
/// timestamps, which legitimately differ between virtual time and the
/// two wall-clock backends — and return the kind names.
pub fn canonical_kinds(events: &[TraceEvent]) -> Vec<&'static str> {
    let mut keyed: Vec<_> = events
        .iter()
        .map(|e| ((e.generation, e.iteration, e.task, e.kind.rank()), e.kind))
        .collect();
    keyed.sort_unstable_by_key(|(key, _)| *key);
    keyed.into_iter().map(|(_, kind)| kind.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: TraceKind, task: u32, iteration: u32, start: u64, end: u64) -> TraceEvent {
        TraceEvent::new(kind)
            .spanning(start, end)
            .tagged(task, task, iteration, 0)
    }

    #[test]
    fn overlap_is_zero_when_maps_follow_all_reduces() {
        let events = vec![
            span(TraceKind::ReducePhase, 0, 1, 0, 10),
            span(TraceKind::ReducePhase, 1, 1, 0, 12),
            span(TraceKind::MapPhase, 0, 2, 12, 20),
            span(TraceKind::MapPhase, 1, 2, 13, 21),
        ];
        assert_eq!(async_overlap_score(&events), 0.0);
    }

    #[test]
    fn overlap_measures_eager_map_activation() {
        // Task 0's map at iteration 2 runs [10, 20]; task 1's reduce at
        // iteration 1 is still running until 15 → 5 of 10 map nanos
        // overlap.
        let events = vec![
            span(TraceKind::ReducePhase, 0, 1, 0, 10),
            span(TraceKind::ReducePhase, 1, 1, 0, 15),
            span(TraceKind::MapPhase, 0, 2, 10, 20),
        ];
        assert!((async_overlap_score(&events) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlapping_reduces_are_not_double_counted() {
        let events = vec![
            span(TraceKind::ReducePhase, 0, 1, 0, 10),
            span(TraceKind::ReducePhase, 1, 1, 0, 10),
            span(TraceKind::MapPhase, 0, 2, 5, 10),
        ];
        // Union of reduces is [0,10]; the map overlaps fully, not 2x.
        assert!((async_overlap_score(&events) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_iteration_maps_are_excluded() {
        let events = vec![span(TraceKind::MapPhase, 0, 1, 0, 10)];
        assert_eq!(async_overlap_score(&events), 0.0);
    }

    #[test]
    fn report_counts_phases_and_faults() {
        let events = vec![
            span(TraceKind::IterStart, 0, 1, 0, 0),
            span(TraceKind::MapPhase, 0, 1, 0, 4),
            span(TraceKind::ReducePhase, 0, 1, 4, 10),
            span(TraceKind::IterEnd, 0, 1, 11, 11),
            TraceEvent::new(TraceKind::Rollback { epoch: 2 }).at(12),
            TraceEvent::new(TraceKind::StallDetected).at(13),
        ];
        let report = TraceReport::from_events(&events);
        assert_eq!(report.iterations, 1);
        assert_eq!(report.map.count, 1);
        assert_eq!(report.map.mean_nanos(), 4);
        assert_eq!(report.reduce.total_nanos, 6);
        assert_eq!(report.iter.count, 1);
        assert_eq!(report.iter.max_nanos, 11);
        assert_eq!(report.rollbacks, 1);
        assert_eq!(report.stalls, 1);
        assert_eq!(report.migrations, 0);
        let line = report.summary_line("sync");
        assert!(line.contains("\"mode\":\"sync\""));
        assert!(line.contains("\"async_overlap\""));
    }

    #[test]
    fn canonical_kinds_ignores_timestamps() {
        // Same logical events, wildly different timestamps and physical
        // arrival order — identical canonical sequence.
        let a = vec![
            span(TraceKind::IterStart, 0, 1, 0, 0),
            span(TraceKind::MapPhase, 0, 1, 0, 5),
            span(TraceKind::IterStart, 1, 1, 1, 1),
            span(TraceKind::MapPhase, 1, 1, 1, 6),
        ];
        let b = vec![
            span(TraceKind::MapPhase, 1, 1, 900, 950),
            span(TraceKind::IterStart, 0, 1, 7, 7),
            span(TraceKind::MapPhase, 0, 1, 100, 200),
            span(TraceKind::IterStart, 1, 1, 3, 3),
        ];
        assert_eq!(canonical_kinds(&a), canonical_kinds(&b));
        assert_eq!(
            canonical_kinds(&a),
            vec!["IterStart", "MapPhase", "IterStart", "MapPhase"]
        );
    }
}
