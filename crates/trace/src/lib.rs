//! # imr-trace — structured tracing for iterative engines
//!
//! The paper's evaluation is about *where time goes* in an iterative
//! job: task init, shuffle, state handoff, and the §3.3 overlap of the
//! next iteration's maps with the previous iteration's reduces. This
//! crate records that as a stream of typed [`TraceEvent`]s in a
//! lock-free bounded ring ([`TraceBuffer`]), then turns the stream into
//! per-phase latency summaries and an async-overlap score
//! ([`TraceReport`]), a Chrome `trace_event` timeline
//! ([`chrome_trace_json`]), or a postmortem flight-recorder artifact
//! ([`flight_lines`]).
//!
//! The crate is deliberately free of dependencies — even workspace
//! ones — so every engine layer (core simulator, native threads, TCP
//! workers) can use it without cycles. Timestamps are plain `u64`
//! nanoseconds since an engine-chosen origin: the simulator passes
//! virtual-time (`VInstant`) nanoseconds, the native backend passes
//! monotonic wall-clock nanoseconds since run start. Events carry the
//! `(node, task, iteration, generation)` coordinates needed to line the
//! engines up; see `DESIGN.md` §9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod emit;
mod report;
mod ring;

pub use codec::{decode_events, encode_events};
pub use emit::{chrome_trace_json, flight_lines, flight_path};
pub use report::{async_overlap_score, canonical_kinds, PhaseStats, TraceReport};
pub use ring::TraceBuffer;

use std::sync::Arc;

/// Shared handle to a trace ring, cloned into every engine layer.
pub type TraceHandle = Arc<TraceBuffer>;

/// Tag value for events that belong to the run as a whole (the
/// coordinator/supervisor) rather than to one task.
pub const COORD: u32 = u32::MAX;

/// What happened. The phase kinds — map, reduce, hand-off, barrier
/// wait, checkpoint, and the two halves of a delta round — are spans
/// over `[start_nanos, end_nanos]` and are what the telemetry phase
/// histograms are fed from; the rest are instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A task began an iteration.
    IterStart,
    /// A task finished an iteration (state handed off).
    IterEnd,
    /// The map phase of one task-iteration.
    MapPhase,
    /// The reduce phase of one task-iteration.
    ReducePhase,
    /// One2one state handoff from a reduce to its paired map (spans
    /// reduce done → state delivered).
    StateHandoff {
        /// Encoded state bytes moved.
        bytes: u64,
    },
    /// One2all state broadcast contribution (spans reduce done → all
    /// parts exchanged).
    Broadcast {
        /// Encoded state bytes contributed.
        bytes: u64,
    },
    /// A checkpoint part was persisted (spans the write).
    Checkpoint {
        /// Iteration the checkpoint captures.
        epoch: u64,
    },
    /// Recovery rolled the job back to a checkpointed epoch.
    Rollback {
        /// Iteration execution resumes from.
        epoch: u64,
    },
    /// The load balancer moved a part between nodes.
    Migration {
        /// Source node.
        from: u32,
        /// Destination node.
        to: u32,
    },
    /// The watchdog declared a task stalled.
    StallDetected,
    /// A worker generation reconnected over the TCP transport.
    Reconnect {
        /// Generation number presented in the new handshake.
        generation: u64,
    },
    /// One barrier-free accumulative round on one task: select the
    /// highest-priority pending deltas, apply them, propagate the
    /// extracted deltas to peers (spans the round).
    DeltaRound {
        /// Delta pairs this task sent to peers during the round.
        deltas: u64,
    },
    /// One global accumulated-progress termination check under the
    /// accumulative mode.
    TerminationCheck {
        /// This task's local pending progress at the check, as the
        /// `f64::to_bits` pattern (lossless across the wire codec).
        progress_bits: u64,
    },
    /// A frame failed its wire integrity check (CRC/sequence mismatch)
    /// and the connection was torn down for replay.
    Corrupt {
        /// The frame sequence number the receiver expected.
        seq: u64,
    },
    /// The supervisor retried a generation after a no-progress
    /// recovery, charging the `NetPolicy` retry budget.
    Retry {
        /// Consecutive no-progress retries so far (1-based).
        attempt: u64,
    },
    /// `accept_workers` rejected a connection for a bad hello (wrong
    /// generation/job, out-of-range pair, garbage bytes).
    RejectedHello,
    /// Time a task spent blocked at the global synchronization barrier
    /// before starting an iteration (synchronous maps only).
    BarrierWait,
    /// The receive half of an accumulative round: merging the delta
    /// segments of every peer into the local store (the reduce role;
    /// [`DeltaRound`](TraceKind::DeltaRound) is the map role).
    DeltaMerge,
}

impl TraceKind {
    /// Stable display name, used by the flight recorder, the Chrome
    /// exporter and the cross-engine determinism tests.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::IterStart => "IterStart",
            TraceKind::IterEnd => "IterEnd",
            TraceKind::MapPhase => "MapPhase",
            TraceKind::ReducePhase => "ReducePhase",
            TraceKind::StateHandoff { .. } => "StateHandoff",
            TraceKind::Broadcast { .. } => "Broadcast",
            TraceKind::Checkpoint { .. } => "Checkpoint",
            TraceKind::Rollback { .. } => "Rollback",
            TraceKind::Migration { .. } => "Migration",
            TraceKind::StallDetected => "StallDetected",
            TraceKind::Reconnect { .. } => "Reconnect",
            TraceKind::DeltaRound { .. } => "DeltaRound",
            TraceKind::TerminationCheck { .. } => "TerminationCheck",
            TraceKind::Corrupt { .. } => "Corrupt",
            TraceKind::Retry { .. } => "Retry",
            TraceKind::RejectedHello => "RejectedHello",
            TraceKind::BarrierWait => "BarrierWait",
            TraceKind::DeltaMerge => "DeltaMerge",
        }
    }

    /// Canonical rank of this kind *within* one task-iteration: the
    /// final component of the cross-engine canonical sort key, and the
    /// kind's wire tag (so new kinds append).
    pub fn rank(&self) -> u8 {
        match self {
            TraceKind::IterStart => 0,
            TraceKind::MapPhase => 1,
            TraceKind::ReducePhase => 2,
            TraceKind::StateHandoff { .. } => 3,
            TraceKind::Broadcast { .. } => 4,
            TraceKind::IterEnd => 5,
            TraceKind::Checkpoint { .. } => 6,
            TraceKind::Rollback { .. } => 7,
            TraceKind::Migration { .. } => 8,
            TraceKind::StallDetected => 9,
            TraceKind::Reconnect { .. } => 10,
            TraceKind::DeltaRound { .. } => 11,
            TraceKind::TerminationCheck { .. } => 12,
            TraceKind::Corrupt { .. } => 13,
            TraceKind::Retry { .. } => 14,
            TraceKind::RejectedHello => 15,
            TraceKind::BarrierWait => 16,
            TraceKind::DeltaMerge => 17,
        }
    }

    fn tag(&self) -> u64 {
        self.rank() as u64
    }

    fn payload(&self) -> (u64, u64) {
        match *self {
            TraceKind::StateHandoff { bytes } | TraceKind::Broadcast { bytes } => (bytes, 0),
            TraceKind::Checkpoint { epoch } | TraceKind::Rollback { epoch } => (epoch, 0),
            TraceKind::Migration { from, to } => (from as u64, to as u64),
            TraceKind::Reconnect { generation } => (generation, 0),
            TraceKind::DeltaRound { deltas } => (deltas, 0),
            TraceKind::TerminationCheck { progress_bits } => (progress_bits, 0),
            TraceKind::Corrupt { seq } => (seq, 0),
            TraceKind::Retry { attempt } => (attempt, 0),
            TraceKind::IterStart
            | TraceKind::IterEnd
            | TraceKind::MapPhase
            | TraceKind::ReducePhase
            | TraceKind::StallDetected
            | TraceKind::RejectedHello
            | TraceKind::BarrierWait
            | TraceKind::DeltaMerge => (0, 0),
        }
    }

    fn from_parts(tag: u64, a: u64, b: u64) -> Option<TraceKind> {
        Some(match tag {
            0 => TraceKind::IterStart,
            1 => TraceKind::MapPhase,
            2 => TraceKind::ReducePhase,
            3 => TraceKind::StateHandoff { bytes: a },
            4 => TraceKind::Broadcast { bytes: a },
            5 => TraceKind::IterEnd,
            6 => TraceKind::Checkpoint { epoch: a },
            7 => TraceKind::Rollback { epoch: a },
            8 => TraceKind::Migration {
                from: a as u32,
                to: b as u32,
            },
            9 => TraceKind::StallDetected,
            10 => TraceKind::Reconnect { generation: a },
            11 => TraceKind::DeltaRound { deltas: a },
            12 => TraceKind::TerminationCheck { progress_bits: a },
            13 => TraceKind::Corrupt { seq: a },
            14 => TraceKind::Retry { attempt: a },
            15 => TraceKind::RejectedHello,
            16 => TraceKind::BarrierWait,
            17 => TraceKind::DeltaMerge,
            _ => return None,
        })
    }
}

/// One traced occurrence, fixed-size so the ring can store it as a
/// handful of atomic words and the wire codec as seven `u64`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the engine's origin at which the event (or
    /// span) began.
    pub start_nanos: u64,
    /// Span end; equals `start_nanos` for instantaneous events.
    pub end_nanos: u64,
    /// Node the task was placed on ([`COORD`] for run-wide events).
    pub node: u32,
    /// Task index ([`COORD`] for run-wide events).
    pub task: u32,
    /// Iteration number (1-based, 0 when not applicable).
    pub iteration: u32,
    /// Generation / recovery attempt the event belongs to.
    pub generation: u32,
    /// What happened.
    pub kind: TraceKind,
}

/// Number of `u64` words one encoded event occupies.
pub(crate) const EVENT_WORDS: usize = 7;

impl TraceEvent {
    /// A run-wide instant event with zeroed tags; refine with the
    /// builder methods.
    pub fn new(kind: TraceKind) -> TraceEvent {
        TraceEvent {
            start_nanos: 0,
            end_nanos: 0,
            node: COORD,
            task: COORD,
            iteration: 0,
            generation: 0,
            kind,
        }
    }

    /// Place the event at a single instant.
    pub fn at(mut self, nanos: u64) -> TraceEvent {
        self.start_nanos = nanos;
        self.end_nanos = nanos;
        self
    }

    /// Make the event a span over `[start, end]`.
    pub fn spanning(mut self, start_nanos: u64, end_nanos: u64) -> TraceEvent {
        self.start_nanos = start_nanos;
        self.end_nanos = end_nanos.max(start_nanos);
        self
    }

    /// Attach the engine coordinates.
    pub fn tagged(mut self, node: u32, task: u32, iteration: u32, generation: u32) -> TraceEvent {
        self.node = node;
        self.task = task;
        self.iteration = iteration;
        self.generation = generation;
        self
    }

    /// Span (or zero) duration in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos - self.start_nanos
    }

    pub(crate) fn to_words(self) -> [u64; EVENT_WORDS] {
        let (a, b) = self.kind.payload();
        [
            self.start_nanos,
            self.end_nanos,
            ((self.node as u64) << 32) | self.task as u64,
            ((self.iteration as u64) << 32) | self.generation as u64,
            self.kind.tag(),
            a,
            b,
        ]
    }

    pub(crate) fn from_words(w: [u64; EVENT_WORDS]) -> Option<TraceEvent> {
        Some(TraceEvent {
            start_nanos: w[0],
            end_nanos: w[1],
            node: (w[2] >> 32) as u32,
            task: w[2] as u32,
            iteration: (w[3] >> 32) as u32,
            generation: w[3] as u32,
            kind: TraceKind::from_parts(w[4], w[5], w[6])?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_kind() -> Vec<TraceKind> {
        vec![
            TraceKind::IterStart,
            TraceKind::IterEnd,
            TraceKind::MapPhase,
            TraceKind::ReducePhase,
            TraceKind::StateHandoff { bytes: 4096 },
            TraceKind::Broadcast { bytes: 17 },
            TraceKind::Checkpoint { epoch: 4 },
            TraceKind::Rollback { epoch: 2 },
            TraceKind::Migration { from: 1, to: 3 },
            TraceKind::StallDetected,
            TraceKind::Reconnect { generation: 2 },
            TraceKind::DeltaRound { deltas: 12 },
            TraceKind::TerminationCheck {
                progress_bits: 0.25f64.to_bits(),
            },
            TraceKind::Corrupt { seq: 41 },
            TraceKind::Retry { attempt: 2 },
            TraceKind::RejectedHello,
            TraceKind::BarrierWait,
            TraceKind::DeltaMerge,
        ]
    }

    #[test]
    fn words_round_trip_every_kind() {
        for (i, kind) in every_kind().into_iter().enumerate() {
            let ev = TraceEvent::new(kind)
                .spanning(10 * i as u64, 10 * i as u64 + 5)
                .tagged(i as u32, 2 * i as u32, 3, 1);
            assert_eq!(TraceEvent::from_words(ev.to_words()), Some(ev));
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut w = TraceEvent::new(TraceKind::IterStart).to_words();
        w[4] = 99;
        assert_eq!(TraceEvent::from_words(w), None);
    }

    #[test]
    fn ranks_are_distinct_and_match_tags() {
        let kinds = every_kind();
        let mut seen = std::collections::BTreeSet::new();
        for kind in &kinds {
            assert!(seen.insert(kind.rank()), "duplicate rank for {kind:?}");
        }
        assert_eq!(seen.len(), kinds.len());
    }

    #[test]
    fn spanning_clamps_inverted_ranges() {
        let ev = TraceEvent::new(TraceKind::MapPhase).spanning(10, 5);
        assert_eq!(ev.duration_nanos(), 0);
    }
}
