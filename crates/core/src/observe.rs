//! The one observability sink (DESIGN.md §9).
//!
//! An engine measures a phase once and emits it once, as an
//! `imr-trace` span event. The [`Observer`] fans that single event out
//! to whichever sinks the run has attached: the trace ring keeps the
//! event itself, and the telemetry registry is fed *from* it — the
//! span's own duration goes into the phase histogram [`phase_of`] maps
//! its kind to, `TerminationCheck` sets the pending-delta-mass gauge,
//! and `IterEnd` takes the per-iteration sample. So the histograms and
//! the trace can never disagree about what a phase cost.
//!
//! Every engine drives the same type: the simulator with virtual-time
//! stamps, the thread backend from each pair thread, and the TCP
//! coordinator both for its own events and when replaying the event
//! batches its workers ship.

use imr_simcluster::MetricsHandle;
use imr_telemetry::{Gauge, Phase, TelemetryHandle};
use imr_trace::{TraceEvent, TraceHandle, TraceKind};

/// The phase-latency histogram a span of this kind is an observation
/// of; `None` for kinds that are not phase spans.
pub fn phase_of(kind: TraceKind) -> Option<Phase> {
    match kind {
        TraceKind::MapPhase | TraceKind::DeltaRound { .. } => Some(Phase::Map),
        TraceKind::ReducePhase | TraceKind::DeltaMerge => Some(Phase::Reduce),
        TraceKind::StateHandoff { .. } | TraceKind::Broadcast { .. } => Some(Phase::Handoff),
        TraceKind::BarrierWait => Some(Phase::BarrierWait),
        TraceKind::Checkpoint { .. } => Some(Phase::CheckpointWrite),
        TraceKind::IterStart
        | TraceKind::IterEnd
        | TraceKind::Rollback { .. }
        | TraceKind::Migration { .. }
        | TraceKind::StallDetected
        | TraceKind::Reconnect { .. }
        | TraceKind::TerminationCheck { .. }
        | TraceKind::Corrupt { .. }
        | TraceKind::Retry { .. }
        | TraceKind::RejectedHello => None,
    }
}

/// How many trailing trace events the flight recorder dumps to a DFS
/// artifact when a rollback or migration fires.
const FLIGHT_WINDOW: usize = 64;

/// A run's optional trace ring and optional telemetry registry behind
/// one [`emit`](Observer::emit).
#[derive(Clone)]
pub struct Observer {
    /// The registry whose counters fill each sample's counter columns.
    metrics: MetricsHandle,
    trace: Option<TraceHandle>,
    telemetry: Option<TelemetryHandle>,
}

impl Observer {
    /// An observer with no sink attached; samples will snapshot
    /// `metrics`.
    pub fn new(metrics: MetricsHandle) -> Self {
        Observer {
            metrics,
            trace: None,
            telemetry: None,
        }
    }

    /// Attaches the trace ring events are kept in.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Attaches the telemetry registry events are folded into.
    pub fn attach_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = Some(telemetry);
    }

    /// Whether anything consumes emitted events. A TCP coordinator
    /// tells its workers, so an unobserved run ships no event batches.
    pub fn has_sink(&self) -> bool {
        self.trace.is_some() || self.telemetry.is_some()
    }

    /// The attached telemetry registry, for serving it.
    pub fn telemetry(&self) -> Option<&TelemetryHandle> {
        self.telemetry.as_ref()
    }

    /// Records one event in every attached sink.
    pub fn emit(&self, event: TraceEvent) {
        if let Some(trace) = &self.trace {
            trace.record(event);
        }
        let Some(tel) = &self.telemetry else {
            return;
        };
        if let Some(phase) = phase_of(event.kind) {
            tel.record_phase(phase, event.duration_nanos());
        }
        match event.kind {
            TraceKind::TerminationCheck { progress_bits } => {
                tel.set_gauge(Gauge::PendingDeltaMass, progress_bits);
            }
            TraceKind::IterEnd => tel.sample(
                event.end_nanos,
                event.task,
                event.generation,
                u64::from(event.iteration),
                &self.metrics.snapshot(),
            ),
            _ => {}
        }
    }

    /// The trailing `FLIGHT_WINDOW` events as flight-recorder lines,
    /// when a trace ring is attached.
    pub fn flight_lines(&self) -> Option<String> {
        let trace = self.trace.as_ref()?;
        Some(imr_trace::flight_lines(&trace.tail(FLIGHT_WINDOW)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imr_simcluster::Metrics;
    use imr_telemetry::Telemetry;
    use imr_trace::TraceBuffer;
    use std::sync::Arc;

    fn observed() -> (Observer, TraceHandle, TelemetryHandle) {
        let trace: TraceHandle = Arc::new(TraceBuffer::with_capacity(64));
        let tel: TelemetryHandle = Arc::new(Telemetry::default());
        let mut obs = Observer::new(Arc::new(Metrics::default()));
        assert!(!obs.has_sink());
        obs.attach_trace(Arc::clone(&trace));
        obs.attach_telemetry(Arc::clone(&tel));
        (obs, trace, tel)
    }

    #[test]
    fn a_phase_span_feeds_the_ring_and_its_histogram() {
        let (obs, trace, tel) = observed();
        obs.emit(
            TraceEvent::new(TraceKind::Checkpoint { epoch: 2 })
                .spanning(100, 350)
                .tagged(0, 1, 2, 0),
        );
        assert_eq!(trace.snapshot().len(), 1);
        let hists = tel.hist_snapshots();
        assert_eq!(hists[Phase::CheckpointWrite.index()].count(), 1);
        assert_eq!(hists[Phase::CheckpointWrite.index()].sum(), 250);
        assert!(tel.samples().is_empty());
    }

    #[test]
    fn iter_end_samples_with_the_gauge_the_check_set() {
        let (obs, _, tel) = observed();
        let progress_bits = 0.25f64.to_bits();
        obs.emit(TraceEvent::new(TraceKind::TerminationCheck { progress_bits }).at(40));
        obs.emit(
            TraceEvent::new(TraceKind::IterEnd)
                .at(50)
                .tagged(0, 3, 7, 1),
        );
        let samples = tel.samples();
        assert_eq!(samples.len(), 1);
        let s = samples[0];
        assert_eq!(
            (s.stamp_nanos, s.worker, s.generation, s.iteration),
            (50, 3, 1, 7)
        );
        assert_eq!(s.gauges[Gauge::PendingDeltaMass.index()], progress_bits);
    }
}
