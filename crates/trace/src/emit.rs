//! Text emitters: Chrome `trace_event` JSON for `chrome://tracing` /
//! Perfetto, and the JSONL flight-recorder artifact dumped into the
//! DFS on fault-path events.

use crate::{TraceEvent, TraceKind, COORD};
use std::fmt::Write;

/// Render events in Chrome `trace_event` format (the JSON object form
/// with a `traceEvents` array). Spans become complete (`"ph":"X"`)
/// events, instants become instant (`"ph":"i"`) events; `pid` is the
/// node, `tid` the task, timestamps are microseconds.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_event(&mut out, event);
    }
    out.push_str("]}");
    out
}

fn write_event(out: &mut String, event: &TraceEvent) {
    let pid = ids(event.node);
    let ts = event.start_nanos as f64 / 1_000.0;
    let tid = ids(event.task);
    if event.end_nanos > event.start_nanos {
        let dur = event.duration_nanos() as f64 / 1_000.0;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"imr\",\"ph\":\"X\",\"ts\":{ts:.3},\
             \"dur\":{dur:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
            event.kind.name(),
            args_json(event),
        );
    } else {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"imr\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\
             \"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
            event.kind.name(),
            args_json(event),
        );
    }
}

/// One JSON line per event — the flight-recorder artifact format.
pub fn flight_lines(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        let _ = writeln!(
            out,
            "{{\"kind\":\"{}\",\"start_nanos\":{},\"end_nanos\":{},\"node\":{},\
             \"task\":{},\"iteration\":{},\"generation\":{},\"data\":{}}}",
            event.kind.name(),
            event.start_nanos,
            event.end_nanos,
            ids(event.node),
            ids(event.task),
            event.iteration,
            event.generation,
            data_json(event.kind),
        );
    }
    out
}

/// DFS path of the `seq`-th flight-recorder dump for a run writing to
/// `output_dir`. Mirrors the `_ckpt` marker-file idiom.
pub fn flight_path(output_dir: &str, seq: usize) -> String {
    format!("{}/_flight/rec-{seq:02}", output_dir.trim_end_matches('/'))
}

/// `COORD` renders as -1 so coordinator-scope events group under one
/// row instead of a huge unsigned id.
fn ids(id: u32) -> i64 {
    if id == COORD {
        -1
    } else {
        id as i64
    }
}

fn args_json(event: &TraceEvent) -> String {
    let data = data_json(event.kind);
    format!(
        "{{\"iteration\":{},\"generation\":{},\"data\":{data}}}",
        event.iteration, event.generation
    )
}

fn data_json(kind: TraceKind) -> String {
    match kind {
        TraceKind::StateHandoff { bytes } | TraceKind::Broadcast { bytes } => {
            format!("{{\"bytes\":{bytes}}}")
        }
        TraceKind::Checkpoint { epoch } | TraceKind::Rollback { epoch } => {
            format!("{{\"epoch\":{epoch}}}")
        }
        TraceKind::Migration { from, to } => format!("{{\"from\":{from},\"to\":{to}}}"),
        TraceKind::Reconnect { generation } => format!("{{\"generation\":{generation}}}"),
        TraceKind::DeltaRound { deltas } => format!("{{\"deltas\":{deltas}}}"),
        TraceKind::TerminationCheck { progress_bits } => {
            format!("{{\"progress\":{}}}", f64::from_bits(progress_bits))
        }
        TraceKind::Corrupt { seq } => format!("{{\"seq\":{seq}}}"),
        TraceKind::Retry { attempt } => format!("{{\"attempt\":{attempt}}}"),
        TraceKind::IterStart
        | TraceKind::IterEnd
        | TraceKind::MapPhase
        | TraceKind::ReducePhase
        | TraceKind::StallDetected
        | TraceKind::RejectedHello
        | TraceKind::BarrierWait
        | TraceKind::DeltaMerge => "{}".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_has_span_and_instant_events() {
        let events = vec![
            TraceEvent::new(TraceKind::MapPhase)
                .spanning(1_000, 3_000)
                .tagged(0, 1, 2, 0),
            TraceEvent::new(TraceKind::Rollback { epoch: 2 }).at(5_000),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"MapPhase\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"epoch\":2"));
        assert!(json.contains("\"pid\":-1"));
    }

    #[test]
    fn flight_lines_are_one_json_object_per_event() {
        let events = vec![
            TraceEvent::new(TraceKind::Checkpoint { epoch: 4 })
                .at(9)
                .tagged(1, 2, 4, 0),
            TraceEvent::new(TraceKind::Rollback { epoch: 4 }).at(10),
        ];
        let text = flight_lines(&events);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"kind\":\"Rollback\""));
        assert!(text.contains("\"epoch\":4"));
    }

    #[test]
    fn flight_path_matches_marker_idiom() {
        assert_eq!(flight_path("/out", 0), "/out/_flight/rec-00");
        assert_eq!(flight_path("/out/", 12), "/out/_flight/rec-12");
    }
}
