//! The structured-tracing subsystem end to end: the canonical event
//! sequence is identical across all engines (sim, native channel,
//! native TCP), scripted kills leave exactly one `Rollback` plus a
//! flight-recorder artifact in the DFS, and the trace-derived
//! async-overlap score validates the §3.3 pipeline claim.

use imapreduce::{FailureEvent, IterConfig, IterEngine};
use imr_algorithms::pagerank;
use imr_algorithms::sssp::{self, SsspIter};
use imr_algorithms::testutil::{imr_runner, imr_runner_on, native_runner, tcp_runner};
use imr_graph::dataset;
use imr_simcluster::{ClusterSpec, NodeId, TaskClock};
use imr_trace::{canonical_kinds, TraceBuffer, TraceHandle, TraceKind, TraceReport};
use std::sync::Arc;

fn handle() -> TraceHandle {
    Arc::new(TraceBuffer::with_capacity(1 << 14))
}

/// This package's worker binary.
const WORKER: &str = env!("CARGO_BIN_EXE_imr-worker");

/// The determinism satellite: SSSP, 4 tasks, synchronous maps, a
/// checkpoint every 2 of 6 iterations — the *ordered event-type
/// sequence* (timestamps excluded) must be identical for the
/// virtual-time engine, the native thread backend, and worker OS
/// processes over TCP with the coordinator-merged trace.
#[test]
fn canonical_trace_is_identical_across_all_three_engines() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let cfg = IterConfig::new("sssp", 4, 6)
        .with_sync_maps()
        .with_checkpoint_interval(2);

    let sim_trace = handle();
    let sim = imr_runner(4).with_trace(Arc::clone(&sim_trace));
    let a = sssp::run_sssp_imr(&sim, &g, 0, &cfg).unwrap();

    let chan_trace = handle();
    let chan = native_runner(4).with_trace(Arc::clone(&chan_trace));
    let b = sssp::run_sssp_imr(&chan, &g, 0, &cfg).unwrap();

    let tcp_trace = handle();
    let tcp = tcp_runner(4, WORKER, &["sssp"]).with_trace(Arc::clone(&tcp_trace));
    let c = sssp::run_sssp_imr(&tcp, &g, 0, &cfg).unwrap();

    // Results agree (the engines' existing contract) …
    assert_eq!(a.final_state, b.final_state);
    assert_eq!(a.final_state, c.final_state);

    // … and so do the traces, canonically ordered.
    let sim_kinds = canonical_kinds(&sim_trace.snapshot());
    let chan_kinds = canonical_kinds(&chan_trace.snapshot());
    let tcp_kinds = canonical_kinds(&tcp_trace.snapshot());
    assert!(!sim_kinds.is_empty(), "sim trace must not be empty");
    assert_eq!(sim_kinds, chan_kinds, "sim vs native-channel trace");
    assert_eq!(sim_kinds, tcp_kinds, "sim vs native-TCP merged trace");

    // Spot-check the expected event mix: per pair per iteration a full
    // span set, plus one Checkpoint per pair at iterations 2 and 4.
    let count = |k: &str| sim_kinds.iter().filter(|n| **n == k).count();
    assert_eq!(count("IterStart"), 4 * 6);
    assert_eq!(count("MapPhase"), 4 * 6);
    assert_eq!(count("ReducePhase"), 4 * 6);
    assert_eq!(count("StateHandoff"), 4 * 6);
    assert_eq!(count("IterEnd"), 4 * 6);
    assert_eq!(count("Checkpoint"), 4 * 2);
    assert_eq!(count("Rollback"), 0);
    assert_eq!(count("Reconnect"), 0);
}

/// The kill satellite, on both in-process engines: one scripted kill
/// produces exactly one `Rollback` in the trace and dumps a
/// flight-recorder artifact into the DFS that contains that event.
#[test]
fn scripted_kill_records_one_rollback_and_flight_artifact() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let cfg = IterConfig::new("sssp", 4, 6).with_checkpoint_interval(2);
    let failures = [FailureEvent {
        node: NodeId(0),
        at_iteration: 3,
    }];

    let engines: [(&str, Box<dyn Fn() -> _>); 2] = [
        (
            "sim",
            Box::new(|| {
                let t = handle();
                let r = imr_runner(4).with_trace(Arc::clone(&t));
                let out = sssp_run_faulted(&r, &g, &cfg, &failures);
                (t, out)
            }),
        ),
        (
            "native",
            Box::new(|| {
                let t = handle();
                let r = native_runner(4).with_trace(Arc::clone(&t));
                let out = sssp_run_faulted(&r, &g, &cfg, &failures);
                (t, out)
            }),
        ),
    ];
    for (label, run) in engines {
        let (trace, (recoveries, flight)) = run();
        assert_eq!(recoveries, 1, "{label}: one kill, one recovery");
        let events = trace.snapshot();
        let rollbacks = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Rollback { .. }))
            .count();
        assert_eq!(rollbacks, 1, "{label}: exactly one Rollback in trace");
        assert!(
            flight.contains("Rollback"),
            "{label}: flight artifact must contain the Rollback event, got:\n{flight}"
        );
        // The analyzer sees the same incident.
        let report = TraceReport::from_events(&events);
        assert_eq!(report.rollbacks, 1, "{label}");
        assert_eq!(report.migrations, 0, "{label}");
    }
}

/// Runs faulted SSSP on `runner` and returns the recovery count plus
/// the flight-recorder artifact the rollback dumped into the DFS.
fn sssp_run_faulted(
    runner: &impl IterEngine,
    g: &imr_graph::Graph,
    cfg: &IterConfig,
    failures: &[FailureEvent],
) -> (u64, String) {
    sssp::load_sssp_imr(runner, g, 0, cfg.num_tasks, "/s", "/t").unwrap();
    let out = runner
        .run(&SsspIter, cfg, "/s", "/t", "/o", failures)
        .unwrap();
    let path = imr_trace::flight_path("/o", 0);
    let mut clock = TaskClock::default();
    let bytes = runner
        .dfs()
        .read(&path, NodeId(0), &mut clock)
        .unwrap_or_else(|e| panic!("flight artifact {path} missing: {e:?}"));
    (out.recoveries, String::from_utf8_lossy(&bytes).into_owned())
}

/// §3.3 via traces: on a speed-skewed cluster, asynchronous map
/// activation overlaps predecessor reduces (score > 0) while the
/// synchronous mode never does (score exactly 0).
#[test]
fn async_overlap_score_separates_sync_from_async() {
    let g = dataset("PageRank-s").unwrap().generate(0.01);
    let mut spec = ClusterSpec::local(4).with_sample_scale(0.01);
    spec.nodes[0].speed = 0.5;

    let mut scores = Vec::new();
    for sync in [true, false] {
        let trace = handle();
        let r = imr_runner_on(spec.clone()).with_trace(Arc::clone(&trace));
        let mut cfg = IterConfig::new("pr", 4, 6);
        if sync {
            cfg = cfg.with_sync_maps();
        }
        pagerank::run_pagerank_imr(&r, &g, &cfg).unwrap();
        let report = TraceReport::from_events(&trace.snapshot());
        assert_eq!(report.iterations, 6);
        assert!(report.map.count >= 4 * 6);
        scores.push(report.async_overlap);
    }
    assert_eq!(scores[0], 0.0, "sync maps must show zero overlap");
    assert!(
        scores[1] > 0.0,
        "async maps must overlap predecessor reduces, got {}",
        scores[1]
    );
}

/// The TCP path merges worker-streamed batches into one causally
/// ordered trace: worker span events arrive tagged with the hosting
/// node and land alongside coordinator-side events in one buffer.
#[test]
fn tcp_trace_merges_worker_events_with_node_tags() {
    let g = dataset("DBLP").unwrap().generate(0.004);
    let cfg = IterConfig::new("sssp", 2, 4);
    let trace = handle();
    let tcp = tcp_runner(4, WORKER, &["sssp"]).with_trace(Arc::clone(&trace));
    sssp::run_sssp_imr(&tcp, &g, 0, &cfg).unwrap();
    let events = trace.snapshot();
    let maps: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::MapPhase))
        .collect();
    assert_eq!(maps.len(), 2 * 4, "one map span per pair per iteration");
    // Worker events are retagged coordinator-side from the assignment,
    // so both pairs' nodes appear.
    let nodes: std::collections::BTreeSet<u32> = maps.iter().map(|e| e.node).collect();
    assert_eq!(nodes.len(), 2, "two pairs on two distinct nodes");
    // Timestamps were rebased into the coordinator's clock: monotone
    // per (task, kind) within the run.
    for e in &events {
        assert!(e.end_nanos >= e.start_nanos);
    }
}
