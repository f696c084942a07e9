//! One emit path, checked end to end: on every engine and in every
//! mode, each telemetry phase histogram holds exactly the trace spans
//! `imapreduce::phase_of` maps to it — same count, same summed
//! duration — because both are fed from the same emitted event.
//!
//! And the stream stays small: a pair emits a fixed handful of events
//! per iteration, the same number on every engine.

use imapreduce::{phase_of, IterConfig};
use imr_algorithms::testutil::{imr_runner, native_runner, tcp_runner};
use imr_algorithms::{kmeans, pagerank, sssp};
use imr_graph::{dataset, generate_points};
use imr_native::NativeRunner;
use imr_telemetry::{Phase, Telemetry, TelemetryHandle, PHASES};
use imr_trace::{TraceBuffer, TraceHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A fresh trace ring and telemetry registry for one run.
fn sinks() -> (TraceHandle, TelemetryHandle) {
    (
        Arc::new(TraceBuffer::with_capacity(1 << 15)),
        Arc::new(Telemetry::default()),
    )
}

/// Asserts histogram == spans for every phase, and that each phase in
/// `expected` was observed at all (so an engine that stopped emitting a
/// span cannot pass by recording nothing on both sides).
fn assert_hists_are_the_spans(
    label: &str,
    trace: &TraceHandle,
    tel: &TelemetryHandle,
    expected: &[Phase],
) {
    let events = trace.snapshot();
    let hists = tel.hist_snapshots();
    for phase in PHASES {
        let spans: Vec<u64> = events
            .iter()
            .filter(|e| phase_of(e.kind) == Some(phase))
            .map(|e| e.duration_nanos())
            .collect();
        let hist = &hists[phase.index()];
        let name = phase.name();
        assert_eq!(hist.count(), spans.len() as u64, "{label}: {name} count");
        assert_eq!(hist.sum(), spans.iter().sum::<u64>(), "{label}: {name} sum");
        assert_eq!(
            hist.count() > 0,
            expected.contains(&phase),
            "{label}: {name} observed"
        );
    }
}

/// The event budget: how many events one pair emits for one iteration,
/// as the set of distinct per-(pair, iteration) counts in the run — a
/// map/reduce iteration is `IterStart`, map, reduce, hand-off, barrier
/// wait, `IterEnd` (6); a delta round has no barrier (5); either gains
/// one `Checkpoint` span when it writes one. This is "cheap enough to
/// leave on" in a form that can fail: the counts repeat exactly on every
/// engine, whereas a wall-clock overhead ratio at this scale resolves
/// nothing. A span per record or per segment instead of per phase, or
/// an event outside any pair's iteration, changes the set.
fn assert_event_budget(label: &str, trace: &TraceHandle, budget: &[usize]) {
    let mut emitted: BTreeMap<(u32, u32), usize> = BTreeMap::new();
    for e in trace.snapshot() {
        *emitted.entry((e.task, e.iteration)).or_default() += 1;
    }
    let counts: BTreeSet<usize> = emitted.into_values().collect();
    assert_eq!(counts, budget.iter().copied().collect(), "{label}: budget");
}

/// This package's worker binary.
const WORKER: &str = env!("CARGO_BIN_EXE_imr-worker");

/// Synchronous one2one SSSP with a checkpoint every 2 of 6 iterations:
/// all five phases occur.
#[test]
fn sync_one2one_with_checkpoints() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let cfg = IterConfig::new("sssp", 4, 6)
        .with_sync_maps()
        .with_checkpoint_interval(2);
    let all = PHASES;

    let (trace, tel) = sinks();
    let sim = imr_runner(4)
        .with_trace(Arc::clone(&trace))
        .with_telemetry(Arc::clone(&tel));
    sssp::run_sssp_imr(&sim, &g, 0, &cfg).unwrap();
    assert_hists_are_the_spans("sim", &trace, &tel, &all);
    assert_event_budget("sim", &trace, &[6, 7]);

    let (trace, tel) = sinks();
    let chan = native_runner(4)
        .with_trace(Arc::clone(&trace))
        .with_telemetry(Arc::clone(&tel));
    sssp::run_sssp_imr(&chan, &g, 0, &cfg).unwrap();
    assert_hists_are_the_spans("threads", &trace, &tel, &all);
    assert_event_budget("threads", &trace, &[6, 7]);

    let (trace, tel) = sinks();
    let tcp = tcp_runner(4, WORKER, &["sssp"])
        .with_trace(Arc::clone(&trace))
        .with_telemetry(Arc::clone(&tel));
    sssp::run_sssp_imr(&tcp, &g, 0, &cfg).unwrap();
    assert_hists_are_the_spans("tcp", &trace, &tel, &all);
    assert_event_budget("tcp", &trace, &[6, 7]);
}

/// K-means: one2all broadcast (so the hand-off span is `Broadcast`),
/// inherently synchronous, no checkpoints.
#[test]
fn one2all_broadcast() {
    let points = generate_points(400, 5, 3, 77);
    let cfg = IterConfig::new("km", 4, 5).with_one2all();
    let expected = [
        Phase::Map,
        Phase::Reduce,
        Phase::Handoff,
        Phase::BarrierWait,
    ];

    let (trace, tel) = sinks();
    let sim = imr_runner(4)
        .with_trace(Arc::clone(&trace))
        .with_telemetry(Arc::clone(&tel));
    kmeans::run_kmeans_imr(&sim, &points, 3, &cfg, false).unwrap();
    assert_hists_are_the_spans("sim", &trace, &tel, &expected);
    assert_event_budget("sim", &trace, &[6]);

    let (trace, tel) = sinks();
    let chan = native_runner(4)
        .with_trace(Arc::clone(&trace))
        .with_telemetry(Arc::clone(&tel));
    kmeans::run_kmeans_imr(&chan, &points, 3, &cfg, false).unwrap();
    assert_hists_are_the_spans("threads", &trace, &tel, &expected);
    assert_event_budget("threads", &trace, &[6]);

    let (trace, tel) = sinks();
    let tcp = tcp_runner(4, WORKER, &["kmeans", "0"])
        .with_trace(Arc::clone(&trace))
        .with_telemetry(Arc::clone(&tel));
    kmeans::run_kmeans_imr(&tcp, &points, 3, &cfg, false).unwrap();
    assert_hists_are_the_spans("tcp", &trace, &tel, &expected);
    assert_event_budget("tcp", &trace, &[6]);
}

/// Delta-accumulative PageRank: the round's two halves (`DeltaRound`,
/// `DeltaMerge`) feed the map and reduce histograms, and every check but
/// the last checkpoints the store; no barrier, no hand-off.
#[test]
fn delta_mode() {
    let g = dataset("Google").unwrap().generate(0.003);
    let nodes = g.num_nodes().to_string();
    let cfg = IterConfig::new("prd", 4, 400)
        .with_accumulative_mode()
        .with_distance_threshold(1e-6)
        .with_checkpoint_interval(1);
    let expected = [Phase::Map, Phase::Reduce, Phase::CheckpointWrite];

    let (trace, tel) = sinks();
    let sim = imr_runner(4)
        .with_trace(Arc::clone(&trace))
        .with_telemetry(Arc::clone(&tel));
    pagerank::run_pagerank_delta(&sim, &g, &cfg).unwrap();
    assert_hists_are_the_spans("sim", &trace, &tel, &expected);
    assert_event_budget("sim", &trace, &[5, 6]);

    let (trace, tel) = sinks();
    let chan = native_runner(4)
        .with_trace(Arc::clone(&trace))
        .with_telemetry(Arc::clone(&tel));
    pagerank::run_pagerank_delta(&chan, &g, &cfg).unwrap();
    assert_hists_are_the_spans("threads", &trace, &tel, &expected);
    assert_event_budget("threads", &trace, &[5, 6]);

    let (trace, tel) = sinks();
    let tcp = tcp_runner(4, WORKER, &["pagerank", &nodes])
        .with_trace(Arc::clone(&trace))
        .with_telemetry(Arc::clone(&tel));
    pagerank::run_pagerank_delta(&tcp, &g, &cfg).unwrap();
    assert_hists_are_the_spans("tcp", &trace, &tel, &expected);
    assert_event_budget("tcp", &trace, &[5, 6]);
}

/// The counters the pair loop (and the kernel under it) increments on
/// the data path. One counting rule — the loop counts, the environment
/// delivers — means a clean run reports the same value for each of them
/// whichever fabric carried it.
const DATA_PATH_COUNTERS: [&str; 10] = [
    "map_input_records",
    "reduce_input_records",
    "state_handoff_bytes",
    "shuffle_local_bytes",
    "broadcast_bytes",
    "checkpoint_bytes",
    "tasks_launched",
    "deltas_sent",
    "priority_preemptions",
    "termination_checks",
];

fn data_path_counters(runner: &NativeRunner) -> Vec<(&'static str, u64)> {
    let all = runner.metrics().snapshot().named();
    let picked: Vec<_> = all
        .into_iter()
        .filter(|(name, _)| DATA_PATH_COUNTERS.contains(name))
        .collect();
    assert_eq!(picked.len(), DATA_PATH_COUNTERS.len());
    picked
}

/// Asserts threads == TCP on every data-path counter, and that each
/// counter in `nonzero` moved at all (so two fabrics that both stopped
/// counting cannot pass by agreeing on zero).
fn assert_fabrics_count_alike(
    label: &str,
    chan: &NativeRunner,
    tcp: &NativeRunner,
    nonzero: &[&str],
) {
    let threads = data_path_counters(chan);
    assert_eq!(threads, data_path_counters(tcp), "{label}: threads vs tcp");
    for (name, value) in threads {
        assert_eq!(
            value > 0,
            nonzero.contains(&name),
            "{label}: {name} = {value}"
        );
    }
}

/// Clean runs of the three shapes above, without sinks: the thread
/// run's and the TCP run's registries agree on every data-path counter.
#[test]
fn data_path_counters_agree_across_fabrics() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let cfg = IterConfig::new("sssp", 4, 6)
        .with_sync_maps()
        .with_checkpoint_interval(2);
    let chan = native_runner(4);
    sssp::run_sssp_imr(&chan, &g, 0, &cfg).unwrap();
    let tcp = tcp_runner(4, WORKER, &["sssp"]);
    sssp::run_sssp_imr(&tcp, &g, 0, &cfg).unwrap();
    let one2one = [
        "map_input_records",
        "reduce_input_records",
        "state_handoff_bytes",
        "shuffle_local_bytes",
        "checkpoint_bytes",
        "tasks_launched",
    ];
    assert_fabrics_count_alike("sssp", &chan, &tcp, &one2one);

    let points = generate_points(400, 5, 3, 77);
    let cfg = IterConfig::new("km", 4, 5).with_one2all();
    let chan = native_runner(4);
    kmeans::run_kmeans_imr(&chan, &points, 3, &cfg, false).unwrap();
    let tcp = tcp_runner(4, WORKER, &["kmeans", "0"]);
    kmeans::run_kmeans_imr(&tcp, &points, 3, &cfg, false).unwrap();
    let one2all = [
        "map_input_records",
        "reduce_input_records",
        "shuffle_local_bytes",
        "broadcast_bytes",
        "tasks_launched",
    ];
    assert_fabrics_count_alike("kmeans", &chan, &tcp, &one2all);

    let g = dataset("Google").unwrap().generate(0.003);
    let nodes = g.num_nodes().to_string();
    let cfg = IterConfig::new("prd", 4, 400)
        .with_accumulative_mode()
        .with_distance_threshold(1e-6)
        .with_checkpoint_interval(1);
    let chan = native_runner(4);
    pagerank::run_pagerank_delta(&chan, &g, &cfg).unwrap();
    let tcp = tcp_runner(4, WORKER, &["pagerank", &nodes]);
    pagerank::run_pagerank_delta(&tcp, &g, &cfg).unwrap();
    let delta = [
        "shuffle_local_bytes",
        "checkpoint_bytes",
        "tasks_launched",
        "deltas_sent",
        "termination_checks",
    ];
    assert_fabrics_count_alike("delta pagerank", &chan, &tcp, &delta);
}
