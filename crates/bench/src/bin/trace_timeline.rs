//! Trace-driven timeline of the §3.3 asynchronous map pipeline:
//! PageRank on the simulated cluster with tracing on, once with
//! synchronous maps and once asynchronous, on a speed-skewed cluster
//! (node 0 at half speed) so the reduce phases finish staggered and
//! eager map activation has something to overlap.
//!
//! Artifacts under `results/`:
//! - `trace_timeline.json` — the usual [`FigureResult`] with the
//!   per-mode overlap scores and phase latencies as notes;
//! - `trace_timeline.chrome.json` — the async run's span timeline in
//!   Chrome `trace_event` format (open in `chrome://tracing` or
//!   <https://ui.perfetto.dev>);
//! - `trace_timeline.jsonl` — one [`TraceReport::summary_line`] per
//!   mode.
//!
//! The binary asserts the paper's qualitative claim: the synchronous
//! run's async-overlap score is exactly zero, the asynchronous run's is
//! positive.

use imapreduce::{IterConfig, IterativeRunner};
use imr_algorithms::pagerank;
use imr_bench::{BenchOpts, FigureResult};
use imr_dfs::Dfs;
use imr_graph::dataset;
use imr_simcluster::{ClusterSpec, Metrics, MetricsHandle};
use imr_telemetry::{chrome_counter_track, Telemetry, TelemetryHandle};
use imr_trace::{chrome_trace_json, TraceBuffer, TraceHandle, TraceReport};
use std::sync::Arc;

const TASKS: usize = 4;

/// A sim runner with fresh trace and telemetry registries over a
/// 4-node cluster whose node 0 runs at half speed.
fn traced_runner(scale: f64) -> (IterativeRunner, TraceHandle, TelemetryHandle) {
    let mut spec = ClusterSpec::local(TASKS).with_sample_scale(scale);
    spec.nodes[0].speed = 0.5;
    let spec = Arc::new(spec);
    let metrics: MetricsHandle = Arc::new(Metrics::default());
    let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 3, 1 << 20);
    let trace: TraceHandle = Arc::new(TraceBuffer::with_capacity(1 << 16));
    let telemetry: TelemetryHandle = Arc::new(Telemetry::default());
    let runner = IterativeRunner::new(spec, dfs, metrics)
        .with_trace(Arc::clone(&trace))
        .with_telemetry(Arc::clone(&telemetry));
    (runner, trace, telemetry)
}

fn main() {
    let opts = BenchOpts::from_args();
    if opts.only.is_some() {
        eprintln!("trace_timeline runs no EXPERIMENTS entry: --only does not apply");
        std::process::exit(2);
    }
    let scale = opts.scale.unwrap_or(0.02);
    let iters = opts.iters.unwrap_or(8);

    let g = dataset("PageRank-s").unwrap().generate(scale);
    println!(
        "PageRank-s @ scale {scale}: {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );

    let mut fig = FigureResult::new(
        "trace_timeline",
        format!("Async map pipeline overlap from traces (PageRank, 4 tasks, scale {scale})"),
        "mode (0=sync, 1=async)",
        "async-overlap score",
    );
    fig.note(format!(
        "scale={scale}, iterations={iters}; node 0 at half speed; \
         virtual-time spans from the sim engine's trace buffer"
    ));

    let mut jsonl = String::new();
    let mut chrome = None;
    let mut overlap_pts = Vec::new();
    for (x, mode, sync) in [(0.0, "sync", true), (1.0, "async", false)] {
        let (r, trace, telemetry) = traced_runner(scale);
        let mut cfg = IterConfig::new("pr-trace", TASKS, iters);
        if sync {
            cfg = cfg.with_sync_maps();
        }
        pagerank::run_pagerank_imr(&r, &g, &cfg).expect("pagerank run");
        let events = trace.snapshot();
        let report = TraceReport::from_events(&events);
        println!(
            "  {mode}: {} events, overlap {:.4}, map mean {} ns, reduce mean {} ns",
            events.len(),
            report.async_overlap,
            report.map.mean_nanos(),
            report.reduce.mean_nanos(),
        );
        fig.note(format!(
            "{mode}: async_overlap={:.4}, iterations={}, map mean/max {}/{} ns, \
             reduce mean/max {}/{} ns, iter mean/max {}/{} ns",
            report.async_overlap,
            report.iterations,
            report.map.mean_nanos(),
            report.map.max_nanos,
            report.reduce.mean_nanos(),
            report.reduce.max_nanos,
            report.iter.mean_nanos(),
            report.iter.max_nanos,
        ));
        overlap_pts.push((x, report.async_overlap));
        jsonl.push_str(&report.summary_line(mode));
        jsonl.push('\n');
        if sync {
            assert_eq!(
                report.async_overlap, 0.0,
                "synchronous maps must show zero overlap"
            );
        } else {
            assert!(
                report.async_overlap > 0.0,
                "asynchronous maps must overlap predecessor reduces"
            );
            // Splice the sampled series in as Chrome counter tracks so
            // the span timeline carries per-worker iteration and queue
            // depth curves alongside the phases.
            let samples = telemetry.samples();
            let track = chrome_counter_track(&samples);
            assert!(
                !track.is_empty(),
                "the async run must produce telemetry samples"
            );
            let mut json = chrome_trace_json(&events);
            json.truncate(json.len() - "]}".len());
            json.push(',');
            json.push_str(&track);
            json.push_str("]}");
            chrome = Some(json);
            fig.note(format!(
                "counter tracks: {} samples across {TASKS} workers spliced into the \
                 chrome timeline",
                samples.len()
            ));
        }
    }
    fig.push_series("async overlap", overlap_pts);

    let dir = opts.out_root.join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(dir.join("trace_timeline.jsonl"), jsonl).expect("write jsonl");
    std::fs::write(
        dir.join("trace_timeline.chrome.json"),
        chrome.expect("async run produced a timeline"),
    )
    .expect("write chrome trace");
    println!(
        "  wrote {}/trace_timeline.chrome.json (load in chrome://tracing)",
        dir.display()
    );
    fig.emit(&opts.out_root);
}
