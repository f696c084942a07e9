//! Repetition hygiene for shared metrics registries (regression for a
//! harness that reuses one runner across its whole sweep): without
//! `Metrics::reset_all` between repetitions the fault counters
//! accumulate and every repetition after the first reports inflated
//! numbers.

use imapreduce::{FailureEvent, IterConfig};
use imr_algorithms::pagerank::{self, PageRankIter};
use imr_dfs::Dfs;
use imr_graph::dataset;
use imr_native::NativeRunner;
use imr_simcluster::{ClusterSpec, Metrics, MetricsHandle, MetricsSnapshot, NodeId};
use std::sync::Arc;

fn shared_runner() -> NativeRunner {
    let spec = Arc::new(ClusterSpec::local(4));
    let metrics: MetricsHandle = Arc::new(Metrics::default());
    let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 1, 1 << 26);
    NativeRunner::new(dfs, metrics)
}

/// One PageRank repetition with a scripted failure (one recovery) on
/// per-repetition DFS directories, as the bench binary runs them.
fn run_rep(r: &NativeRunner, rep: usize) {
    let g = dataset("PageRank-s").unwrap().generate(0.002);
    let state = format!("/pr{rep}/state");
    let stat = format!("/pr{rep}/static");
    let out = format!("/pr{rep}/out");
    pagerank::load_pagerank_imr(r, &g, 4, &state, &stat).expect("load");
    let cfg = IterConfig::new("pr-reset", 4, 4).with_checkpoint_interval(2);
    let failure = [FailureEvent {
        node: NodeId(1),
        at_iteration: 2,
    }];
    let job = PageRankIter::new(g.num_nodes() as u64);
    r.run(&job, &cfg, &state, &stat, &out, &failure)
        .expect("pagerank run");
}

#[test]
fn counters_accumulate_without_reset_and_delta_isolates() {
    let r = shared_runner();
    run_rep(&r, 0);
    let s1 = r.metrics().snapshot();
    assert_eq!(s1.recoveries, 1, "scripted failure recovers once");

    // Second repetition without reset: the registry keeps counting —
    // this is the inflation the bench binary used to report.
    run_rep(&r, 1);
    let s2 = r.metrics().snapshot();
    assert_eq!(s2.recoveries, 2, "shared registry accumulates");
    assert_eq!(
        s2.delta(&s1).recoveries,
        1,
        "delta recovers the per-repetition count"
    );
}

/// One delta-accumulative PageRank repetition on per-repetition DFS
/// directories, a quarter of the pending keys per round so the
/// priority scheduler defers keys.
fn run_delta_rep(r: &NativeRunner, rep: usize) {
    let g = dataset("PageRank-s").unwrap().generate(0.002);
    let state = format!("/prd{rep}/state");
    let stat = format!("/prd{rep}/static");
    let out = format!("/prd{rep}/out");
    pagerank::load_pagerank_imr(r, &g, 4, &state, &stat).expect("load");
    let cfg = IterConfig::new("prd-reset", 4, 200)
        .with_accumulative_mode()
        .with_distance_threshold(1e-6)
        .with_delta_share(4)
        .with_check_every(2);
    let job = PageRankIter::new(g.num_nodes() as u64);
    r.run_accumulative(&job, &cfg, &state, &stat, &out, &[])
        .expect("delta pagerank run");
}

/// The accumulative-mode counters (`deltas_sent`,
/// `priority_preemptions`, `termination_checks`) count per repetition
/// and are cleared by `reset_all` like every other counter, so a bench
/// sweep reusing one runner reports identical numbers each repetition.
#[test]
fn accumulative_counters_reset_between_repetitions() {
    let r = shared_runner();
    run_delta_rep(&r, 0);
    let s1 = r.metrics().snapshot();
    assert!(s1.deltas_sent > 0, "delta rounds must count sends");
    assert!(s1.priority_preemptions > 0, "share 4 must defer keys");
    assert!(s1.termination_checks > 0, "detector must count checks");

    r.metrics().reset_all();
    assert_eq!(
        r.metrics().snapshot(),
        MetricsSnapshot::default(),
        "reset_all clears the accumulative counters too"
    );

    run_delta_rep(&r, 1);
    let s2 = r.metrics().snapshot();
    assert_eq!(s2.deltas_sent, s1.deltas_sent, "repetitions are isolated");
    assert_eq!(s2.priority_preemptions, s1.priority_preemptions);
    assert_eq!(s2.termination_checks, s1.termination_checks);
}

/// The wire-robustness counters (`corrupt_frames`,
/// `reconnect_attempts`, `retries_exhausted`, `chaos_injections`,
/// `hellos_rejected`) ride the same snapshot/delta/reset machinery as
/// the fault counters, so chaos sweeps reusing one runner stay honest.
#[test]
fn wire_robustness_counters_snapshot_delta_and_reset() {
    let r = shared_runner();
    let m = r.metrics();
    m.corrupt_frames.add(3);
    m.reconnect_attempts.add(2);
    m.retries_exhausted.add(1);
    m.chaos_injections.add(7);
    m.hellos_rejected.add(4);
    let s1 = m.snapshot();
    assert_eq!(s1.corrupt_frames, 3);
    assert_eq!(s1.reconnect_attempts, 2);
    assert_eq!(s1.retries_exhausted, 1);
    assert_eq!(s1.chaos_injections, 7);
    assert_eq!(s1.hellos_rejected, 4);

    m.corrupt_frames.add(2);
    m.chaos_injections.add(1);
    let d = m.snapshot().delta(&s1);
    assert_eq!(d.corrupt_frames, 2);
    assert_eq!(d.chaos_injections, 1);
    assert_eq!(d.reconnect_attempts, 0);

    m.reset_all();
    assert_eq!(
        m.snapshot(),
        MetricsSnapshot::default(),
        "reset_all clears the wire-robustness counters too"
    );
}

#[test]
fn reset_all_between_repetitions_isolates_counters() {
    let r = shared_runner();
    run_rep(&r, 0);
    assert_eq!(r.metrics().snapshot().recoveries, 1);

    // The fix the bench binary applies: reset between repetitions.
    r.metrics().reset_all();
    assert_eq!(
        r.metrics().snapshot(),
        MetricsSnapshot::default(),
        "reset_all clears every counter"
    );
    run_rep(&r, 1);
    let s = r.metrics().snapshot();
    assert_eq!(s.recoveries, 1, "per-repetition counters after reset");
    assert_eq!(s.stalls_detected, 0);
    assert_eq!(s.migrations, 0);
}
