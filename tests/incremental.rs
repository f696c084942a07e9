//! Incremental iterative computation (i2MapReduce-style, DESIGN.md
//! §13) across every engine: the warm re-convergence after a
//! [`GraphDelta`] must equal a cold recompute on the mutated graph —
//! exactly for the min-lattice workloads (SSSP, connected components),
//! within the termination detector's residual for PageRank — and must
//! agree bit-for-bit between the virtual-time sim, the native channel
//! fabric and TCP worker processes. A kill mid-incremental-run replays
//! through the shared checkpoint/rollback supervisor to a bit-identical
//! outcome.

use imapreduce::IterOutcome;
use imapreduce::{EngineError, FaultEvent, GraphDelta, IterConfig, IterEngine, PatchStats};
use imr_algorithms::concomp::ConCompIter;
use imr_algorithms::incremental::{
    converge_and_preserve, converge_cold, inc_dirs, max_abs_diff, patched_statics,
    run_incremental_ns, unweighted_statics, weighted_statics,
};
use imr_algorithms::pagerank::PageRankIter;
use imr_algorithms::sssp::SsspInc;
use imr_algorithms::testutil::{imr_runner, native_runner, tcp_runner};
use imr_graph::dataset;
use imr_native::WorkerSpec;
use imr_simcluster::MetricsSnapshot;
use imr_simcluster::NodeId;
use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// This package's worker binary (the job catalog lives in
/// `imapreduce_suite::worker`).
const WORKER: &str = env!("CARGO_BIN_EXE_imr-worker");

/// The node reaching the most others — the only interesting SSSP
/// source on a sparse directed sample (node 0 may have no out-edges).
fn best_source(g: &imr_graph::Graph) -> u32 {
    let n = g.num_nodes();
    (0..n as u32)
        .max_by_key(|&u| {
            let mut seen = vec![false; n];
            let mut stack = vec![u];
            seen[u as usize] = true;
            let mut count = 0usize;
            while let Some(x) = stack.pop() {
                count += 1;
                for &v in g.neighbors(x) {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        stack.push(v);
                    }
                }
            }
            count
        })
        .unwrap()
}

/// Shortest-path-tree edges of the converged SSSP fixpoint: every
/// `(u, v, w)` with `dist[u] + w == dist[v]` witnesses `v`'s distance,
/// so removing or worsening one forces the planner to reset the keys
/// whose values flowed through it.
fn sssp_tree_edges(
    base: &BTreeMap<u32, Vec<(u32, f32)>>,
    fixpoint: &[(u32, f64)],
    source: u32,
) -> Vec<(u32, u32, f32)> {
    let dist: BTreeMap<u32, f64> = fixpoint.iter().copied().collect();
    let mut out = Vec::new();
    for (&u, adj) in base {
        let du = dist[&u];
        if !du.is_finite() {
            continue;
        }
        for &(v, w) in adj {
            if v != source && du + f64::from(w) == dist[&v] {
                out.push((u, v, w));
            }
        }
    }
    out
}

/// A mixed delta over the converged graph: one brand-new low-weight
/// shortcut, one removed witness (shortest-path-tree) edge, and one
/// worsened reweight of another witness edge.
fn sssp_delta(
    base: &BTreeMap<u32, Vec<(u32, f32)>>,
    fixpoint: &[(u32, f64)],
    source: u32,
    num_nodes: u32,
) -> GraphDelta {
    let tree = sssp_tree_edges(base, fixpoint, source);
    assert!(tree.len() >= 2, "fixpoint has too few witnessed edges");
    let mut delta = GraphDelta::new();
    delta
        .insert_edge(2, num_nodes - 1, 0.05)
        .remove_edge(tree[0].0, tree[0].1)
        .reweight_edge(tree[1].0, tree[1].1, 50.0);
    delta
}

/// The work one accumulative run did on the sim, in the two counts that
/// repeat exactly: `(termination-check epochs, delta pairs sent)`. The
/// runner's registry is cumulative, so the deltas are the difference to
/// the snapshot taken `before` the run (the default for a fresh runner).
fn work<S>(outcome: &IterOutcome<u32, S>, before: &MetricsSnapshot) -> (usize, u64) {
    let sent = outcome.report.metrics.delta(before).deltas_sent;
    (outcome.iterations, sent)
}

/// SSSP: all three engines produce the same incremental fixpoint, the
/// same patch stats, and exactly the cold recompute on the mutated
/// graph.
#[test]
fn incremental_sssp_equivalent_across_engines_and_to_cold() {
    let g = dataset("DBLP").unwrap().generate(0.004);
    let source = best_source(&g);
    let job = SsspInc { source };
    let base = weighted_statics(&g);
    let cfg = IterConfig::new("isssp", 3, 300)
        .with_accumulative_mode()
        .with_distance_threshold(1e-9);

    let sim = imr_runner(3);
    let (cold0, fix) = converge_and_preserve(&sim, &job, &base, &cfg, "/i").unwrap();
    let delta = sssp_delta(&base, &cold0.final_state, source, g.num_nodes() as u32);
    let before = sim.metrics().snapshot();
    let a = run_incremental_ns(&sim, &job, &cfg, &fix, "/i", &delta).unwrap();

    let nat = native_runner(3);
    let (_, fix_n) = converge_and_preserve(&nat, &job, &base, &cfg, "/i").unwrap();
    let b = run_incremental_ns(&nat, &job, &cfg, &fix_n, "/i", &delta).unwrap();

    let tcp = tcp_runner(3, WORKER, &["sssp"]);
    let (_, fix_t) = converge_and_preserve(&tcp, &job, &base, &cfg, "/i").unwrap();
    let c = run_incremental_ns(&tcp, &job, &cfg, &fix_t, "/i", &delta).unwrap();

    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats, c.stats);
    assert!(a.stats.reset > 0, "removed witness edge must reset keys");
    assert_eq!(a.outcome.final_state, b.outcome.final_state);
    assert_eq!(a.outcome.final_state, c.outcome.final_state);
    assert_eq!(a.outcome.distances, c.outcome.distances);

    let patched = patched_statics(&job, &base, &delta).unwrap();
    let cold = converge_cold(&imr_runner(3), &job, &patched, &cfg, "/cold").unwrap();
    assert_eq!(a.outcome.final_state, cold.final_state);

    // Re-converging from the preserved fixpoint is less work than
    // recomputing: fewer check epochs and fewer deltas shuffled.
    let warm = work(&a.outcome, &before);
    let cold = work(&cold, &MetricsSnapshot::default());
    assert!(warm.0 < cold.0 && warm.1 < cold.1, "{warm:?} vs {cold:?}");
}

/// PageRank (invertible ⊕): engines agree bit-for-bit with each other;
/// the incremental fixpoint matches the cold recompute within the
/// detector residual (1e-8 at ε = 1e-10).
#[test]
fn incremental_pagerank_equivalent_across_engines_and_to_cold() {
    let g = dataset("Google").unwrap().generate(0.002);
    let n = g.num_nodes() as u32;
    let nodes = g.num_nodes().to_string();
    let job = PageRankIter::new(g.num_nodes() as u64);
    let base = unweighted_statics(&g);
    let rm = (0..n).find(|&u| !g.neighbors(u).is_empty()).unwrap();
    let mut delta = GraphDelta::new();
    delta
        .insert_node(n)
        .insert_edge(3, n, 1.0)
        .insert_edge(n, 7, 1.0)
        .remove_edge(rm, g.neighbors(rm)[0]);
    let cfg = IterConfig::new("ipr", 3, 600)
        .with_accumulative_mode()
        .with_distance_threshold(1e-10);

    let sim = imr_runner(3);
    let (_, fix) = converge_and_preserve(&sim, &job, &base, &cfg, "/i").unwrap();
    let before = sim.metrics().snapshot();
    let a = run_incremental_ns(&sim, &job, &cfg, &fix, "/i", &delta).unwrap();

    let nat = native_runner(3);
    let (_, fix_n) = converge_and_preserve(&nat, &job, &base, &cfg, "/i").unwrap();
    let b = run_incremental_ns(&nat, &job, &cfg, &fix_n, "/i", &delta).unwrap();

    let tcp = tcp_runner(3, WORKER, &["pagerank", &nodes]);
    let (_, fix_t) = converge_and_preserve(&tcp, &job, &base, &cfg, "/i").unwrap();
    let c = run_incremental_ns(&tcp, &job, &cfg, &fix_t, "/i", &delta).unwrap();

    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats, c.stats);
    assert_eq!(a.stats.inserted, 1);
    assert!(
        a.stats.corrections > 0,
        "invertible plan injects corrections"
    );
    assert_eq!(a.outcome.final_state, b.outcome.final_state);
    assert_eq!(a.outcome.final_state, c.outcome.final_state);

    let patched = patched_statics(&job, &base, &delta).unwrap();
    let cold = converge_cold(&imr_runner(3), &job, &patched, &cfg, "/cold").unwrap();
    let gap = max_abs_diff(&a.outcome.final_state, &cold.final_state);
    assert!(gap < 1e-8, "incremental vs cold gap {gap}");

    // Injecting the corrections is less work than recomputing.
    let warm = work(&a.outcome, &before);
    let cold = work(&cold, &MetricsSnapshot::default());
    assert!(warm.0 < cold.0 && warm.1 < cold.1, "{warm:?} vs {cold:?}");
}

/// Connected components: a component split (edge removal) plus a merge
/// (new bridge) re-converges identically to cold on every engine.
#[test]
fn incremental_concomp_equivalent_across_engines_and_to_cold() {
    let g = dataset("DBLP").unwrap().generate(0.003);
    let n = g.num_nodes() as u32;
    let job = ConCompIter;
    let base = unweighted_statics(&g);
    let rm = (1..n).find(|&u| !g.neighbors(u).is_empty()).unwrap();
    let mut delta = GraphDelta::new();
    delta
        .remove_edge(rm, g.neighbors(rm)[0])
        .insert_edge(n - 1, n / 2, 1.0)
        .insert_node(n)
        .insert_edge(n / 3, n, 1.0);
    let cfg = IterConfig::new("icc", 3, 200)
        .with_accumulative_mode()
        .with_distance_threshold(0.5);

    let sim = imr_runner(3);
    let (_, fix) = converge_and_preserve(&sim, &job, &base, &cfg, "/i").unwrap();
    let before = sim.metrics().snapshot();
    let a = run_incremental_ns(&sim, &job, &cfg, &fix, "/i", &delta).unwrap();

    let nat = native_runner(3);
    let (_, fix_n) = converge_and_preserve(&nat, &job, &base, &cfg, "/i").unwrap();
    let b = run_incremental_ns(&nat, &job, &cfg, &fix_n, "/i", &delta).unwrap();

    let tcp = tcp_runner(3, WORKER, &["concomp"]);
    let (_, fix_t) = converge_and_preserve(&tcp, &job, &base, &cfg, "/i").unwrap();
    let c = run_incremental_ns(&tcp, &job, &cfg, &fix_t, "/i", &delta).unwrap();

    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats, c.stats);
    assert_eq!(a.outcome.final_state, b.outcome.final_state);
    assert_eq!(a.outcome.final_state, c.outcome.final_state);

    let patched = patched_statics(&job, &base, &delta).unwrap();
    let cold = converge_cold(&imr_runner(3), &job, &patched, &cfg, "/cold").unwrap();
    assert_eq!(a.outcome.final_state, cold.final_state);

    // This delta splits a component, so nearly every key is reset and
    // the warm run has almost the cold run's work to do — but never more.
    let warm = work(&a.outcome, &before);
    let cold = work(&cold, &MetricsSnapshot::default());
    assert!(warm.0 <= cold.0 && warm.1 <= cold.1, "{warm:?} vs {cold:?}");
}

/// A worsening delta big enough that the incremental run does real
/// propagation work, so a kill at check 1 lands mid-run: remove a batch
/// of shortest-path-tree edges, resetting every key witnessed through
/// them.
fn heavy_sssp_delta(
    base: &BTreeMap<u32, Vec<(u32, f32)>>,
    fixpoint: &[(u32, f64)],
    source: u32,
) -> GraphDelta {
    let tree = sssp_tree_edges(base, fixpoint, source);
    assert!(tree.len() >= 4, "fixpoint has too few witnessed edges");
    let mut delta = GraphDelta::new();
    let mut seen = std::collections::BTreeSet::new();
    for &(u, v, _) in &tree {
        if seen.len() >= 12 {
            break;
        }
        if seen.insert((u, v)) {
            delta.remove_edge(u, v);
        }
    }
    delta
}

/// Kill mid-incremental-run on the native channel fabric and on TCP
/// worker processes: the checkpoint/rollback supervisor replays from
/// the warm-start parts (epoch 0, before any checkpoint commits), so
/// the recovered run is bit-identical to a clean incremental run —
/// same fixpoint, same check count, same progress trace, same patch
/// stats. On TCP the replay generation rereads the warm parts like
/// any other part.
#[test]
fn incremental_kill_replays_bit_identically_on_channel_and_tcp() {
    let g = dataset("DBLP").unwrap().generate(0.004);
    let source = best_source(&g);
    let job = SsspInc { source };
    let base = weighted_statics(&g);
    let cfg = IterConfig::new("iks", 4, 300)
        .with_accumulative_mode()
        .with_distance_threshold(1e-9)
        .with_checkpoint_interval(2);
    let probe = converge_cold(&imr_runner(4), &job, &base, &cfg, "/probe").unwrap();
    let delta = heavy_sssp_delta(&base, &probe.final_state, source);
    let kill = [FaultEvent::Kill {
        node: NodeId(1),
        at_iteration: 1,
    }];
    let d = inc_dirs("/i");

    for tcp in [false, true] {
        let label = if tcp { "tcp" } else { "channel" };
        let mut results = Vec::new();
        for faults in [&[] as &[FaultEvent], &kill] {
            let r = if tcp {
                tcp_runner(4, WORKER, &["sssp"])
            } else {
                native_runner(4)
            };
            let (_, fix) = converge_and_preserve(&r, &job, &base, &cfg, "/i").unwrap();
            let out = r
                .run_incremental(
                    &job,
                    &cfg,
                    &fix,
                    &d.static_,
                    &delta,
                    &d.inc_state,
                    &d.inc_static,
                    &d.inc_out,
                    faults,
                )
                .unwrap();
            results.push(out);
        }
        let (clean, killed) = (&results[0], &results[1]);
        assert!(killed.outcome.recoveries >= 1, "{label}: kill never fired");
        assert_eq!(clean.stats, killed.stats, "{label}");
        assert_eq!(
            clean.outcome.final_state, killed.outcome.final_state,
            "{label}"
        );
        assert_eq!(
            clean.outcome.iterations, killed.outcome.iterations,
            "{label}"
        );
        assert_eq!(clean.outcome.distances, killed.outcome.distances, "{label}");
    }
}

/// An incremental run reaching TCP on the DFS a thread run planned its
/// warm parts into: the same fixpoint and delta plan the same parts,
/// and a warm part reaches a worker like every other part, by
/// `ReadPart`. The run returns within a bounded wait, bit-identical to
/// threads.
#[test]
fn tcp_accumulative_on_warm_parts_returns_and_matches_threads() {
    let g = dataset("DBLP").unwrap().generate(0.004);
    let source = best_source(&g);
    let job = SsspInc { source };
    let base = weighted_statics(&g);
    let cfg = IterConfig::new("iwarm", 3, 300)
        .with_accumulative_mode()
        .with_distance_threshold(1e-9);
    let nat = native_runner(3);
    let (cold, fix) = converge_and_preserve(&nat, &job, &base, &cfg, "/i").unwrap();
    let delta = sssp_delta(&base, &cold.final_state, source, g.num_nodes() as u32);
    // Plans the warm parts into `/i/inc-*`, then converges from them.
    let want = run_incremental_ns(&nat, &job, &cfg, &fix, "/i", &delta).unwrap();

    // The same DFS, the same warm parts, worker processes.
    let tcp = nat.with_workers(WorkerSpec::new(WORKER, vec!["sssp".to_owned()]));
    let d = inc_dirs("/i");
    let (done, finished) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let out = tcp.run_incremental(
            &job,
            &cfg,
            &fix,
            &d.static_,
            &delta,
            &d.inc_state,
            &d.inc_static,
            "/i/tcp",
            &[],
        );
        let _ = done.send(());
        out
    });
    let waited = finished.recv_timeout(Duration::from_secs(90));
    assert_ne!(
        waited,
        Err(RecvTimeoutError::Timeout),
        "the TCP run on warm parts hung"
    );
    let got = run.join().expect("the TCP run panicked").unwrap();
    assert_eq!(got.outcome.final_state, want.outcome.final_state);
    assert_eq!(got.outcome.distances, want.outcome.distances);
}

/// Input validation: malformed deltas (unknown endpoints, duplicate
/// node inserts) are rejected with descriptive errors before any engine
/// runs.
#[test]
fn incremental_validation_rejects_bad_configs_and_deltas() {
    fn expect_config<T>(r: Result<T, EngineError>, needle: &str) {
        match r {
            Err(EngineError::Config(msg)) => assert!(msg.contains(needle), "{msg}"),
            Err(other) => panic!("expected a Config error, got {other}"),
            Ok(_) => panic!("expected a Config error, got success"),
        }
    }

    let g = dataset("DBLP").unwrap().generate(0.003);
    let job = SsspInc { source: 0 };
    let base = weighted_statics(&g);
    let cfg = IterConfig::new("iv", 2, 50)
        .with_accumulative_mode()
        .with_distance_threshold(1e-9);
    let r = imr_runner(2);
    let (_, fix) = converge_and_preserve(&r, &job, &base, &cfg, "/i").unwrap();
    let d = inc_dirs("/i");

    // Deltas naming unknown endpoints or re-inserting live nodes fail
    // with the planner's descriptive message.
    let mut bad_edge = GraphDelta::new();
    bad_edge.insert_edge(0, 9_999_999, 1.0);
    expect_config(
        r.run_incremental(
            &job,
            &cfg,
            &fix,
            &d.static_,
            &bad_edge,
            &d.inc_state,
            &d.inc_static,
            &d.inc_out,
            &[],
        ),
        "dst does not exist",
    );
    let mut dup_node = GraphDelta::new();
    dup_node.insert_node(0);
    expect_config(
        r.run_incremental(
            &job,
            &cfg,
            &fix,
            &d.static_,
            &dup_node,
            &d.inc_state,
            &d.inc_static,
            &d.inc_out,
            &[],
        ),
        "already exists",
    );

    // Stats of a healthy run report the delta's footprint.
    let mut ok = GraphDelta::new();
    ok.insert_node(g.num_nodes() as u32);
    let out = r
        .run_incremental(
            &job,
            &cfg,
            &fix,
            &d.static_,
            &ok,
            &d.inc_state,
            &d.inc_static,
            &d.inc_out,
            &[],
        )
        .unwrap();
    assert_eq!(
        out.stats,
        PatchStats {
            ops: 1,
            inserted: 1,
            removed: 0,
            patched: 0,
            reset: 1,
            corrections: 0,
            total: g.num_nodes() + 1,
        }
    );
}
