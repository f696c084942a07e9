//! Cross-crate integration: both engines run the paper's workloads on
//! the same generated data and must agree with each other and with the
//! sequential references.

use bytes::Bytes;
use imapreduce::{
    Accumulative, Delta, Emitter, FailureEvent, FaultEvent, IterConfig, IterEngine, IterOutcome,
    Iterative, IterativeJob, LoadBalance, StateInput, WatchdogConfig,
};
use imr_algorithms::concomp::ConCompIter;
use imr_algorithms::kmeans::{KmState, KmeansIter};
use imr_algorithms::pagerank::PageRankIter;
use imr_algorithms::sssp::SsspIter;
use imr_algorithms::testutil::{
    imr_runner, imr_runner_on, mr_runner, native_runner, native_runner_on, tcp_runner,
};
use imr_algorithms::{concomp, jacobi, kmeans, matpower, pagerank, sssp};
use imr_graph::{
    dataset, generate_graph, generate_matrix, generate_points, generate_weighted_graph,
    pagerank_degree_dist, sssp_degree_dist, sssp_weight_dist, Graph,
};
use imr_mapreduce::io::part_path;
use imr_mapreduce::EngineError;
use imr_native::NativeRunner;
use imr_records::{decode_pairs, encode_pairs};
use imr_simcluster::{ClusterSpec, NodeId, TaskClock};
use imr_trace::{TraceBuffer, TraceHandle, COORD};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn sssp_pipeline_catalog_to_engines() {
    // End-to-end: catalog row → generator → both engines → references.
    let g = dataset("DBLP").unwrap().generate(0.005);
    let iters = 6;

    let imr = imr_runner(4);
    let cfg = IterConfig::new("sssp", 4, iters);
    let a = sssp::run_sssp_imr(&imr, &g, 0, &cfg).unwrap();

    let mr = mr_runner(4);
    let b = sssp::run_sssp_mr(&mr, &g, 0, 4, iters, None).unwrap();

    let expect = sssp::reference_sssp_rounds(&g, 0, iters);
    let mut clock = TaskClock::default();
    let mut mr_out: Vec<(u32, sssp::DistAdj)> =
        imr_mapreduce::io::read_all(mr.dfs(), &b.final_dir, NodeId(0), &mut clock).unwrap();
    // Baseline output is per-part sorted; order globally for the zip.
    mr_out.sort_by_key(|&(k, _)| k);

    assert_eq!(a.final_state.len(), g.num_nodes());
    assert_eq!(mr_out.len(), g.num_nodes());
    for ((k1, d1), (k2, (d2, _))) in a.final_state.iter().zip(&mr_out) {
        assert_eq!(k1, k2);
        let e = expect[*k1 as usize];
        let ok = |d: f64| (d - e).abs() < 1e-9 || (d.is_infinite() && e.is_infinite());
        assert!(ok(*d1) && ok(*d2), "node {k1}: imr={d1} mr={d2} ref={e}");
    }
    // The headline claim, end to end.
    assert!(a.report.finished < b.report.finished);
}

#[test]
fn pagerank_pipeline_on_webgraph_standin() {
    let g = dataset("Google").unwrap().generate(0.003);
    let iters = 8;
    let imr = imr_runner(4);
    let cfg = IterConfig::new("pr", 4, iters);
    let out = pagerank::run_pagerank_imr(&imr, &g, &cfg).unwrap();
    let expect = pagerank::reference_pagerank(&g, 0.85, iters);
    for (k, v) in &out.final_state {
        assert!((v - expect[*k as usize]).abs() < 1e-12);
    }
}

#[test]
fn kmeans_engines_agree_on_generated_points() {
    let points = generate_points(400, 5, 3, 77);
    let iters = 6;
    let imr = imr_runner(4);
    let cfg = IterConfig::new("km", 4, iters).with_one2all();
    let a = kmeans::run_kmeans_imr(&imr, &points, 3, &cfg, false).unwrap();
    let mr = mr_runner(4);
    let b = kmeans::run_kmeans_mr(&mr, &points, 3, 4, iters, false, None).unwrap();
    assert_eq!(a.final_state.len(), b.centroids.len());
    for ((ka, (ca, _)), (kb, (cb, _))) in a.final_state.iter().zip(&b.centroids) {
        assert_eq!(ka, kb);
        for (x, y) in ca.iter().zip(cb) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}

#[test]
fn matpower_engines_agree() {
    let m = generate_matrix(12, 5);
    let imr = imr_runner(4);
    let a = matpower::run_matpower_imr(&imr, &m, 2, 3).unwrap();
    let mr = mr_runner(4);
    let b = matpower::run_matpower_mr(&mr, &m, 2, 3).unwrap();
    let expect = matpower::reference_matpower(&m, 3);
    for (((i, k), v), (_, w)) in a.final_state.iter().zip(&b.result) {
        let e = expect[*i as usize][*k as usize];
        assert!((v - e).abs() < 1e-9 * e.abs().max(1.0));
        assert!((w - e).abs() < 1e-9 * e.abs().max(1.0));
    }
}

/// Matrix power is one job of two phases on the pair loop every engine
/// runs: with a checkpoint after every phase, a clean run, a kill after
/// a gather iteration (mid-multiplication) and a kill after a multiply
/// iteration (a multiplication boundary) each end in the simulator's
/// clean cells and multiplication count, bit for bit, on the simulator,
/// worker threads and TCP worker processes — and those cells are M⁴.
#[test]
fn matpower_is_one_phased_job_on_every_engine_through_kills() {
    let m = generate_matrix(12, 5);
    let expect = matpower::reference_matpower(&m, 3);
    let cfg = IterConfig::new("matpower", 2, 3).with_checkpoint_interval(1);
    let run = |engine: &str, faults: &[FaultEvent]| {
        let out = match engine {
            "sim" => matpower::run_matpower_faults(&imr_runner(4), &m, &cfg, faults),
            "threads" => matpower::run_matpower_faults(&native_runner(4), &m, &cfg, faults),
            _ => {
                let tcp = tcp_runner(4, WORKER, &["matpower"]);
                matpower::run_matpower_faults(&tcp, &m, &cfg, faults)
            }
        };
        let out = out.unwrap_or_else(|e| panic!("{engine} under {faults:?}: {e}"));
        (out.final_state, out.iterations, out.recoveries)
    };
    let (clean, iterations, _) = run("sim", &[]);
    assert_eq!((clean.len(), iterations), (144, 3));
    for ((i, k), v) in &clean {
        let e = expect[*i as usize][*k as usize];
        assert!((v - e).abs() <= 1e-9 * e.abs(), "({i},{k}): {v} vs {e}");
    }
    for faults in [&[][..], &[kill(0, 3)], &[kill(0, 4)]] {
        for engine in ["sim", "threads", "tcp"] {
            let want = (clean.clone(), 3, faults.len() as u64);
            assert!(run(engine, faults) == want, "{engine} under {faults:?}");
        }
    }
}

#[test]
fn jacobi_converges_on_ec2_preset() {
    let (system, _) = jacobi::generate_system(50, 4, 5);
    let r = imr_runner_on(ClusterSpec::ec2(8));
    let cfg = IterConfig::new("jacobi", 8, 150)
        .with_one2all()
        .with_distance_threshold(1e-12);
    let out = jacobi::run_jacobi_imr(&r, &system, &cfg).unwrap();
    let x: Vec<f64> = out.final_state.iter().map(|&(_, v)| v).collect();
    assert!(jacobi::residual(&system, &x) < 1e-8);
}

/// SSSP on the native thread-per-pair backend: bit-identical to the
/// virtual-time engine and the sequential reference, across thread
/// counts and both triggering modes.
#[test]
fn native_sssp_matches_sim_and_reference() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let iters = 6;
    let expect = sssp::reference_sssp_rounds(&g, 0, iters);
    for tasks in [1usize, 4] {
        for sync in [false, true] {
            let mut cfg = IterConfig::new("sssp", tasks, iters);
            if sync {
                cfg = cfg.with_sync_maps();
            }
            let sim = imr_runner(4);
            let a = sssp::run_sssp_imr(&sim, &g, 0, &cfg).unwrap();
            let nat = native_runner(4);
            let b = sssp::run_sssp_imr(&nat, &g, 0, &cfg).unwrap();
            assert_eq!(a.final_state, b.final_state, "tasks={tasks} sync={sync}");
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.distances, b.distances);
            for (k, d) in &b.final_state {
                let e = expect[*k as usize];
                assert!(
                    (d - e).abs() < 1e-9 || (d.is_infinite() && e.is_infinite()),
                    "node {k}: native={d} ref={e}"
                );
            }
        }
    }
}

/// PageRank: native equals the simulation engine exactly and the
/// sequential reference to floating-point noise.
#[test]
fn native_pagerank_matches_sim_and_reference() {
    let g = dataset("Google").unwrap().generate(0.003);
    let iters = 8;
    let expect = pagerank::reference_pagerank(&g, 0.85, iters);
    for tasks in [1usize, 4] {
        for sync in [false, true] {
            let mut cfg = IterConfig::new("pr", tasks, iters);
            if sync {
                cfg = cfg.with_sync_maps();
            }
            let sim = imr_runner(4);
            let a = pagerank::run_pagerank_imr(&sim, &g, &cfg).unwrap();
            let nat = native_runner(4);
            let b = pagerank::run_pagerank_imr(&nat, &g, &cfg).unwrap();
            assert_eq!(a.final_state, b.final_state, "tasks={tasks} sync={sync}");
            assert_eq!(a.iterations, b.iterations);
            for (k, v) in &b.final_state {
                assert!((v - expect[*k as usize]).abs() < 1e-12);
            }
        }
    }
}

/// K-means (one2all broadcast): native equals the simulation engine
/// exactly at every thread count.
#[test]
fn native_kmeans_matches_sim() {
    let points = generate_points(400, 5, 3, 77);
    for tasks in [1usize, 4] {
        let cfg = IterConfig::new("km", tasks, 6).with_one2all();
        let sim = imr_runner(4);
        let a = kmeans::run_kmeans_imr(&sim, &points, 3, &cfg, false).unwrap();
        let nat = native_runner(4);
        let b = kmeans::run_kmeans_imr(&nat, &points, 3, &cfg, false).unwrap();
        assert_eq!(a.final_state, b.final_state, "tasks={tasks}");
        assert_eq!(a.iterations, b.iterations);
    }
}

/// Distance-threshold termination agrees across backends: both stop at
/// the same iteration with the same distance trace.
#[test]
fn native_termination_matches_sim() {
    let g = dataset("DBLP").unwrap().generate(0.004);
    let cfg = IterConfig::new("sssp", 3, 64).with_distance_threshold(1e-12);
    let sim = imr_runner(3);
    let a = sssp::run_sssp_imr(&sim, &g, 0, &cfg).unwrap();
    let nat = native_runner(3);
    let b = sssp::run_sssp_imr(&nat, &g, 0, &cfg).unwrap();
    assert!(a.iterations < 64, "converged before the cap");
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.distances, b.distances);
    assert_eq!(a.final_state, b.final_state);
}

fn sssp_run(
    runner: &impl IterEngine,
    g: &Graph,
    cfg: &IterConfig,
    failures: &[FailureEvent],
) -> IterOutcome<u32, f64> {
    sssp::load_sssp_imr(runner, g, 0, cfg.num_tasks, "/s", "/t").unwrap();
    runner
        .run(&SsspIter, cfg, "/s", "/t", "/o", failures)
        .unwrap()
}

fn pagerank_run(
    runner: &impl IterEngine,
    g: &Graph,
    cfg: &IterConfig,
    failures: &[FailureEvent],
) -> IterOutcome<u32, f64> {
    pagerank::load_pagerank_imr(runner, g, cfg.num_tasks, "/s", "/t").unwrap();
    let job = PageRankIter::new(g.num_nodes() as u64);
    runner.run(&job, cfg, "/s", "/t", "/o", failures).unwrap()
}

fn kmeans_run(
    runner: &impl IterEngine,
    points: &[(u32, Vec<f64>)],
    cfg: &IterConfig,
    failures: &[FailureEvent],
) -> IterOutcome<u32, KmState> {
    kmeans::load_kmeans_imr(runner, points, 3, cfg.num_tasks, "/s", "/t").unwrap();
    let job = KmeansIter { combiner: false };
    runner.run(&job, cfg, "/s", "/t", "/o", failures).unwrap()
}

/// SSSP under scripted failures (§3.4.1): on both engines, at every
/// thread count and triggering mode, an injected failure recovers to a
/// result bit-identical to the failure-free run — and the engines
/// agree with each other.
#[test]
fn sssp_failure_runs_match_clean_runs_on_both_engines() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let failures = [FailureEvent {
        node: NodeId(0),
        at_iteration: 3,
    }];
    for tasks in [1usize, 4] {
        for sync in [false, true] {
            let mut cfg = IterConfig::new("sssp", tasks, 6).with_checkpoint_interval(2);
            if sync {
                cfg = cfg.with_sync_maps();
            }
            let sim_clean = sssp_run(&imr_runner(4), &g, &cfg, &[]);
            let sim_fail = sssp_run(&imr_runner(4), &g, &cfg, &failures);
            let nat_clean = sssp_run(&native_runner(4), &g, &cfg, &[]);
            let nat_fail = sssp_run(&native_runner(4), &g, &cfg, &failures);
            assert_eq!(sim_fail.recoveries, 1, "tasks={tasks} sync={sync}");
            assert_eq!(nat_fail.recoveries, 1, "tasks={tasks} sync={sync}");
            for (label, clean, fail) in [
                ("sim", &sim_clean, &sim_fail),
                ("native", &nat_clean, &nat_fail),
            ] {
                assert_eq!(
                    clean.final_state, fail.final_state,
                    "{label} tasks={tasks} sync={sync}"
                );
                assert_eq!(clean.iterations, fail.iterations);
                assert_eq!(clean.distances, fail.distances);
            }
            assert_eq!(sim_fail.final_state, nat_fail.final_state);
            assert_eq!(sim_fail.iterations, nat_fail.iterations);
        }
    }
}

/// PageRank under scripted failures: same bit-identity contract as
/// SSSP, on both engines, across thread counts and triggering modes.
#[test]
fn pagerank_failure_runs_match_clean_runs_on_both_engines() {
    let g = dataset("Google").unwrap().generate(0.002);
    let failures = [FailureEvent {
        node: NodeId(0),
        at_iteration: 3,
    }];
    for tasks in [1usize, 4] {
        for sync in [false, true] {
            let mut cfg = IterConfig::new("pr", tasks, 6).with_checkpoint_interval(2);
            if sync {
                cfg = cfg.with_sync_maps();
            }
            let sim_clean = pagerank_run(&imr_runner(4), &g, &cfg, &[]);
            let sim_fail = pagerank_run(&imr_runner(4), &g, &cfg, &failures);
            let nat_clean = pagerank_run(&native_runner(4), &g, &cfg, &[]);
            let nat_fail = pagerank_run(&native_runner(4), &g, &cfg, &failures);
            assert_eq!(sim_fail.recoveries, 1, "tasks={tasks} sync={sync}");
            assert_eq!(nat_fail.recoveries, 1, "tasks={tasks} sync={sync}");
            for (label, clean, fail) in [
                ("sim", &sim_clean, &sim_fail),
                ("native", &nat_clean, &nat_fail),
            ] {
                assert_eq!(
                    clean.final_state, fail.final_state,
                    "{label} tasks={tasks} sync={sync}"
                );
                assert_eq!(clean.iterations, fail.iterations);
            }
            assert_eq!(sim_fail.final_state, nat_fail.final_state);
        }
    }
}

/// K-means (one2all broadcast, inherently synchronous) under scripted
/// failures: the broadcast global state is restored from the snapshot
/// parts and the failed run stays bit-identical to the clean one.
#[test]
fn kmeans_failure_runs_match_clean_runs_on_both_engines() {
    let points = generate_points(400, 5, 3, 77);
    let failures = [FailureEvent {
        node: NodeId(0),
        at_iteration: 3,
    }];
    for tasks in [1usize, 4] {
        let cfg = IterConfig::new("km", tasks, 6)
            .with_one2all()
            .with_checkpoint_interval(2);
        let sim_clean = kmeans_run(&imr_runner(4), &points, &cfg, &[]);
        let sim_fail = kmeans_run(&imr_runner(4), &points, &cfg, &failures);
        let nat_clean = kmeans_run(&native_runner(4), &points, &cfg, &[]);
        let nat_fail = kmeans_run(&native_runner(4), &points, &cfg, &failures);
        assert_eq!(sim_fail.recoveries, 1, "tasks={tasks}");
        assert_eq!(nat_fail.recoveries, 1, "tasks={tasks}");
        for (label, clean, fail) in [
            ("sim", &sim_clean, &sim_fail),
            ("native", &nat_clean, &nat_fail),
        ] {
            assert_eq!(clean.final_state, fail.final_state, "{label} tasks={tasks}");
            assert_eq!(clean.iterations, fail.iterations);
        }
        assert_eq!(sim_fail.final_state, nat_fail.final_state);
    }
}

/// A native runner on a 5-node cluster whose node 0 is emulated 10x
/// slower, with a spare fast node for the balancer to migrate onto.
fn skewed_native() -> NativeRunner {
    let mut spec = ClusterSpec::local(5);
    spec.nodes[0].speed = 0.1;
    native_runner_on(spec)
}

/// Checkpoint-every-iteration + a fast-polling monitor: the base
/// configuration both the migration-free and migration-enabled runs
/// share, so the only difference is the balancer.
fn skew_cfg(name: &str, iters: usize) -> IterConfig {
    IterConfig::new(name, 4, iters)
        .with_checkpoint_interval(1)
        .with_watchdog(WatchdogConfig {
            poll: Duration::from_millis(2),
            stall_timeout: Duration::from_secs(10),
        })
}

fn with_balance(cfg: IterConfig) -> IterConfig {
    cfg.with_load_balance(LoadBalance {
        deviation: 0.3,
        max_migrations: 4,
    })
}

/// §3.4.2 on the native backend, per algorithm: a run that migrates the
/// straggling pair off the slow node must be bit-identical to the run
/// that never migrates — migration is rollback under a new placement,
/// invisible in results.
#[test]
fn native_sssp_migration_is_bit_identical_to_migration_free() {
    let g = dataset("DBLP").unwrap().generate(0.01);
    let plain_rt = skewed_native();
    let plain = sssp_run(&plain_rt, &g, &skew_cfg("sssp", 10), &[]);
    assert_eq!(plain.migrations, 0);

    let lb_rt = skewed_native();
    let balanced = sssp_run(&lb_rt, &g, &with_balance(skew_cfg("sssp", 10)), &[]);
    assert!(balanced.migrations >= 1, "slow node must trigger migration");
    assert_eq!(lb_rt.metrics().migrations.get(), balanced.migrations);
    assert_eq!(balanced.final_state, plain.final_state);
    assert_eq!(balanced.iterations, plain.iterations);
    assert_eq!(balanced.distances, plain.distances);
}

#[test]
fn native_pagerank_migration_is_bit_identical_to_migration_free() {
    let g = dataset("Google").unwrap().generate(0.01);
    let plain_rt = skewed_native();
    let plain = pagerank_run(&plain_rt, &g, &skew_cfg("pr", 10), &[]);
    assert_eq!(plain.migrations, 0);

    let lb_rt = skewed_native();
    let balanced = pagerank_run(&lb_rt, &g, &with_balance(skew_cfg("pr", 10)), &[]);
    assert!(balanced.migrations >= 1, "slow node must trigger migration");
    assert_eq!(lb_rt.metrics().migrations.get(), balanced.migrations);
    assert_eq!(balanced.final_state, plain.final_state);
    assert_eq!(balanced.iterations, plain.iterations);
}

#[test]
fn native_kmeans_migration_is_bit_identical_to_migration_free() {
    // Enough points that a k-means iteration has measurable compute for
    // the busy EWMA to separate the slow node.
    let points = generate_points(20_000, 16, 8, 77);
    let base = skew_cfg("km", 8).with_one2all();
    let plain_rt = skewed_native();
    let plain = kmeans_run(&plain_rt, &points, &base, &[]);
    assert_eq!(plain.migrations, 0);

    let lb_rt = skewed_native();
    let balanced = kmeans_run(&lb_rt, &points, &with_balance(base), &[]);
    assert!(balanced.migrations >= 1, "slow node must trigger migration");
    assert_eq!(lb_rt.metrics().migrations.get(), balanced.migrations);
    assert_eq!(balanced.final_state, plain.final_state);
    assert_eq!(balanced.iterations, plain.iterations);
}

/// This package's worker binary (the job catalog lives in
/// `imapreduce_suite::worker`).
const WORKER: &str = env!("CARGO_BIN_EXE_imr-worker");

/// SSSP over genuinely separate worker OS processes (TCP transport):
/// bit-identical to the in-process channel fabric, the virtual-time
/// engine, and the sequential reference, across task counts and both
/// triggering modes.
#[test]
fn tcp_sssp_matches_channel_sim_and_reference() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let iters = 6;
    let expect = sssp::reference_sssp_rounds(&g, 0, iters);
    for tasks in [1usize, 4] {
        for sync in [false, true] {
            let mut cfg = IterConfig::new("sssp", tasks, iters);
            if sync {
                cfg = cfg.with_sync_maps();
            }
            let sim = imr_runner(4);
            let a = sssp::run_sssp_imr(&sim, &g, 0, &cfg).unwrap();
            let nat = native_runner(4);
            let b = sssp::run_sssp_imr(&nat, &g, 0, &cfg).unwrap();
            let tcp = tcp_runner(4, WORKER, &["sssp"]);
            let c = sssp::run_sssp_imr(&tcp, &g, 0, &cfg).unwrap();
            assert_eq!(a.final_state, c.final_state, "tasks={tasks} sync={sync}");
            assert_eq!(b.final_state, c.final_state, "tasks={tasks} sync={sync}");
            assert_eq!(a.iterations, c.iterations);
            assert_eq!(a.distances, c.distances);
            for (k, d) in &c.final_state {
                let e = expect[*k as usize];
                assert!(
                    (d - e).abs() < 1e-9 || (d.is_infinite() && e.is_infinite()),
                    "node {k}: tcp={d} ref={e}"
                );
            }
        }
    }
}

/// PageRank across processes: exact agreement with both in-process
/// engines and float-noise agreement with the reference.
#[test]
fn tcp_pagerank_matches_channel_and_sim() {
    let g = dataset("Google").unwrap().generate(0.003);
    let iters = 8;
    let nodes = g.num_nodes().to_string();
    let expect = pagerank::reference_pagerank(&g, 0.85, iters);
    for tasks in [1usize, 4] {
        for sync in [false, true] {
            let mut cfg = IterConfig::new("pr", tasks, iters);
            if sync {
                cfg = cfg.with_sync_maps();
            }
            let sim = imr_runner(4);
            let a = pagerank::run_pagerank_imr(&sim, &g, &cfg).unwrap();
            let nat = native_runner(4);
            let b = pagerank::run_pagerank_imr(&nat, &g, &cfg).unwrap();
            let tcp = tcp_runner(4, WORKER, &["pagerank", &nodes]);
            let c = pagerank::run_pagerank_imr(&tcp, &g, &cfg).unwrap();
            assert_eq!(a.final_state, c.final_state, "tasks={tasks} sync={sync}");
            assert_eq!(b.final_state, c.final_state, "tasks={tasks} sync={sync}");
            assert_eq!(a.iterations, c.iterations);
            for (k, v) in &c.final_state {
                assert!((v - expect[*k as usize]).abs() < 1e-12);
            }
        }
    }
}

/// K-means (one2all broadcast, inherently synchronous) across
/// processes: the coordinator-assembled broadcast is bit-identical to
/// the shared-slot broadcast of the in-process backends.
#[test]
fn tcp_kmeans_matches_channel_and_sim() {
    let points = generate_points(400, 5, 3, 77);
    for tasks in [1usize, 4] {
        let cfg = IterConfig::new("km", tasks, 6).with_one2all();
        let sim = imr_runner(4);
        let a = kmeans::run_kmeans_imr(&sim, &points, 3, &cfg, false).unwrap();
        let nat = native_runner(4);
        let b = kmeans::run_kmeans_imr(&nat, &points, 3, &cfg, false).unwrap();
        let tcp = tcp_runner(4, WORKER, &["kmeans", "0"]);
        let c = kmeans::run_kmeans_imr(&tcp, &points, 3, &cfg, false).unwrap();
        assert_eq!(a.final_state, c.final_state, "tasks={tasks}");
        assert_eq!(b.final_state, c.final_state, "tasks={tasks}");
        assert_eq!(a.iterations, c.iterations);
    }
}

/// Distance-threshold termination is a coordinator collective on the
/// TCP path; it must stop at the same iteration with the same distance
/// trace as the in-process backends.
#[test]
fn tcp_termination_matches_channel_and_sim() {
    let g = dataset("DBLP").unwrap().generate(0.004);
    let cfg = IterConfig::new("sssp", 3, 64).with_distance_threshold(1e-12);
    let sim = imr_runner(3);
    let a = sssp::run_sssp_imr(&sim, &g, 0, &cfg).unwrap();
    let tcp = tcp_runner(3, WORKER, &["sssp"]);
    let b = sssp::run_sssp_imr(&tcp, &g, 0, &cfg).unwrap();
    assert!(a.iterations < 64, "converged before the cap");
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.distances, b.distances);
    assert_eq!(a.final_state, b.final_state);
}

/// Asserts two delta-mode outcomes are bit-identical: same values in
/// the same key order, same check count, same distance trace.
fn assert_same_outcome<S: PartialEq + std::fmt::Debug>(
    label: &str,
    a: &IterOutcome<u32, S>,
    b: &IterOutcome<u32, S>,
) {
    assert_eq!(a.final_state, b.final_state, "{label}: states diverge");
    assert_eq!(a.iterations, b.iterations, "{label}: check counts diverge");
    assert_eq!(a.distances, b.distances, "{label}: progress traces diverge");
}

/// Barrier-free delta-accumulative PageRank (Maiter-style §3.3 taken to
/// its limit): the virtual-time sim, the native channel fabric and the
/// TCP worker processes agree bit-for-bit with each other, terminate
/// before the check cap, and land within the detector bound of the
/// synchronous fixpoint — at every task count.
#[test]
fn delta_pagerank_bounded_by_sync_fixpoint_on_all_engines() {
    let g = dataset("Google").unwrap().generate(0.003);
    let nodes = g.num_nodes().to_string();
    let eps = 1e-10;
    let sync_cfg = IterConfig::new("pr", 4, 400).with_distance_threshold(eps);
    let sync = pagerank::run_pagerank_imr(&imr_runner(4), &g, &sync_cfg).unwrap();

    for tasks in [1usize, 4] {
        let cfg = IterConfig::new("prd", tasks, 400)
            .with_accumulative_mode()
            .with_distance_threshold(eps);
        let a = pagerank::run_pagerank_delta(&imr_runner(4), &g, &cfg).unwrap();
        let b = pagerank::run_pagerank_delta(&native_runner(4), &g, &cfg).unwrap();
        let tcp = tcp_runner(4, WORKER, &["pagerank", &nodes]);
        let c = pagerank::run_pagerank_delta(&tcp, &g, &cfg).unwrap();
        assert_same_outcome(&format!("sim vs native, tasks={tasks}"), &a, &b);
        assert_same_outcome(&format!("sim vs tcp, tasks={tasks}"), &a, &c);
        assert!(a.iterations < 400, "detector must fire before the cap");
        assert_eq!(a.final_state.len(), sync.final_state.len());
        for ((k1, v1), (k2, v2)) in sync.final_state.iter().zip(&a.final_state) {
            assert_eq!(k1, k2);
            assert!(
                (v1 - v2).abs() < 1e-8,
                "node {k1}: sync={v1} delta={v2} tasks={tasks}"
            );
        }
    }
}

/// Delta-accumulative SSSP (⊕ = min): all three backends agree
/// bit-for-bit and the fixpoint equals the Dijkstra reference.
#[test]
fn delta_sssp_matches_dijkstra_on_all_engines() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let expect = sssp::reference_sssp(&g, 0);
    for tasks in [1usize, 4] {
        let cfg = IterConfig::new("ssspd", tasks, 400)
            .with_accumulative_mode()
            .with_distance_threshold(1e-9);
        let a = sssp::run_sssp_delta(&imr_runner(4), &g, 0, &cfg).unwrap();
        let b = sssp::run_sssp_delta(&native_runner(4), &g, 0, &cfg).unwrap();
        let tcp = tcp_runner(4, WORKER, &["sssp"]);
        let c = sssp::run_sssp_delta(&tcp, &g, 0, &cfg).unwrap();
        assert_same_outcome(&format!("sim vs native, tasks={tasks}"), &a, &b);
        assert_same_outcome(&format!("sim vs tcp, tasks={tasks}"), &a, &c);
        assert!(a.iterations < 400, "detector must fire before the cap");
        for (k, d) in &a.final_state {
            let e = expect[*k as usize];
            assert!(
                (d - e).abs() < 1e-9 || (d.is_infinite() && e.is_infinite()),
                "node {k}: delta={d} dijkstra={e} tasks={tasks}"
            );
        }
    }
}

/// Delta-accumulative connected components (⊕ = min over labels): all
/// three backends agree bit-for-bit and match the synchronous HashMin
/// fixpoint exactly — labels are integers, so there is no float slack.
#[test]
fn delta_concomp_matches_sync_fixpoint_on_all_engines() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let sync_cfg = IterConfig::new("cc", 4, 200).with_distance_threshold(0.5);
    let sync = concomp::run_concomp_imr(&imr_runner(4), &g, &sync_cfg).unwrap();
    for tasks in [1usize, 4] {
        let cfg = IterConfig::new("ccd", tasks, 200)
            .with_accumulative_mode()
            .with_distance_threshold(0.5);
        let a = concomp::run_concomp_delta(&imr_runner(4), &g, &cfg).unwrap();
        let b = concomp::run_concomp_delta(&native_runner(4), &g, &cfg).unwrap();
        let tcp = tcp_runner(4, WORKER, &["concomp"]);
        let c = concomp::run_concomp_delta(&tcp, &g, &cfg).unwrap();
        assert_same_outcome(&format!("sim vs native, tasks={tasks}"), &a, &b);
        assert_same_outcome(&format!("sim vs tcp, tasks={tasks}"), &a, &c);
        assert!(a.iterations < 200, "detector must fire before the cap");
        assert_eq!(sync.final_state, a.final_state, "tasks={tasks}");
    }
}

/// The sim keeps its virtual-time reproducibility contract in delta
/// mode: two runs of the same config on fresh runners are bit-identical
/// in values, progress traces, check counts and simulated wall-clock,
/// including under a partial priority share and sparser checks.
#[test]
fn delta_sim_is_bit_reproducible_across_runs() {
    let g = dataset("Google").unwrap().generate(0.003);
    for (share, every) in [(1u32, 1usize), (10, 2)] {
        let cfg = IterConfig::new("prd", 4, 400)
            .with_accumulative_mode()
            .with_distance_threshold(1e-10)
            .with_delta_share(share)
            .with_check_every(every);
        let a = pagerank::run_pagerank_delta(&imr_runner(4), &g, &cfg).unwrap();
        let b = pagerank::run_pagerank_delta(&imr_runner(4), &g, &cfg).unwrap();
        assert_same_outcome(&format!("share={share} every={every}"), &a, &b);
        assert_eq!(
            a.report.finished, b.report.finished,
            "virtual time must be reproducible (share={share} every={every})"
        );
    }
}

/// Everything the simulator emits in delta mode is bit-reproducible,
/// not just the outcome: two fresh runs with a checkpoint after every
/// check and both observability sinks attached record the same trace
/// (kinds, tags and stamps, in ring order), the same telemetry series
/// and histograms, and the same counters, DFS traffic included. The
/// pairs run on threads; their fixed turn order is what this holds.
#[test]
fn delta_sim_observables_are_bit_reproducible() {
    let g = dataset("Google").unwrap().generate(0.003);
    for (share, every) in [(1u32, 1usize), (10, 2)] {
        let cfg = IterConfig::new("prd", 4, 400)
            .with_accumulative_mode()
            .with_distance_threshold(1e-10)
            .with_delta_share(share)
            .with_check_every(every)
            .with_checkpoint_interval(1);
        let run = || {
            let trace = std::sync::Arc::new(imr_trace::TraceBuffer::with_capacity(1 << 16));
            let tel = std::sync::Arc::new(imr_telemetry::Telemetry::default());
            let runner = imr_runner(4)
                .with_trace(std::sync::Arc::clone(&trace))
                .with_telemetry(std::sync::Arc::clone(&tel));
            let out = pagerank::run_pagerank_delta(&runner, &g, &cfg).unwrap();
            let events = trace.snapshot();
            (out, events, tel.samples(), tel.hist_snapshots())
        };
        let (a, a_events, a_series, a_hists) = run();
        let (b, b_events, b_series, b_hists) = run();
        let label = format!("share={share} every={every}");
        assert_same_outcome(&label, &a, &b);
        assert!(a.iterations > 1, "{label}: a check must checkpoint");
        assert!(!a_events.is_empty() && !a_series.is_empty(), "{label}");
        assert_eq!(a_events, b_events, "{label}: traces diverge");
        assert_eq!(a_series, b_series, "{label}: telemetry series diverge");
        assert_eq!(a_hists, b_hists, "{label}: phase histograms diverge");
        assert_eq!(a.report.metrics, b.report.metrics, "{label}: counters");
        assert!(
            a.report.metrics.dfs_write_bytes > 0,
            "{label}: no DFS writes"
        );
    }
}

/// Maiter's equivalence for PageRank: whatever share of its pending
/// keys a round applies, the simulator, worker threads and TCP worker
/// processes agree bit for bit per share, and every share lands within
/// 1e-8 (L∞) of the schedule that applies every pending key. A share of
/// 0 is the same `Config` error on all three.
#[test]
fn delta_pagerank_every_share_agrees_across_engines_and_with_share_one() {
    let g = dataset("Google").unwrap().generate(0.003);
    let nodes = g.num_nodes().to_string();
    let tcp = || tcp_runner(4, WORKER, &["pagerank", &nodes]);
    let cfg = |share| {
        IterConfig::new("prd", 4, 400)
            .with_accumulative_mode()
            .with_distance_threshold(1e-10)
            .with_delta_share(share)
    };
    let mut every_key: Option<Vec<(u32, f64)>> = None;
    for share in [1u32, 2, 3, 8] {
        let a = pagerank::run_pagerank_delta(&imr_runner(4), &g, &cfg(share)).unwrap();
        let b = pagerank::run_pagerank_delta(&native_runner(4), &g, &cfg(share)).unwrap();
        let c = pagerank::run_pagerank_delta(&tcp(), &g, &cfg(share)).unwrap();
        assert_same_outcome(&format!("sim vs threads, share={share}"), &a, &b);
        assert_same_outcome(&format!("sim vs tcp, share={share}"), &a, &c);
        assert!(a.iterations < 400, "share={share}: the detector must fire");
        let base = every_key.get_or_insert_with(|| a.final_state.clone());
        assert_eq!(base.len(), a.final_state.len());
        let linf = base
            .iter()
            .zip(&a.final_state)
            .map(|((k1, v1), (k2, v2))| {
                assert_eq!(k1, k2);
                (v1 - v2).abs()
            })
            .fold(0.0, f64::max);
        assert!(linf < 1e-8, "share={share}: L∞ {linf} from share 1");
    }
    for (engine, out) in [
        (
            "sim",
            pagerank::run_pagerank_delta(&imr_runner(4), &g, &cfg(0)),
        ),
        (
            "threads",
            pagerank::run_pagerank_delta(&native_runner(4), &g, &cfg(0)),
        ),
        ("tcp", pagerank::run_pagerank_delta(&tcp(), &g, &cfg(0))),
    ] {
        match out {
            Err(EngineError::Config(msg)) => assert!(msg.contains("share"), "{engine}: {msg}"),
            Err(other) => panic!("{engine}: expected a Config error, got {other}"),
            Ok(_) => panic!("{engine}: a share of 0 ran"),
        }
    }
}

#[test]
fn bigger_clusters_run_faster() {
    // The scaling claim (Figs. 12-13) end to end: more EC2 instances,
    // shorter virtual time, for both engines.
    // Sample-scale compensation (as the bench harness uses) so data
    // costs dominate the fixed per-task overheads, as at full size.
    let scale = 0.01;
    let g = dataset("SSSP-s").unwrap().generate(scale);
    let mut prev_imr = f64::INFINITY;
    let mut prev_mr = f64::INFINITY;
    for n in [4usize, 16] {
        let imr = imr_runner_on(ClusterSpec::ec2(n).with_sample_scale(scale));
        let cfg = IterConfig::new("sssp", n, 4);
        let a = sssp::run_sssp_imr(&imr, &g, 0, &cfg).unwrap();
        let t_imr = a.report.finished.as_secs_f64();
        assert!(t_imr < prev_imr, "iMapReduce did not scale at n={n}");
        prev_imr = t_imr;

        let mr =
            imr_algorithms::testutil::mr_runner_on(ClusterSpec::ec2(n).with_sample_scale(scale));
        let b = sssp::run_sssp_mr(&mr, &g, 0, n, 4, None).unwrap();
        let t_mr = b.report.finished.as_secs_f64();
        assert!(t_mr < prev_mr, "MapReduce did not scale at n={n}");
        prev_mr = t_mr;
    }
}

/// Every part of the newest snapshot (`/o/_ckpt/**/part-*`), by path.
fn snapshot_parts(runner: &impl IterEngine) -> Vec<(String, Vec<u8>)> {
    let mut clock = TaskClock::default();
    runner
        .dfs()
        .list("/o/_ckpt")
        .into_iter()
        .filter(|path| {
            path.rsplit('/')
                .next()
                .is_some_and(|f| f.starts_with("part-"))
        })
        .map(|path| {
            let bytes = runner.dfs().read(&path, NodeId(0), &mut clock).unwrap();
            (path, bytes.to_vec())
        })
        .collect()
}

/// The simulator and the threads engine leave the same snapshot behind,
/// byte for byte: part q is pair q's reduce-side state on both — its own
/// reduce output under one2all (K-means), its partition under one2one
/// (SSSP) — so a rollback on either engine restarts from the same bytes.
#[test]
fn snapshot_parts_are_byte_identical_across_engines() {
    let points = generate_points(400, 5, 3, 77);
    let cfg = IterConfig::new("km", 4, 5)
        .with_one2all()
        .with_checkpoint_interval(2);
    let (sim, nat) = (imr_runner(4), native_runner(4));
    kmeans_run(&sim, &points, &cfg, &[]);
    kmeans_run(&nat, &points, &cfg, &[]);
    let parts = snapshot_parts(&sim);
    assert_eq!(parts.len(), 4);
    assert!(parts
        .iter()
        .all(|(path, _)| path.starts_with("/o/_ckpt/iter-0004/")));
    // One centroid per reduce output, not the whole state in part 0.
    assert_eq!(
        parts.iter().filter(|(_, bytes)| !bytes.is_empty()).count(),
        3
    );
    assert_eq!(parts, snapshot_parts(&nat), "one2all snapshots differ");

    let g = dataset("DBLP").unwrap().generate(0.003);
    let cfg = IterConfig::new("sssp", 4, 5).with_checkpoint_interval(2);
    let (sim, nat) = (imr_runner(4), native_runner(4));
    sssp_run(&sim, &g, &cfg, &[]);
    sssp_run(&nat, &g, &cfg, &[]);
    let parts = snapshot_parts(&sim);
    assert_eq!(parts.len(), 4);
    assert_eq!(parts, snapshot_parts(&nat), "one2one snapshots differ");
}

/// The error a run of `cfg` ends in, over a small SSSP input loaded for
/// two pairs; with `corrupt`, the first state part is 3 bytes of
/// garbage.
fn sssp_error(runner: &impl IterEngine, cfg: &IterConfig, corrupt: bool) -> EngineError {
    let g = dataset("DBLP").unwrap().generate(0.003);
    sssp::load_sssp_imr(runner, &g, 0, 2, "/s", "/t").unwrap();
    if corrupt {
        let garbage = bytes::Bytes::from_static(&[0xff; 3]);
        let mut clock = TaskClock::default();
        runner
            .dfs()
            .put("/s/part-00000", garbage, NodeId(0), &mut clock)
            .unwrap();
    }
    match runner.run(&SsspIter, cfg, "/s", "/t", "/o", &[]) {
        Ok(out) => panic!("{} ran {} iterations", cfg.name, out.iterations),
        Err(e) => e,
    }
}

/// The `Config` message a run of `cfg` is refused with, on the
/// simulator and on the threads engine.
fn config_refusals(cfg: &IterConfig) -> [String; 2] {
    [
        sssp_error(&imr_runner(4), cfg, false),
        sssp_error(&native_runner(4), cfg, false),
    ]
    .map(|err| match err {
        EngineError::Config(msg) => msg,
        other => panic!(
            "{}: expected a configuration error, got {other:?}",
            cfg.name
        ),
    })
}

/// `num_tasks` and `max_iterations` are public fields, so a zero can
/// get past `IterConfig::new`; both engines refuse it before running.
#[test]
fn zero_pairs_or_zero_iterations_is_a_config_error_on_both_engines() {
    let mut no_pairs = IterConfig::new("no pairs", 2, 3);
    no_pairs.num_tasks = 0;
    let mut no_iterations = IterConfig::new("no iterations", 2, 3);
    no_iterations.termination.max_iterations = 0;
    for cfg in [no_pairs, no_iterations] {
        for msg in config_refusals(&cfg) {
            assert!(
                msg.contains("at least one task pair and one iteration"),
                "{msg}"
            );
        }
    }
}

/// A knob no engine would read is refused, not ignored: eager hand-off
/// under one2all.
#[test]
fn knobs_an_engine_would_ignore_are_config_errors_on_both_engines() {
    let cfg = IterConfig::new("km", 2, 3)
        .with_one2all()
        .with_eager_handoff();
    for err in [
        kmeans_error(&imr_runner(4), &cfg),
        kmeans_error(&native_runner(4), &cfg),
    ] {
        assert!(
            matches!(&err, EngineError::Config(msg) if msg.contains("one2all")),
            "{err:?}"
        );
    }
}

/// SSSP declared a job of two phases, to run where a phased job may not.
struct TwoPhaseSssp;

impl IterativeJob for TwoPhaseSssp {
    type K = u32;
    type S = f64;
    type T = <SsspIter as IterativeJob>::T;
    fn map(&self, k: &u32, s: StateInput<'_, u32, f64>, t: &Self::T, out: &mut Emitter<u32, f64>) {
        SsspIter.map(k, s, t, out);
    }
    fn fold(&self, k: &u32, acc: &mut f64, v: f64) {
        SsspIter.fold(k, acc, v);
    }
    fn phases(&self) -> usize {
        2
    }
}

impl Accumulative for TwoPhaseSssp {
    fn identity(&self) -> f64 {
        SsspIter.identity()
    }
    fn seed(&self, k: &u32, loaded: &f64) -> (f64, f64) {
        SsspIter.seed(k, loaded)
    }
    fn extract(&self, k: &u32, delta: &f64, t: &Self::T, out: &mut Emitter<u32, f64>) {
        SsspIter.extract(k, delta, t, out);
    }
    fn progress(&self, k: &u32, value: &f64, delta: &f64) -> f64 {
        SsspIter.progress(k, value, delta)
    }
}

/// A job of two phases is refused under one2all, with a distance
/// threshold, in the delta mode, for a part of a round of phases, and
/// over a static directory that does not hold two parts per pair — with the same `Config` message on the
/// simulator, worker threads and TCP worker processes.
#[test]
fn a_phased_job_outside_its_contract_is_the_same_config_error_on_every_engine() {
    let g = dataset("DBLP").unwrap().generate(0.003);
    let base = IterConfig::new("phased", 2, 4);
    let cases = [
        (base.clone().with_one2all(), "one2one"),
        (
            base.clone().with_distance_threshold(1e-9),
            "distance threshold",
        ),
        (IterConfig::new("phased", 2, 3), "whole number of rounds"),
        (base.clone(), "phases × num_tasks = 4 parts"),
    ];
    for (cfg, needle) in cases {
        assert_phased_refusal(&g, &cfg, needle);
    }
    let delta = base.with_accumulative_mode().with_distance_threshold(1e-9);
    assert_phased_refusal(&g, &delta, "accumulative mode runs a single phase");
}

/// [`TwoPhaseSssp`] under `cfg` ends in the same `Config` error, naming
/// `needle`, on the simulator, worker threads and TCP worker processes.
fn assert_phased_refusal<M: Entry>(g: &Graph, cfg: &IterConfig<M>, needle: &str) {
    let tcp = tcp_runner(4, WORKER, &["sssp"]);
    let errors = [
        phased_error(&imr_runner(4), g, cfg),
        phased_error(&native_runner(4), g, cfg),
        phased_error(&tcp, g, cfg),
    ];
    let msgs = errors.map(|err| match err {
        EngineError::Config(msg) => msg,
        other => panic!("{needle}: expected a configuration error, got {other:?}"),
    });
    assert!(msgs[0].contains(needle), "{}", msgs[0]);
    assert!(msgs.iter().all(|msg| *msg == msgs[0]), "{msgs:?}");
}

/// The entry point of a config's mode — `run_faults` or
/// `run_accumulative` — so one helper runs a job in either mode.
trait Entry: Sized {
    fn run<J: Accumulative>(
        runner: &impl IterEngine,
        job: &J,
        cfg: &IterConfig<Self>,
        dirs: [&str; 3],
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError>;
}

impl Entry for Iterative {
    fn run<J: Accumulative>(
        runner: &impl IterEngine,
        job: &J,
        cfg: &IterConfig,
        [state, stat, out]: [&str; 3],
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        runner.run_faults(job, cfg, state, stat, out, faults)
    }
}

impl Entry for Delta {
    fn run<J: Accumulative>(
        runner: &impl IterEngine,
        job: &J,
        cfg: &IterConfig<Delta>,
        [state, stat, out]: [&str; 3],
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        runner.run_accumulative(job, cfg, state, stat, out, faults)
    }
}

/// The error [`TwoPhaseSssp`] on `g`, loaded for two pairs, ends in.
fn phased_error<M: Entry>(runner: &impl IterEngine, g: &Graph, cfg: &IterConfig<M>) -> EngineError {
    sssp::load_sssp_imr(runner, g, 0, 2, "/s", "/t").unwrap();
    let out = M::run(runner, &TwoPhaseSssp, cfg, ["/s", "/t", "/o"], &[]);
    match out {
        Ok(out) => panic!("{} ran {} iterations", cfg.name, out.iterations),
        Err(e) => e,
    }
}

/// The error a run of `cfg` ends in, over a small K-means input loaded
/// for two pairs.
fn kmeans_error(runner: &impl IterEngine, cfg: &IterConfig) -> EngineError {
    let points = generate_points(60, 3, 2, 5);
    kmeans::load_kmeans_imr(runner, &points, 3, 2, "/s", "/t").unwrap();
    let job = KmeansIter { combiner: false };
    match runner.run(&job, cfg, "/s", "/t", "/o", &[]) {
        Ok(out) => panic!("{} ran {} iterations", cfg.name, out.iterations),
        Err(e) => e,
    }
}

/// A state part that does not decode is a codec error on every engine,
/// not a lost block: its bytes were read.
#[test]
fn a_corrupt_state_part_is_a_codec_error_on_both_engines() {
    let cfg = IterConfig::new("sssp", 2, 3);
    for err in [
        sssp_error(&imr_runner(4), &cfg, true),
        sssp_error(&native_runner(4), &cfg, true),
    ] {
        assert!(matches!(err, EngineError::Codec(_)), "{err:?}");
    }
}

/// SSSP whose reduce-side `finish` panics at one key.
struct FinishPanicsAt(u32);

impl imapreduce::IterativeJob for FinishPanicsAt {
    type K = u32;
    type S = f64;
    type T = sssp::Adj;
    fn map(
        &self,
        k: &u32,
        state: imapreduce::StateInput<'_, u32, f64>,
        adj: &sssp::Adj,
        out: &mut imapreduce::Emitter<u32, f64>,
    ) {
        SsspIter.map(k, state, adj, out);
    }
    fn fold(&self, k: &u32, acc: &mut f64, v: f64) {
        SsspIter.fold(k, acc, v);
    }
    fn finish(&self, k: &u32, acc: f64) -> f64 {
        assert_ne!(*k, self.0, "finish at key {k}");
        acc
    }
}

/// The error a run of `FinishPanicsAt(1)` ends with on `runner`.
fn panicking_run(runner: &impl IterEngine) -> EngineError {
    let g = dataset("DBLP").unwrap().generate(0.003);
    sssp::load_sssp_imr(runner, &g, 0, 2, "/s", "/t").unwrap();
    let cfg = IterConfig::new("sssp", 2, 3);
    match runner.run(&FinishPanicsAt(1), &cfg, "/s", "/t", "/o", &[]) {
        Ok(out) => panic!("the job ran {} iterations", out.iterations),
        Err(e) => e,
    }
}

/// Job code that panics is a worker error on both engines: the pair
/// that ran it fails, its peers unwind, and the caller gets an error —
/// its own thread never runs job code.
#[test]
fn a_panicking_job_is_a_worker_error_on_both_engines() {
    for err in [
        panicking_run(&imr_runner(4)),
        panicking_run(&native_runner(4)),
    ] {
        assert!(
            matches!(&err, EngineError::Worker(msg) if msg.contains("finish at key 1")),
            "{err:?}"
        );
    }
}

/// A scripted kill on node 3 of `local(4)`, which hosts neither of two
/// pairs (`assign_pairs` puts them on nodes 0 and 1), fires nowhere: no
/// pair dies, nothing rolls back, and the result is the clean run's.
#[test]
fn a_fault_on_a_node_that_hosts_no_pair_fires_nowhere_on_both_engines() {
    let g = dataset("DBLP").unwrap().generate(0.003);
    let cfg = IterConfig::new("sssp", 2, 6).with_checkpoint_interval(2);
    let kill = [FailureEvent {
        node: NodeId(3),
        at_iteration: 3,
    }];
    let sim = [&[][..], &kill].map(|failures| sssp_run(&imr_runner(4), &g, &cfg, failures));
    let threads = [&[][..], &kill].map(|failures| sssp_run(&native_runner(4), &g, &cfg, failures));
    for (engine, [clean, killed]) in [("sim", sim), ("threads", threads)] {
        assert_eq!(killed.recoveries, 0, "{engine}");
        assert_eq!(killed.final_state, clean.final_state, "{engine}");
        assert_eq!(killed.iterations, clean.iterations, "{engine}");
    }
}

/// The input of a fault-contract case.
#[derive(Clone, Copy)]
enum Input<'g> {
    Sssp(&'g Graph),
    PageRank(&'g Graph),
    ConComp(&'g Graph),
}

impl Input<'_> {
    fn load(self, runner: &impl IterEngine, tasks: usize) {
        match self {
            Input::Sssp(g) => sssp::load_sssp_imr(runner, g, 0, tasks, "/s", "/t"),
            Input::PageRank(g) => pagerank::load_pagerank_imr(runner, g, tasks, "/s", "/t"),
            Input::ConComp(g) => concomp::load_concomp_imr(runner, g, tasks, "/s", "/t"),
        }
        .unwrap();
    }

    /// How the worker binary names the job.
    fn worker_args(self) -> Vec<String> {
        match self {
            Input::Sssp(_) => vec!["sssp".into()],
            Input::PageRank(g) => vec!["pagerank".into(), g.num_nodes().to_string()],
            Input::ConComp(_) => vec!["concomp".into()],
        }
    }
}

/// Loads `input` and runs `job` on it under `faults`, in `cfg`'s mode.
fn run_faulted<J: Accumulative<K = u32>, M: Entry>(
    runner: &impl IterEngine,
    job: &J,
    input: Input<'_>,
    cfg: &IterConfig<M>,
    faults: &[FaultEvent],
) -> Result<IterOutcome<u32, J::S>, EngineError> {
    input.load(runner, cfg.num_tasks);
    M::run(runner, job, cfg, ["/s", "/t", "/o"], faults)
}

/// The fault contract (§3.4.1) on `local(nodes)`: under `faults`, `job`
/// on `input` ends on the simulator, worker threads and TCP worker
/// processes alike with the clean run's final state, iteration count
/// and distance bits, after `recoveries` recoveries and no migration.
fn assert_fault_contract<J, M>(
    nodes: usize,
    job: &J,
    input: Input<'_>,
    cfg: &IterConfig<M>,
    faults: &[FaultEvent],
    recoveries: u64,
) where
    J: Accumulative<K = u32>,
    J::S: PartialEq + std::fmt::Debug,
    M: Entry,
{
    let seen = |engine: &str, out: Result<IterOutcome<u32, J::S>, EngineError>| {
        let out = out.unwrap_or_else(|e| panic!("{engine} under {faults:?}: {e}"));
        let bits: Vec<u64> = out.distances.iter().map(|d| d.to_bits()).collect();
        (
            out.final_state,
            out.iterations,
            bits,
            out.recoveries,
            out.migrations,
        )
    };
    let clean = run_faulted(&imr_runner(nodes), job, input, cfg, &[]);
    let (state, iterations, bits, ..) = seen("clean sim", clean);
    let expect = (state, iterations, bits, recoveries, 0);
    let args = input.worker_args();
    let tcp = tcp_runner(
        nodes,
        WORKER,
        &args.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for (engine, out) in [
        (
            "sim",
            run_faulted(&imr_runner(nodes), job, input, cfg, faults),
        ),
        (
            "threads",
            run_faulted(&native_runner(nodes), job, input, cfg, faults),
        ),
        ("tcp", run_faulted(&tcp, job, input, cfg, faults)),
    ] {
        assert!(seen(engine, out) == expect, "{engine} under {faults:?}");
    }
}

/// A watchdog with headroom over worker process spawn and connect.
fn fault_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        poll: Duration::from_millis(5),
        stall_timeout: Duration::from_secs(2),
    }
}

/// A kill or a hang on `node` once iteration (or check) `at` is done.
fn kill(node: u32, at: usize) -> FaultEvent {
    FaultEvent::Kill {
        node: NodeId(node),
        at_iteration: at,
    }
}

fn hang(node: u32, at: usize) -> FaultEvent {
    FaultEvent::Hang {
        node: NodeId(node),
        at_iteration: at,
    }
}

/// Under a distance threshold the pairs vote before a scripted fault
/// takes effect: the failing pair votes, writes its snapshot and exits,
/// and only its exit poisons the generation. A kill in the async and
/// sync modes, and a hang the watchdog catches, each recover once to
/// the clean result on every engine.
#[test]
fn a_fault_under_a_distance_threshold_recovers_alike_on_every_engine() {
    let g = generate_graph(500, 3500, pagerank_degree_dist(), 7);
    let job = PageRankIter::new(500);
    let cfg = IterConfig::new("pr", 2, 50)
        .with_distance_threshold(1e-6)
        .with_checkpoint_interval(2);
    let input = Input::PageRank(&g);
    assert_fault_contract(4, &job, input, &cfg, &[kill(0, 3)], 1);
    let sync = cfg.clone().with_sync_maps();
    assert_fault_contract(4, &job, input, &sync, &[kill(0, 3)], 1);
    let watched = cfg.with_watchdog(fault_watchdog());
    assert_fault_contract(4, &job, input, &watched, &[hang(0, 3)], 1);
}

/// The delta mode takes scripted faults on every engine: a kill or a
/// hang after check 3 rolls SSSP, PageRank and connected components
/// back to check 2, and each replays to the clean fixpoint.
#[test]
fn a_fault_in_the_delta_mode_recovers_alike_on_every_engine() {
    let weighted = generate_weighted_graph(400, 1600, sssp_degree_dist(), sssp_weight_dist(), 7);
    let g = generate_graph(500, 3500, pagerank_degree_dist(), 7);
    let cfg = |eps: f64| {
        IterConfig::new("delta", 2, 400)
            .with_accumulative_mode()
            .with_distance_threshold(eps)
            .with_checkpoint_interval(2)
            .with_watchdog(fault_watchdog())
    };
    for faults in [[kill(0, 3)], [hang(1, 3)]] {
        assert_fault_contract(4, &SsspIter, Input::Sssp(&weighted), &cfg(1e-9), &faults, 1);
        let pagerank = PageRankIter::new(500);
        assert_fault_contract(4, &pagerank, Input::PageRank(&g), &cfg(1e-6), &faults, 1);
        assert_fault_contract(4, &ConCompIter, Input::ConComp(&g), &cfg(0.5), &faults, 1);
    }
}

/// A failed node's pairs move by the master's one relocation rule on
/// every engine: the kill on node 0 after iteration 3 moves its pair to
/// node 1, so the kill on node 0 after iteration 5 finds no pair — one
/// recovery everywhere.
#[test]
fn a_second_kill_on_a_failed_node_fires_nowhere_on_every_engine() {
    let g = generate_weighted_graph(400, 1600, sssp_degree_dist(), sssp_weight_dist(), 7);
    let cfg = IterConfig::new("sssp", 2, 8).with_checkpoint_interval(2);
    assert_fault_contract(
        4,
        &SsspIter,
        Input::Sssp(&g),
        &cfg,
        &[kill(0, 3), kill(0, 5)],
        1,
    );
}

/// A failed node stays out of service across rollbacks: the hangs on
/// nodes 0 and 1 after iteration 3 move their pairs onto nodes 2 and 3,
/// which fills both, so the hang on node 2 after iteration 4 finds no
/// free slot on a node in service and restarts node 2 in place, rather
/// than sending its pairs to the failed node 0. On every engine the run
/// recovers three times to the clean result, and no pair of a later
/// generation runs on node 0 or 1.
#[test]
fn a_failed_node_gets_no_pair_back_on_every_engine() {
    let g = generate_weighted_graph(400, 1600, sssp_degree_dist(), sssp_weight_dist(), 7);
    let cfg = IterConfig::new("sssp", 4, 8)
        .with_checkpoint_interval(2)
        .with_watchdog(fault_watchdog());
    let faults = [hang(0, 3), hang(1, 3), hang(2, 4)];
    let input = Input::Sssp(&g);
    assert_fault_contract(4, &SsspIter, input, &cfg, &faults, 3);
    let traces: [TraceHandle; 3] =
        std::array::from_fn(|_| Arc::new(TraceBuffer::with_capacity(1 << 14)));
    let sim = imr_runner(4).with_trace(Arc::clone(&traces[0]));
    run_faulted(&sim, &SsspIter, input, &cfg, &faults).unwrap();
    let threads = native_runner(4).with_trace(Arc::clone(&traces[1]));
    run_faulted(&threads, &SsspIter, input, &cfg, &faults).unwrap();
    let tcp = tcp_runner(4, WORKER, &["sssp"]).with_trace(Arc::clone(&traces[2]));
    run_faulted(&tcp, &SsspIter, input, &cfg, &faults).unwrap();
    for (engine, trace) in ["sim", "threads", "tcp"].into_iter().zip(&traces) {
        let events = trace.snapshot();
        let pairs = || {
            events
                .iter()
                .filter(|e| e.task != COORD && e.generation > 0)
        };
        assert!(
            pairs().any(|e| e.generation == 2),
            "{engine}: no third generation"
        );
        let placed: Vec<u32> = pairs().map(|e| e.node).filter(|&node| node < 2).collect();
        assert!(
            placed.is_empty(),
            "{engine}: pairs on failed nodes {placed:?}"
        );
    }
}

/// A kill on the only node leaves its pairs no other slot: the node is
/// restarted with its pairs in place, and the run recovers once to the
/// clean result on every engine.
#[test]
fn a_kill_with_no_free_slot_restarts_the_node_in_place_on_every_engine() {
    let g = generate_weighted_graph(100, 400, sssp_degree_dist(), sssp_weight_dist(), 7);
    let cfg = IterConfig::new("sssp", 2, 6).with_checkpoint_interval(2);
    assert_fault_contract(1, &SsspIter, Input::Sssp(&g), &cfg, &[kill(0, 3)], 1);
}

/// A fault naming a node the cluster does not have is refused before
/// any pair runs, with the same typed error on every engine.
#[test]
fn a_fault_on_a_node_the_cluster_lacks_is_a_config_error_on_both_engines() {
    let g = dataset("DBLP").unwrap().generate(0.003);
    let cfg = IterConfig::new("sssp", 2, 6).with_checkpoint_interval(2);
    let kill = [FailureEvent {
        node: NodeId(9),
        at_iteration: 3,
    }];
    let refused = |engine: &str, result: Result<IterOutcome<u32, f64>, EngineError>| match result {
        Err(EngineError::Config(msg)) => assert!(msg.contains("NodeId(9)"), "{engine}: {msg}"),
        Err(other) => panic!("{engine}: expected a configuration error, got {other}"),
        Ok(out) => panic!(
            "{engine}: expected a configuration error, got Ok ({} recoveries)",
            out.recoveries
        ),
    };
    let sim = imr_runner(4);
    sssp::load_sssp_imr(&sim, &g, 0, 2, "/s", "/t").unwrap();
    refused("sim", sim.run(&SsspIter, &cfg, "/s", "/t", "/o", &kill));
    let threads = native_runner(4);
    sssp::load_sssp_imr(&threads, &g, 0, 2, "/s", "/t").unwrap();
    refused(
        "threads",
        threads.run(&SsspIter, &cfg, "/s", "/t", "/o", &kill),
    );
}

/// What a test does to a static part's bytes.
type Spoil = fn(Bytes) -> Bytes;

/// Loads PageRank's parts for two pairs, rewrites pair 1's static part
/// with `spoil`, and runs the job in `cfg`'s mode: the error it must end
/// in.
fn spoiled_run<M: Entry>(
    runner: &impl IterEngine,
    g: &Graph,
    cfg: &IterConfig<M>,
    spoil: Spoil,
) -> EngineError {
    let dfs = runner.dfs();
    pagerank::load_pagerank_imr(runner, g, 2, "/bad/state", "/bad/static").unwrap();
    let path = part_path("/bad/static", 1);
    let raw = dfs
        .read(&path, NodeId(0), &mut TaskClock::default())
        .unwrap();
    dfs.put(&path, spoil(raw), NodeId(0), &mut TaskClock::default())
        .unwrap();
    let job = PageRankIter::new(g.num_nodes() as u64);
    let dirs = ["/bad/state", "/bad/static", "/bad/out"];
    match M::run(runner, &job, cfg, dirs, &[]) {
        Err(e) => e,
        Ok(out) => panic!("a spoiled static part ran {} iterations", out.iterations),
    }
}

/// [`spoiled_run`] on the simulator, worker threads and TCP worker
/// processes.
fn spoiled_runs<M: Entry>(g: &Graph, cfg: &IterConfig<M>, spoil: Spoil) -> [EngineError; 3] {
    let nodes = g.num_nodes().to_string();
    let tcp = tcp_runner(2, WORKER, &["pagerank", &nodes]);
    [
        spoiled_run(&imr_runner(2), g, cfg, spoil),
        spoiled_run(&native_runner(2), g, cfg, spoil),
        spoiled_run(&tcp, g, cfg, spoil),
    ]
}

/// A static part cut short inside a record, and one whose keys are out
/// of line with the state's, are typed errors on the simulator, the
/// thread fabric and TCP worker processes, in the map/reduce loop and
/// the delta loop alike — never a panic or a hang.
#[test]
fn a_spoiled_static_part_is_a_typed_error_on_every_engine() {
    let g = dataset("Google").unwrap().generate(0.003);
    let truncate = |raw: Bytes| raw.slice(..raw.len() - 3);
    let misalign = |raw: Bytes| {
        let mut rows: Vec<(u32, Vec<u32>)> = decode_pairs(raw).unwrap();
        rows.last_mut().unwrap().0 = u32::MAX;
        encode_pairs(&rows)
    };
    let cases: [(&str, Spoil, &str); 2] = [
        ("truncated", truncate, "unexpected end of record stream"),
        (
            "misaligned",
            misalign,
            "state/static keys diverged at pair 1",
        ),
    ];
    for (what, spoil, needle) in cases {
        for delta in [false, true] {
            let cfg = IterConfig::new("spoiled", 2, 3);
            let [sim, threads, tcp] = match delta {
                false => spoiled_runs(&g, &cfg, spoil),
                true => {
                    let cfg = cfg.with_accumulative_mode().with_distance_threshold(1e-9);
                    spoiled_runs(&g, &cfg, spoil)
                }
            };
            for (engine, err) in [("sim", &sim), ("threads", &threads), ("tcp", &tcp)] {
                let msg = err.to_string();
                assert!(
                    msg.contains(needle),
                    "{what}, delta={delta}, {engine}: {msg}"
                );
                assert!(
                    !msg.contains("panicked"),
                    "{what}, delta={delta}, {engine}: {msg}"
                );
            }
            for (engine, err) in [("sim", sim), ("threads", threads)] {
                let typed = match what {
                    "truncated" => matches!(err, EngineError::Codec(_)),
                    _ => matches!(err, EngineError::Config(_)),
                };
                assert!(typed, "{what}, delta={delta}, {engine}: {err:?}");
            }
        }
    }
}
