//! Engine-level integration tests for the iMapReduce runtime: timing
//! semantics (async vs sync), persistence effects, fault tolerance,
//! load balancing, one2all broadcast, jobs of two phases and the
//! auxiliary phase.

use imapreduce::{
    load_partitioned, run_with_aux, AuxPhase, ChaosConfig, Emitter, EngineError, FailureEvent,
    IterConfig, IterEngine, IterativeJob, IterativeRunner, LoadBalance, StateInput, WatchdogConfig,
};
use imr_dfs::Dfs;
use imr_simcluster::{ClusterSpec, Metrics, MetricsHandle, NodeId, TaskClock};
use std::sync::Arc;

fn runner_on(spec: ClusterSpec) -> IterativeRunner {
    let spec = Arc::new(spec);
    let metrics: MetricsHandle = Arc::new(Metrics::default());
    let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 2, 1 << 20);
    IterativeRunner::new(spec, dfs, metrics)
}

/// A toy contraction: every key averages with a fixed per-key target.
/// Converges geometrically; deterministic; exercises distance-based
/// termination.
struct Relax;
impl IterativeJob for Relax {
    type K = u32;
    type S = f64;
    type T = f64; // the target value (static)
    fn map(&self, k: &u32, s: StateInput<'_, u32, f64>, t: &f64, out: &mut Emitter<u32, f64>) {
        out.emit(*k, (s.one() + t) / 2.0);
    }
    /// Each key receives exactly one value, its own: the mean is that
    /// value, and a second one is never folded in.
    fn fold(&self, _k: &u32, _acc: &mut f64, _v: f64) {
        debug_assert!(false, "one value per key");
    }
    fn distance(&self, _k: &u32, prev: &f64, cur: &f64) -> f64 {
        (prev - cur).abs()
    }
}

fn load_relax(r: &IterativeRunner, n_keys: u32, tasks: usize) {
    let mut clock = TaskClock::default();
    let state: Vec<(u32, f64)> = (0..n_keys).map(|k| (k, 100.0)).collect();
    let statics: Vec<(u32, f64)> = (0..n_keys).map(|k| (k, f64::from(k))).collect();
    let job = Relax;
    load_partitioned(
        r.dfs(),
        "/state",
        state,
        tasks,
        |k, n| job.partition(k, n),
        &mut clock,
    )
    .unwrap();
    load_partitioned(
        r.dfs(),
        "/static",
        statics,
        tasks,
        |k, n| job.partition(k, n),
        &mut clock,
    )
    .unwrap();
}

#[test]
fn relax_converges_to_targets() {
    let r = runner_on(ClusterSpec::local(4));
    load_relax(&r, 32, 4);
    let cfg = IterConfig::new("relax", 4, 40).with_distance_threshold(1e-6);
    let out = r
        .run(&Relax, &cfg, "/state", "/static", "/out", &[])
        .unwrap();
    assert!(out.iterations < 40, "should converge before the cap");
    for (k, v) in &out.final_state {
        assert!((v - f64::from(*k)).abs() < 1e-4, "key {k} at {v}");
    }
    // Distances shrink monotonically for this contraction.
    let finite: Vec<f64> = out
        .distances
        .iter()
        .copied()
        .filter(|d| d.is_finite())
        .collect();
    assert!(finite.windows(2).all(|w| w[1] <= w[0] + 1e-12));
}

#[test]
fn async_is_no_slower_than_sync_and_both_match_results() {
    let run = |sync: bool| {
        // Heterogeneous speeds make per-pair finish times diverge, which
        // is where async map activation pays off.
        let mut spec = ClusterSpec::local(4);
        spec.nodes[0].speed = 0.4;
        let r = runner_on(spec);
        load_relax(&r, 64, 4);
        let mut cfg = IterConfig::new("relax", 4, 8);
        if sync {
            cfg = cfg.with_sync_maps();
        }
        r.run(&Relax, &cfg, "/state", "/static", "/out", &[])
            .unwrap()
    };
    let async_out = run(false);
    let sync_out = run(true);
    assert_eq!(async_out.final_state, sync_out.final_state);
    assert!(
        async_out.report.finished <= sync_out.report.finished,
        "async {} > sync {}",
        async_out.report.finished,
        sync_out.report.finished
    );
    // With a straggler node the asynchronous run must be strictly faster.
    assert!(async_out.report.finished < sync_out.report.finished);
}

#[test]
fn eager_handoff_pipelines_without_changing_results() {
    let run = |eager: bool| {
        let r = runner_on(ClusterSpec::local(4));
        load_relax(&r, 20_000, 4);
        let mut cfg = IterConfig::new("relax", 4, 8);
        if eager {
            cfg = cfg.with_eager_handoff();
        }
        r.run(&Relax, &cfg, "/state", "/static", "/out", &[])
            .unwrap()
    };
    let plain = run(false);
    let eager = run(true);
    assert_eq!(plain.final_state, eager.final_state);
    assert!(
        eager.report.finished < plain.report.finished,
        "eager {} not faster than batched {}",
        eager.report.finished,
        plain.report.finished
    );
    // Iterations still complete in causal order.
    let times = &eager.report.iteration_done;
    assert!(times.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn virtual_time_is_deterministic() {
    let run = || {
        let r = runner_on(ClusterSpec::ec2(8));
        load_relax(&r, 100, 8);
        let cfg = IterConfig::new("relax", 8, 5);
        let out = r
            .run(&Relax, &cfg, "/state", "/static", "/out", &[])
            .unwrap();
        (
            out.report.finished,
            out.report.iteration_done,
            out.final_state,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn failure_recovery_reproduces_exact_results() {
    let clean = {
        let r = runner_on(ClusterSpec::local(4));
        load_relax(&r, 48, 4);
        let cfg = IterConfig::new("relax", 4, 10).with_checkpoint_interval(3);
        r.run(&Relax, &cfg, "/state", "/static", "/out", &[])
            .unwrap()
    };
    let failed = {
        let r = runner_on(ClusterSpec::local(4));
        load_relax(&r, 48, 4);
        let cfg = IterConfig::new("relax", 4, 10).with_checkpoint_interval(3);
        let failures = [FailureEvent {
            node: NodeId(1),
            at_iteration: 5,
        }];
        r.run(&Relax, &cfg, "/state", "/static", "/out", &failures)
            .unwrap()
    };
    assert_eq!(failed.recoveries, 1);
    assert_eq!(clean.final_state, failed.final_state);
    assert_eq!(clean.iterations, failed.iterations);
    // Recovery costs time: the failed run cannot be faster.
    assert!(failed.report.finished >= clean.report.finished);
}

#[test]
fn failure_without_checkpoint_is_a_config_error() {
    // Unified validation across engines: recovery replays from a
    // checkpoint epoch, so injecting a kill with checkpointing disabled
    // is rejected up front (the sim used to fall back silently to an
    // in-memory iteration-0 snapshot the native backend doesn't have).
    let r = runner_on(ClusterSpec::local(4));
    load_relax(&r, 24, 4);
    let cfg = IterConfig::new("relax", 4, 6).with_checkpoint_interval(0);
    let failures = [FailureEvent {
        node: NodeId(2),
        at_iteration: 4,
    }];
    let err = r
        .run(&Relax, &cfg, "/state", "/static", "/out", &failures)
        .unwrap_err();
    assert!(
        matches!(&err, EngineError::Config(msg) if msg.contains("checkpoint_interval")),
        "unexpected error: {err:?}"
    );
}

#[test]
fn load_balance_without_checkpoint_is_a_config_error() {
    let r = runner_on(ClusterSpec::local(4));
    load_relax(&r, 24, 4);
    let cfg = IterConfig::new("relax", 4, 6)
        .with_checkpoint_interval(0)
        .with_load_balance(LoadBalance::default());
    let err = r
        .run(&Relax, &cfg, "/state", "/static", "/out", &[])
        .unwrap_err();
    assert!(
        matches!(&err, EngineError::Config(msg) if msg.contains("checkpoint_interval")),
        "unexpected error: {err:?}"
    );
}

#[test]
fn load_balancing_migrates_off_slow_workers_and_helps() {
    let mut spec = ClusterSpec::local(3);
    spec.nodes[0].speed = 0.15; // crippled worker
    spec.nodes[1].speed = 1.0;
    spec.nodes[2].speed = 1.0;

    let run = |lb: Option<LoadBalance>| {
        let r = runner_on(spec.clone());
        // Enough records that per-record compute dominates the fixed
        // per-iteration costs, so the slow node actually lags.
        load_relax(&r, 30_000, 3);
        let mut cfg = IterConfig::new("relax", 3, 12).with_checkpoint_interval(1);
        if let Some(lb) = lb {
            cfg = cfg.with_load_balance(lb);
        }
        r.run(&Relax, &cfg, "/state", "/static", "/out", &[])
            .unwrap()
    };
    let plain = run(None);
    let balanced = run(Some(LoadBalance {
        deviation: 0.3,
        max_migrations: 2,
    }));
    assert!(balanced.migrations >= 1, "no migration happened");
    assert_eq!(plain.final_state, balanced.final_state);
    assert!(
        balanced.report.finished < plain.report.finished,
        "balanced {} >= plain {}",
        balanced.report.finished,
        plain.report.finished
    );
}

#[test]
fn single_pair_cluster_works() {
    let r = runner_on(ClusterSpec::single());
    load_relax(&r, 10, 1);
    let cfg = IterConfig::new("relax", 1, 4);
    let out = r
        .run(&Relax, &cfg, "/state", "/static", "/out", &[])
        .unwrap();
    assert_eq!(out.iterations, 4);
    assert_eq!(out.final_state.len(), 10);
    // Everything is local: no remote shuffle, no broadcast.
    assert_eq!(out.report.metrics.shuffle_remote_bytes, 0);
    assert_eq!(out.report.metrics.broadcast_bytes, 0);
}

#[test]
fn more_pairs_than_keys_leaves_empty_partitions_harmless() {
    let r = runner_on(ClusterSpec::local(4));
    // 3 keys over 8 pairs: at least five partitions stay empty.
    load_relax(&r, 3, 8);
    let cfg = IterConfig::new("relax", 8, 3);
    let out = r
        .run(&Relax, &cfg, "/state", "/static", "/out", &[])
        .unwrap();
    assert_eq!(out.final_state.len(), 3);
    for (k, v) in &out.final_state {
        let expect = 100.0 / 8.0 + f64::from(*k) * (1.0 - 1.0 / 8.0);
        assert!((v - expect).abs() < 1e-9, "key {k}: {v} vs {expect}");
    }
}

#[test]
fn first_iteration_distance_is_infinite_under_one2all() {
    let r = runner_on(ClusterSpec::local(4));
    load_kmeans(&r, 4);
    let cfg = IterConfig::new("km", 4, 3)
        .with_one2all()
        .with_distance_threshold(1e12);
    // Threshold is enormous, but iteration 1 has no previous snapshot,
    // so the run must not terminate before iteration 2.
    let out = r
        .run(&MiniKmeans, &cfg, "/centroids", "/points", "/out", &[])
        .unwrap();
    assert!(out.iterations >= 2);
    assert!(out.distances[0].is_infinite());
}

#[test]
fn report_timelines_include_every_executed_iteration() {
    let r = runner_on(ClusterSpec::local(2));
    load_relax(&r, 16, 2);
    let cfg = IterConfig::new("relax", 2, 7);
    let out = r
        .run(&Relax, &cfg, "/state", "/static", "/out", &[])
        .unwrap();
    assert_eq!(out.report.iterations(), 7);
    let spans = out.report.iteration_spans();
    assert_eq!(spans.len(), 7);
    assert!(spans.iter().all(|s| !s.is_zero()));
}

#[test]
fn state_handoff_stays_local_and_counted() {
    let r = runner_on(ClusterSpec::local(2));
    load_relax(&r, 16, 2);
    let cfg = IterConfig::new("relax", 2, 3);
    let out = r
        .run(&Relax, &cfg, "/state", "/static", "/out", &[])
        .unwrap();
    assert!(out.report.metrics.state_handoff_bytes > 0);
    // One2one hand-off never crosses the network.
    assert_eq!(out.report.metrics.broadcast_bytes, 0);
}

fn assert_config_error<T>(res: Result<T, EngineError>, needle: &str) {
    match res {
        Err(EngineError::Config(msg)) => assert!(msg.contains(needle), "{msg}"),
        Err(other) => panic!("expected a Config error, got {other}"),
        Ok(_) => panic!("expected a Config error, got Ok"),
    }
}

#[test]
fn too_many_pairs_for_the_cluster_is_rejected() {
    let r = runner_on(ClusterSpec::local(1)); // capacity: min(2,2) = 2
    load_relax(&r, 8, 3);
    let cfg = IterConfig::new("relax", 3, 2);
    let res = r.run(&Relax, &cfg, "/state", "/static", "/out", &[]);
    assert_config_error(res, "dedicated slots");
}

#[test]
fn mispartitioned_static_dir_is_a_config_error() {
    let r = runner_on(ClusterSpec::local(4));
    load_relax(&r, 8, 3);
    // The job wants 2 pairs but both directories hold 3 parts.
    let cfg = IterConfig::new("relax", 2, 2);
    let res = r.run(&Relax, &cfg, "/state", "/static", "/out", &[]);
    assert_config_error(res, "pre-partitioned into num_tasks = 2");
}

#[test]
fn key_diverged_state_part_is_a_config_error() {
    let r = runner_on(ClusterSpec::local(4));
    load_relax(&r, 8, 2);
    // Same part count and record counts, but pair 0's last state key is
    // one its static partition does not hold.
    let mut clock = TaskClock::default();
    let mut part: Vec<(u32, f64)> =
        imr_mapreduce::io::read_part(r.dfs(), "/state", 0, NodeId(0), &mut clock).unwrap();
    part.last_mut().unwrap().0 += 1000;
    r.dfs()
        .put_atomic(
            &imr_mapreduce::io::part_path("/state", 0),
            imr_records::encode_pairs(&part),
            NodeId(0),
            &mut clock,
        )
        .unwrap();
    let cfg = IterConfig::new("relax", 2, 2);
    let res = r.run(&Relax, &cfg, "/state", "/static", "/out", &[]);
    assert_config_error(res, "keys diverged at pair 0");
}

// ---------------------------------------------------------------------
// one2all: a miniature K-means-like job. Keys 0..k are "centroid ids";
// static records are points; each map assigns its points to the nearest
// centroid and the reduce sums positions and counts, then averages.
// ---------------------------------------------------------------------

struct MiniKmeans;
impl IterativeJob for MiniKmeans {
    type K = u32; // centroid id
    type S = (f64, u64); // centroid position (1-D), points summed into it
    type T = f64; // point position (static, keyed by point id)
    fn map(
        &self,
        _pid: &u32,
        state: StateInput<'_, u32, (f64, u64)>,
        point: &f64,
        out: &mut Emitter<u32, (f64, u64)>,
    ) {
        let centroids = state.all();
        let (best, _) = centroids
            .iter()
            .map(|(cid, (c, _))| (*cid, (c - point).abs()))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
            .expect("at least one centroid");
        out.emit(best, (*point, 1));
    }
    fn fold(&self, _cid: &u32, acc: &mut (f64, u64), (v, n): (f64, u64)) {
        acc.0 += v;
        acc.1 += n;
    }
    fn finish(&self, _cid: &u32, (sum, n): (f64, u64)) -> (f64, u64) {
        (sum / n as f64, 1)
    }
    fn distance(&self, _k: &u32, prev: &(f64, u64), cur: &(f64, u64)) -> f64 {
        (prev.0 - cur.0).abs()
    }
}

fn load_kmeans(r: &IterativeRunner, tasks: usize) {
    let mut clock = TaskClock::default();
    // Two clear 1-D clusters around 0 and 100.
    let mut points: Vec<(u32, f64)> = Vec::new();
    for i in 0..20u32 {
        points.push((i, f64::from(i % 5)));
        points.push((100 + i, 100.0 + f64::from(i % 5)));
    }
    let centroids: Vec<(u32, (f64, u64))> = vec![(0, (10.0, 1)), (1, (60.0, 1))];
    let job = MiniKmeans;
    load_partitioned(
        r.dfs(),
        "/points",
        points,
        tasks,
        |k, n| job.partition(k, n),
        &mut clock,
    )
    .unwrap();
    load_partitioned(r.dfs(), "/centroids", centroids, 1, |_, _| 0, &mut clock).unwrap();
}

#[test]
fn one2all_kmeans_converges_to_cluster_means() {
    let r = runner_on(ClusterSpec::local(4));
    load_kmeans(&r, 4);
    let cfg = IterConfig::new("kmeans", 4, 10)
        .with_one2all()
        .with_distance_threshold(1e-9);
    let out = r
        .run(&MiniKmeans, &cfg, "/centroids", "/points", "/out", &[])
        .unwrap();
    assert!(out.iterations <= 10);
    let mut finals = out.final_state.clone();
    finals.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    assert_eq!(finals.len(), 2);
    assert!((finals[0].1 .0 - 2.0).abs() < 1e-9, "{:?}", finals);
    assert!((finals[1].1 .0 - 102.0).abs() < 1e-9, "{:?}", finals);
    // Broadcast traffic exists under one2all on a multi-node cluster.
    assert!(out.report.metrics.broadcast_bytes > 0);
}

// ---------------------------------------------------------------------
// Two phases: iterated doubling through a two-step pipeline. Phase 0
// regroups scalar records `(group, Some(member))` into per-group vectors
// `(group, None)`; phase 1 scales each element by its group's static
// multiplier and re-emits scalars. One round of both doubles every value.
// ---------------------------------------------------------------------

/// A member `(group, Some(member))` or a group `(group, None)`.
type Member = (u32, Option<u32>);
/// A member's value, or a group's `(member, value)` list.
type Piece = (f64, Vec<(u32, f64)>);

struct Doubling;
impl IterativeJob for Doubling {
    type K = Member;
    type S = Piece;
    type T = f64; // phase 1: the group's multiplier (phase 0 reads none)
    fn map(
        &self,
        key: &Member,
        s: StateInput<'_, Member, Piece>,
        mult: &f64,
        out: &mut Emitter<Member, Piece>,
    ) {
        let (v, members) = s.one();
        match *key {
            (group, Some(member)) => out.emit((group, None), (0.0, vec![(member, *v)])),
            (group, None) => {
                for (member, v) in members {
                    out.emit((group, Some(*member)), (v * mult, Vec::new()));
                }
            }
        }
    }
    fn fold(&self, _k: &Member, acc: &mut Piece, value: Piece) {
        acc.0 += value.0;
        acc.1.extend(value.1);
    }
    fn finish(&self, _k: &Member, mut acc: Piece) -> Piece {
        acc.1.sort_by_key(|&(m, _)| m);
        acc
    }
    fn phases(&self) -> usize {
        2
    }
}

#[test]
fn two_phase_chain_doubles_values_each_iteration() {
    let r = runner_on(ClusterSpec::local(4));
    let mut clock = TaskClock::default();
    let state: Vec<(Member, Piece)> = (0..4)
        .flat_map(|g| (0..3).map(move |m| ((g, Some(m)), (1.0, Vec::new()))))
        .collect();
    // Phase 0's static records are the members', phase 1's the groups'.
    let statics = (state.iter().map(|(k, _)| (*k, 0.0))).chain((0..4).map(|g| ((g, None), 2.0)));
    let statics: Vec<(Member, f64)> = statics.collect();
    let job = Doubling;
    let partition = |k: &Member, n| job.partition(k, n);
    load_partitioned(r.dfs(), "/state", state, 2, partition, &mut clock).unwrap();
    let phase_part = |k: &Member, _| usize::from(k.1.is_none()) * 2 + partition(k, 2);
    load_partitioned(r.dfs(), "/mult", statics, 4, phase_part, &mut clock).unwrap();

    let rounds = 3;
    let cfg = IterConfig::new("double", 2, 2 * rounds);
    let out = r.run(&job, &cfg, "/state", "/mult", "/out", &[]).unwrap();
    assert_eq!(out.iterations, 2 * rounds);
    assert_eq!(out.final_state.len(), 12);
    assert!(
        out.final_state.iter().all(|(_, (v, _))| *v == 8.0),
        "{:?}",
        out.final_state
    );
    assert_eq!(out.report.iterations(), 2 * rounds);
}

// ---------------------------------------------------------------------
// Auxiliary phase: terminate MiniKmeans when assignments stop moving.
// ---------------------------------------------------------------------

struct StableCentroids {
    eps: f64,
}
impl AuxPhase<u32, (f64, u64)> for StableCentroids {
    fn partial(&self, prev: &[(u32, (f64, u64))], cur: &[(u32, (f64, u64))]) -> f64 {
        let mut moved = 0.0;
        for (k, (c, _)) in cur {
            if let Ok(i) = prev.binary_search_by(|(pk, _)| pk.cmp(k)) {
                moved += (prev[i].1 .0 - c).abs();
            } else {
                moved += 1.0;
            }
        }
        moved
    }
    fn should_terminate(&self, total: f64) -> bool {
        total < self.eps
    }
}

#[test]
fn auxiliary_phase_detects_convergence() {
    let r = runner_on(ClusterSpec::local(4));
    load_kmeans(&r, 4);
    let cfg = IterConfig::new("kmeans-aux", 4, 15).with_one2all();
    let aux = StableCentroids { eps: 1e-9 };
    let out = run_with_aux(&r, &MiniKmeans, &aux, &cfg, "/centroids", "/points", "/out").unwrap();
    assert!(out.iterations < 15, "aux phase should stop the run early");
    assert!(!out.aux_values.is_empty());
    assert!(out.aux_values.last().unwrap() < &1e-9);
    let mut finals = out.final_state.clone();
    finals.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    assert!((finals[0].1 .0 - 2.0).abs() < 1e-9);
    assert!((finals[1].1 .0 - 102.0).abs() < 1e-9);
}

#[test]
fn aux_phase_is_cheaper_than_a_sequential_check_would_be() {
    // The aux decision happens off the critical path: iteration k+1's
    // maps start from the broadcast hand-off, not from the aux reducer.
    let r = runner_on(ClusterSpec::local(4));
    load_kmeans(&r, 4);
    let cfg = IterConfig::new("kmeans-aux", 4, 6).with_one2all();
    let aux = StableCentroids { eps: -1.0 }; // never terminates via aux
    let with_aux =
        run_with_aux(&r, &MiniKmeans, &aux, &cfg, "/centroids", "/points", "/o1").unwrap();

    let r2 = runner_on(ClusterSpec::local(4));
    load_kmeans(&r2, 4);
    let cfg2 = IterConfig::new("kmeans", 4, 6).with_one2all();
    let plain = r2
        .run(&MiniKmeans, &cfg2, "/centroids", "/points", "/o2", &[])
        .unwrap();

    // Same iteration count, and the aux overhead on total time is tiny
    // (< 1% of the run) because it overlaps the main phase.
    assert_eq!(with_aux.iterations, plain.iterations);
    let a = with_aux.report.finished.as_secs_f64();
    let b = plain.report.finished.as_secs_f64();
    assert!((a - b).abs() / b < 0.01, "aux added {a} vs {b}");
}

/// The simulator refuses a knob it would ignore: `run_faults` has no
/// durable snapshot to resume from, and the auxiliary-phase runner
/// validates its config and neither resumes nor migrates pairs.
#[test]
fn sim_refuses_knobs_it_would_ignore() {
    let r = runner_on(ClusterSpec::local(4));
    load_relax(&r, 16, 4);
    let cfg = IterConfig::new("relax", 4, 3)
        .with_checkpoint_interval(1)
        .with_resume();
    let out = r.run(&Relax, &cfg, "/state", "/static", "/out", &[]);
    assert!(
        matches!(&out, Err(EngineError::Config(msg)) if msg.contains("resume")),
        "resume ran on the simulator: ok = {}",
        out.is_ok()
    );

    let r = runner_on(ClusterSpec::local(4));
    load_kmeans(&r, 4);
    let aux = StableCentroids { eps: 1e-9 };
    let base = || {
        IterConfig::new("kmeans-aux", 4, 3)
            .with_one2all()
            .with_checkpoint_interval(1)
    };
    let lb = LoadBalance {
        deviation: 0.3,
        max_migrations: 1,
    };
    for (cfg, needle) in [
        (base().with_load_balance(lb), "load_balance"),
        (base().with_resume(), "resume"),
    ] {
        let out = run_with_aux(&r, &MiniKmeans, &aux, &cfg, "/centroids", "/points", "/out");
        assert!(
            matches!(&out, Err(EngineError::Config(msg)) if msg.contains(needle)),
            "{needle}: run_with_aux did not refuse it (ok = {})",
            out.is_ok()
        );
    }
}

/// Two runs of MiniKmeans on fresh runners: a plain `run` and a
/// `run_with_aux` whose aux phase never fires, both with `cfg` and
/// both traced.
#[allow(clippy::type_complexity)]
fn plain_and_idle_aux(
    cfg: &IterConfig,
) -> (
    imapreduce::IterOutcome<u32, (f64, u64)>,
    imapreduce::AuxOutcome<u32, (f64, u64)>,
    [Vec<imr_trace::TraceEvent>; 2],
) {
    let traces = [(); 2].map(|_| Arc::new(imr_trace::TraceBuffer::with_capacity(1 << 12)));
    let r = runner_on(ClusterSpec::local(4)).with_trace(Arc::clone(&traces[0]));
    load_kmeans(&r, 4);
    let plain = r
        .run(&MiniKmeans, cfg, "/centroids", "/points", "/o1", &[])
        .unwrap();
    let r = runner_on(ClusterSpec::local(4)).with_trace(Arc::clone(&traces[1]));
    load_kmeans(&r, 4);
    let aux = StableCentroids { eps: -1.0 }; // never terminates via aux
    let with_aux =
        run_with_aux(&r, &MiniKmeans, &aux, cfg, "/centroids", "/points", "/o2").unwrap();
    (plain, with_aux, traces.map(|t| t.snapshot()))
}

/// The auxiliary phase is a step of the one loop, off the critical
/// path: a run whose aux phase never fires is the plain run, instant
/// for instant.
#[test]
fn idle_aux_phase_leaves_the_timeline_untouched() {
    let cfg = IterConfig::new("kmeans", 4, 6).with_one2all();
    let (plain, with_aux, _) = plain_and_idle_aux(&cfg);
    assert_eq!(with_aux.report.iteration_done, plain.report.iteration_done);
    assert_eq!(with_aux.report.finished, plain.report.finished);
    assert_eq!(with_aux.final_state, plain.final_state);
    assert_eq!(
        with_aux.aux_values.len(),
        5,
        "one total per iteration from 2 on"
    );
}

/// An aux run emits what the one loop emits: the plain run's event
/// kinds for every pair and iteration, nothing fewer, nothing extra.
#[test]
fn aux_run_emits_the_plain_runs_trace() {
    let cfg = IterConfig::new("kmeans", 4, 6).with_one2all();
    let (_, _, [plain, with_aux]) = plain_and_idle_aux(&cfg);
    let kinds = imr_trace::canonical_kinds(&with_aux);
    assert!(!kinds.is_empty(), "the aux run emitted no events");
    assert_eq!(kinds, imr_trace::canonical_kinds(&plain));
}

/// An aux run honours `checkpoint_interval` like every other run.
#[test]
fn aux_run_checkpoints() {
    let cfg = IterConfig::new("kmeans", 4, 4)
        .with_one2all()
        .with_checkpoint_interval(1);
    let (plain, with_aux, _) = plain_and_idle_aux(&cfg);
    assert!(with_aux.report.metrics.checkpoint_bytes > 0);
    assert_eq!(
        with_aux.report.metrics.checkpoint_bytes,
        plain.report.metrics.checkpoint_bytes
    );
}

/// The simulator models its own network: a run configured for chaos on
/// the TCP wire is refused, not silently simulated without it.
#[test]
fn sim_refuses_chaos() {
    let chaotic = |cfg: IterConfig| {
        cfg.with_watchdog(WatchdogConfig::default())
            .with_chaos(ChaosConfig::seeded(7).with_drop_rate(0.05))
    };
    let r = runner_on(ClusterSpec::local(4));
    load_relax(&r, 16, 4);
    let cfg = chaotic(IterConfig::new("relax", 4, 3));
    let out = r.run(&Relax, &cfg, "/state", "/static", "/out", &[]);
    assert_config_error(out, "needs a wire");

    let r = runner_on(ClusterSpec::local(4));
    load_kmeans(&r, 4);
    let aux = StableCentroids { eps: 1e-9 };
    let cfg = chaotic(IterConfig::new("kmeans-aux", 4, 3).with_one2all());
    let out = run_with_aux(&r, &MiniKmeans, &aux, &cfg, "/centroids", "/points", "/out");
    assert_config_error(out, "needs a wire");
}

/// Unit-weight shortest paths from key 0 over a fixed sparse graph
/// (`k → k+1`, `k → 3k+1`, mod the key count), ⊕ = min: the smallest
/// delta-accumulative job with segments in flight between pairs. It
/// notes every thread its map or extract runs on.
#[derive(Default)]
struct Hops {
    threads: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    /// A key whose delta application panics.
    panics_at: Option<u32>,
}
impl Hops {
    fn note_thread(&self) {
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
    }
}
impl IterativeJob for Hops {
    type K = u32;
    type S = f64;
    type T = Vec<u32>; // out-neighbours
    fn map(&self, k: &u32, s: StateInput<'_, u32, f64>, t: &Vec<u32>, out: &mut Emitter<u32, f64>) {
        self.note_thread();
        out.emit(*k, *s.one());
        for &v in t {
            out.emit(v, s.one() + 1.0);
        }
    }
    fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
        *acc = acc.min(v);
    }
}
impl imapreduce::Accumulative for Hops {
    fn identity(&self) -> f64 {
        f64::INFINITY
    }
    fn seed(&self, _k: &u32, loaded: &f64) -> (f64, f64) {
        (f64::INFINITY, *loaded)
    }
    fn extract(&self, k: &u32, delta: &f64, t: &Vec<u32>, out: &mut Emitter<u32, f64>) {
        self.note_thread();
        assert_ne!(self.panics_at, Some(*k), "extract at key {k}");
        for &v in t {
            out.emit(v, delta + 1.0);
        }
    }
    fn progress(&self, _k: &u32, value: &f64, delta: &f64) -> f64 {
        (value.min(1e9) - delta.min(1e9)).max(0.0)
    }
}

/// A 64-key `Hops` graph, partitioned for `tasks` pairs.
fn load_hops(r: &IterativeRunner, tasks: usize) {
    let keys = 64u32;
    let state: Vec<(u32, f64)> = (0..keys)
        .map(|k| (k, if k == 0 { 0.0 } else { f64::INFINITY }))
        .collect();
    let statics: Vec<(u32, Vec<u32>)> = (0..keys)
        .map(|k| (k, vec![(k + 1) % keys, (3 * k + 1) % keys]))
        .collect();
    let mut clock = TaskClock::default();
    let partition = |k: &u32, n| Hops::default().partition(k, n);
    load_partitioned(r.dfs(), "/state", state, tasks, partition, &mut clock).unwrap();
    load_partitioned(r.dfs(), "/static", statics, tasks, partition, &mut clock).unwrap();
}

/// The simulator's delta-mode timeline, pinned in virtual nanoseconds:
/// a 2-pair, 2-node `Hops` run with a checkpoint after every check. A
/// change to where a delta round, a check or the final dump charges
/// time moves these numbers.
#[test]
fn delta_sim_timeline_is_pinned() {
    let r = runner_on(ClusterSpec::local(2));
    load_hops(&r, 2);
    let cfg = IterConfig::new("hops", 2, 50)
        .with_accumulative_mode()
        .with_distance_threshold(0.5)
        .with_checkpoint_interval(1);
    let out = r
        .run_accumulative(&Hops::default(), &cfg, "/state", "/static", "/out", &[])
        .unwrap();
    let done: Vec<u64> = out
        .report
        .iteration_done
        .iter()
        .map(|t| t.as_nanos())
        .collect();
    let pinned = [
        4_017_362_696,
        4_018_433_388,
        4_019_575_372,
        4_020_860_540,
        4_022_361_234,
        4_024_132_054,
        4_026_123_854,
        4_028_043_462,
        4_029_472_264,
    ];
    assert_eq!(done, pinned);
    assert_eq!(out.report.finished.as_nanos(), 4_038_114_536);
}

/// The simulator runs a delta job and a map/reduce job alike: one
/// thread per pair, each running the pair loop, none of them the
/// caller's.
#[test]
fn sim_runs_one_thread_per_pair_in_both_modes() {
    for tasks in [1usize, 3] {
        let r = runner_on(ClusterSpec::local(4));
        load_hops(&r, tasks);
        let job = Hops::default();
        let cfg = IterConfig::new("hops", tasks, 50)
            .with_accumulative_mode()
            .with_distance_threshold(0.5);
        r.run_accumulative(&job, &cfg, "/state", "/static", "/out", &[])
            .unwrap();
        let threads = job.threads.into_inner().unwrap();
        assert_eq!(threads.len(), tasks, "one pair thread per task");
        assert!(!threads.contains(&std::thread::current().id()));

        let job = Hops::default();
        let cfg = IterConfig::new("hops", tasks, 5);
        r.run(&job, &cfg, "/state", "/static", "/mr-out", &[])
            .unwrap();
        let threads = job.threads.into_inner().unwrap();
        assert_eq!(threads.len(), tasks, "one pair thread per task");
        assert!(!threads.contains(&std::thread::current().id()));
    }
}

/// A pair whose job code panics ends the simulated delta run with a
/// worker error; its peers, blocked on its segments, unwind instead of
/// waiting for a turn that never comes.
#[test]
fn a_panicking_delta_job_is_a_worker_error_not_a_hang() {
    let r = runner_on(ClusterSpec::local(4));
    load_hops(&r, 3);
    let job = Hops {
        panics_at: Some(4),
        ..Hops::default()
    };
    let cfg = IterConfig::new("hops", 3, 50)
        .with_accumulative_mode()
        .with_distance_threshold(0.5);
    match r.run_accumulative(&job, &cfg, "/state", "/static", "/out", &[]) {
        Err(EngineError::Worker(msg)) => assert!(msg.contains("extract at key 4"), "{msg}"),
        other => panic!(
            "expected a worker error, got {:?}",
            other.map(|o| o.iterations)
        ),
    }
}

/// The simulator's map/reduce timeline, pinned in virtual nanoseconds,
/// the sibling of `delta_sim_timeline_is_pinned`: a 2-pair, 2-node
/// `Hops` run — async one2one with the eager hand-off, a checkpoint
/// every 2 iterations, a delay and a kill — and a 2-pair one2all
/// `MiniKmeans` run of 4 iterations. A change to where a phase, a
/// hand-off, the master's decision, a rollback or the final dump
/// charges time moves these numbers.
#[test]
fn mapreduce_sim_timeline_is_pinned() {
    let nanos = |done: &[imr_simcluster::VInstant]| -> Vec<u64> {
        done.iter().map(|t| t.as_nanos()).collect()
    };
    let r = runner_on(ClusterSpec::local(2));
    load_hops(&r, 2);
    let cfg = IterConfig::new("hops", 2, 8)
        .with_eager_handoff()
        .with_checkpoint_interval(2);
    let faults = [
        imapreduce::FaultEvent::Delay {
            node: NodeId(1),
            at_iteration: 3,
            millis: 700,
        },
        imapreduce::FaultEvent::Kill {
            node: NodeId(0),
            at_iteration: 5,
        },
    ];
    let out = r
        .run_faults(&Hops::default(), &cfg, "/state", "/static", "/out", &faults)
        .unwrap();
    assert_eq!(out.recoveries, 1);
    let pinned_one2one = [
        4_029_008_384,
        4_053_803_797,
        4_767_837_265,
        4_769_652_436,
        5_802_754_307,
        5_829_856_741,
        5_844_803_578,
        5_866_889_550,
    ];
    assert_eq!(nanos(&out.report.iteration_done), pinned_one2one);
    assert_eq!(out.report.finished.as_nanos(), 5_875_394_350);

    let r = runner_on(ClusterSpec::local(2));
    load_kmeans(&r, 2);
    let cfg = IterConfig::new("kmeans", 2, 4).with_one2all();
    let out = r
        .run(&MiniKmeans, &cfg, "/centroids", "/points", "/out", &[])
        .unwrap();
    let pinned_one2all = [4_025_563_181, 4_048_791_403, 4_062_782_969, 4_074_374_454];
    assert_eq!(nanos(&out.report.iteration_done), pinned_one2all);
    assert_eq!(out.report.finished.as_nanos(), 4_083_379_271);
}
