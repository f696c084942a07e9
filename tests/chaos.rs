//! Network-chaos resilience of the TCP backend: under deterministic
//! seeded fault schedules (frame drops, bit flips, duplicates,
//! mid-frame connection resets) every workload must converge to a
//! result bit-identical to its clean run — corruption is CRC-detected,
//! the connection torn down, and the generation replayed from the last
//! checkpoint — and a schedule that outlasts the retry budget must
//! yield a typed error, never a hang or a panic.

use imapreduce::{
    ChaosConfig, FaultEvent, GraphDelta, IterConfig, IterEngine, IterOutcome, NetPolicy,
    WatchdogConfig,
};
use imr_algorithms::incremental::{
    converge_and_preserve, inc_dirs, run_incremental_ns, weighted_statics,
};
use imr_algorithms::sssp::SsspInc;
use imr_algorithms::testutil::{imr_runner, native_runner, tcp_runner};
use imr_algorithms::{concomp, kmeans, pagerank, sssp};
use imr_graph::{dataset, generate_points};
use imr_jobs::{AlgoSpec, EngineSel, JobPhase, JobService, JobSpec, ServiceConfig};
use imr_mapreduce::EngineError;
use imr_native::WorkerSpec;
use imr_simcluster::NodeId;
use std::time::Duration;

/// This package's worker binary.
const WORKER: &str = env!("CARGO_BIN_EXE_imr-worker");

/// Snappy deadlines for tests: the retry budget (10) outlasts the
/// chaos teardown budget (3) by a wide margin, so every schedule below
/// runs out of faults long before the supervisor runs out of patience.
fn test_policy() -> NetPolicy {
    NetPolicy {
        teardown_grace: Duration::from_secs(1),
        retry_budget: 10,
        backoff_base: Duration::from_millis(10),
        backoff_max: Duration::from_millis(100),
        ..NetPolicy::default()
    }
}

/// A moderate all-fault-classes schedule: three teardown-class
/// injections (drops, bit flips, duplicates, resets as the seeded
/// PRNG decides), then a clean wire.
fn test_chaos(seed: u64) -> ChaosConfig {
    ChaosConfig::seeded(seed)
        .with_drop_rate(0.05)
        .with_corrupt_rate(0.10)
        .with_duplicate_rate(0.10)
        .with_reset_rate(0.05)
        .with_budget(3)
}

/// The shared shape of every identity test below: checkpoints to
/// replay from, a watchdog to catch stall-shaped faults, the test
/// policy, and the given chaos schedule.
fn chaotic<M>(cfg: IterConfig<M>, seed: u64) -> IterConfig<M> {
    cfg.with_checkpoint_interval(2)
        .with_net_policy(test_policy())
        .with_watchdog(WatchdogConfig {
            poll: Duration::from_millis(5),
            stall_timeout: Duration::from_secs(2),
        })
        .with_chaos(test_chaos(seed))
}

fn assert_same<S: PartialEq + std::fmt::Debug>(
    label: &str,
    clean: &IterOutcome<u32, S>,
    chaos: &IterOutcome<u32, S>,
) {
    assert_eq!(
        clean.final_state, chaos.final_state,
        "{label}: chaotic run diverged from the clean run"
    );
    assert_eq!(clean.iterations, chaos.iterations, "{label}: iterations");
    assert_eq!(clean.distances, chaos.distances, "{label}: distances");
}

/// Chaos needs a wire: the simulator and worker threads refuse a chaos
/// config with the same `Config` error instead of running it clean.
#[test]
fn chaos_without_a_wire_is_the_same_config_error_on_sim_and_threads() {
    let g = dataset("DBLP").unwrap().generate(0.003);
    let cfg = chaotic(IterConfig::new("sssp", 2, 4), 7);
    let refusal = |out: Result<IterOutcome<u32, f64>, EngineError>| match out {
        Err(EngineError::Config(msg)) => msg,
        Err(other) => panic!("expected a Config error, got {other}"),
        Ok(_) => panic!("chaos ran without a wire"),
    };
    let sim = refusal(sssp::run_sssp_imr(&imr_runner(4), &g, 0, &cfg));
    let threads = refusal(sssp::run_sssp_imr(&native_runner(4), &g, 0, &cfg));
    assert!(sim.contains("needs a wire"), "{sim}");
    assert_eq!(sim, threads);
}

/// SSSP in both triggering modes: the chaotic run equals the clean
/// run bit-for-bit and the coordinator counted its injections.
#[test]
fn chaos_sssp_sync_and_async_match_clean() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    for sync in [false, true] {
        let mut cfg = IterConfig::new("sssp-chaos", 2, 6)
            .with_checkpoint_interval(2)
            .with_net_policy(test_policy());
        if sync {
            cfg = cfg.with_sync_maps();
        }
        let clean = sssp::run_sssp_imr(&tcp_runner(4, WORKER, &["sssp"]), &g, 0, &cfg).unwrap();

        let chaos_cfg = chaotic(cfg, 11 + sync as u64);
        let chaos_rt = tcp_runner(4, WORKER, &["sssp"]);
        let chaos = sssp::run_sssp_imr(&chaos_rt, &g, 0, &chaos_cfg).unwrap();
        assert_same(&format!("sssp sync={sync}"), &clean, &chaos);
        let m = chaos_rt.metrics().snapshot();
        assert!(
            m.chaos_injections > 0,
            "sync={sync}: the schedule must actually inject faults"
        );
    }
}

/// PageRank: bit-identity under chaos, and the teardown-class faults
/// leave their fingerprints on the robustness counters.
#[test]
fn chaos_pagerank_matches_clean_and_counts_faults() {
    let g = dataset("Google").unwrap().generate(0.003);
    let cfg = IterConfig::new("pr-chaos", 2, 6)
        .with_checkpoint_interval(2)
        .with_net_policy(test_policy());
    let nodes = g.num_nodes().to_string();
    let tcp = || tcp_runner(4, WORKER, &["pagerank", &nodes]);

    let clean = pagerank::run_pagerank_imr(&tcp(), &g, &cfg).unwrap();
    let chaos_rt = tcp();
    let chaos = pagerank::run_pagerank_imr(&chaos_rt, &g, &chaotic(cfg, 23)).unwrap();
    assert_same("pagerank", &clean, &chaos);
    let m = chaos_rt.metrics().snapshot();
    assert!(m.chaos_injections > 0, "schedule must inject");
    assert!(
        m.reconnect_attempts > 0,
        "an injected teardown must force at least one reconnect"
    );
}

/// Connected components (integer labels — no float slack at all).
#[test]
fn chaos_concomp_matches_clean() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let cfg = IterConfig::new("cc-chaos", 2, 8)
        .with_checkpoint_interval(2)
        .with_net_policy(test_policy());

    let run = |cfg: &IterConfig| {
        let rt = tcp_runner(4, WORKER, &["concomp"]);
        concomp::run_concomp_imr(&rt, &g, cfg).unwrap()
    };
    let clean = run(&cfg);
    let chaos = run(&chaotic(cfg, 37));
    assert_same("concomp", &clean, &chaos);
}

/// K-means (one2all broadcast, inherently synchronous): the
/// coordinator-assembled broadcast survives chaos-induced replay.
#[test]
fn chaos_kmeans_one2all_matches_clean() {
    let points = generate_points(400, 5, 3, 77);
    let cfg = IterConfig::new("km-chaos", 2, 5)
        .with_one2all()
        .with_checkpoint_interval(2)
        .with_net_policy(test_policy());
    let run = |cfg: &IterConfig| {
        let tcp = tcp_runner(4, WORKER, &["kmeans", "0"]);
        kmeans::run_kmeans_imr(&tcp, &points, 3, cfg, false).unwrap()
    };
    let clean = run(&cfg);
    let chaos = run(&chaotic(cfg, 53));
    assert_same("kmeans", &clean, &chaos);
}

/// Barrier-free delta-accumulative PageRank: even without iteration
/// barriers the chaotic run's fixpoint, check count and progress trace
/// equal the clean run's.
#[test]
fn chaos_delta_pagerank_matches_clean() {
    let g = dataset("Google").unwrap().generate(0.003);
    let cfg = IterConfig::new("prd-chaos", 2, 400)
        .with_accumulative_mode()
        .with_distance_threshold(1e-10)
        .with_checkpoint_interval(2)
        .with_net_policy(test_policy());
    let nodes = g.num_nodes().to_string();
    let tcp = || tcp_runner(4, WORKER, &["pagerank", &nodes]);

    let clean = pagerank::run_pagerank_delta(&tcp(), &g, &cfg).unwrap();
    let chaos = pagerank::run_pagerank_delta(&tcp(), &g, &chaotic(cfg, 71)).unwrap();
    assert_same("delta pagerank", &clean, &chaos);
}

/// A warm start under chaos: an incremental SSSP re-convergence over
/// TCP with frames corrupted and dropped on the coordinator links, and
/// a kill at check 1 that replays from the warm parts. A warm part
/// reaches a worker like every other part (`ReadPart` → `PartData`),
/// so the frame CRC alone guards it: the run equals the clean thread
/// run bit for bit.
#[test]
fn chaos_incremental_sssp_warm_start_matches_clean_threads() {
    let g = dataset("DBLP").unwrap().generate(0.004);
    // Cutting every other out-edge of the widest node resets the keys
    // reached through them, so re-convergence takes several checks and
    // the kill at check 1 lands mid-run.
    let source = (0..g.num_nodes() as u32)
        .max_by_key(|&u| g.out_degree(u))
        .unwrap();
    let job = SsspInc { source };
    let base = weighted_statics(&g);
    let mut delta = GraphDelta::new();
    for &v in g.neighbors(source).iter().step_by(2) {
        delta.remove_edge(source, v);
    }
    let cfg = IterConfig::new("inc-chaos", 2, 300)
        .with_accumulative_mode()
        .with_distance_threshold(1e-9)
        .with_checkpoint_interval(2);

    let threads = native_runner(2);
    let (_, fix) = converge_and_preserve(&threads, &job, &base, &cfg, "/i").unwrap();
    let clean = run_incremental_ns(&threads, &job, &cfg, &fix, "/i", &delta).unwrap();

    // The same cold fixpoint, then the warm run in worker processes.
    let tcp = native_runner(2);
    let (_, fix) = converge_and_preserve(&tcp, &job, &base, &cfg, "/i").unwrap();
    let tcp = tcp.with_workers(WorkerSpec::new(WORKER, vec!["sssp".to_owned()]));
    let inc_cfg = chaotic(cfg, 89);
    let kill = [FaultEvent::Kill {
        node: NodeId(1),
        at_iteration: 1,
    }];
    let d = inc_dirs("/i");
    let warm = tcp
        .run_incremental(
            &job,
            &inc_cfg,
            &fix,
            &d.static_,
            &delta,
            &d.inc_state,
            &d.inc_static,
            &d.inc_out,
            &kill,
        )
        .unwrap();
    assert!(warm.outcome.recoveries >= 1, "the kill never fired");
    assert!(
        tcp.metrics().snapshot().chaos_injections > 0,
        "schedule must inject"
    );
    assert_eq!(clean.stats, warm.stats);
    assert_same("incremental sssp", &clean.outcome, &warm.outcome);
}

/// A schedule that outlasts the retry budget (unbounded teardown
/// injections at the maximum allowed rates) must surface as a typed
/// worker error naming the exhausted budget — never a hang or panic.
#[test]
fn chaos_budget_exhaustion_is_a_typed_error() {
    let g = dataset("DBLP").unwrap().generate(0.004);
    let policy = NetPolicy {
        teardown_grace: Duration::from_millis(500),
        retry_budget: 2,
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(20),
        ..NetPolicy::default()
    };
    let endless = ChaosConfig::seeded(97)
        .with_drop_rate(0.25)
        .with_corrupt_rate(0.25)
        .with_budget(u64::MAX / 2);
    let cfg = IterConfig::new("sssp-doom", 2, 6)
        .with_checkpoint_interval(2)
        .with_net_policy(policy)
        .with_watchdog(WatchdogConfig {
            poll: Duration::from_millis(5),
            stall_timeout: Duration::from_millis(500),
        })
        .with_chaos(endless);
    let rt = tcp_runner(4, WORKER, &["sssp"]);
    let err = sssp::run_sssp_imr(&rt, &g, 0, &cfg).unwrap_err();
    match err {
        EngineError::Worker(msg) => {
            assert!(msg.contains("retry budget"), "untyped failure: {msg}")
        }
        other => panic!("expected a worker error naming the retry budget, got {other}"),
    }
    assert_eq!(rt.metrics().snapshot().retries_exhausted, 1);
}

/// The same exhaustion, end to end through the job service: the job
/// burns its attempts and lands in the dead-letter queue with the
/// retry-budget failure as its reason.
#[test]
fn chaos_budget_exhaustion_dead_letters_through_the_job_service() {
    let endless = ChaosConfig::seeded(131)
        .with_drop_rate(0.25)
        .with_corrupt_rate(0.25)
        .with_budget(u64::MAX / 2);
    let svc = JobService::new(
        ServiceConfig::default()
            .with_slots(4)
            .with_worker_bin(env!("CARGO_BIN_EXE_imr-worker"))
            .with_chaos(endless),
    );
    let id = svc
        .submit(
            JobSpec::new("doomed", AlgoSpec::Halve, EngineSel::Tcp, 5)
                .with_scale(8)
                .with_max_iters(4)
                .with_max_retries(0),
        )
        .unwrap();
    svc.run_until_idle().unwrap();
    let status = svc.status();
    assert_eq!(status[0].phase, JobPhase::DeadLettered);
    assert!(
        status[0].reason.contains("retry budget"),
        "reason: {}",
        status[0].reason
    );
    let dlq = svc.dlq().unwrap();
    assert_eq!(dlq.len(), 1);
    assert_eq!(dlq[0].id, id);
    assert!(svc.result(id).unwrap().is_none());
}
