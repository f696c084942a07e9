//! Network-chaos resilience of the TCP backend: under deterministic
//! seeded fault schedules (frame drops, bit flips, duplicates,
//! mid-frame connection resets) every workload must converge to a
//! result bit-identical to its clean run — corruption is CRC-detected,
//! the connection torn down, and the generation replayed from the last
//! checkpoint — and a schedule that outlasts the retry budget must
//! yield a typed error, never a hang or a panic.

use imapreduce::{ChaosConfig, IterConfig, IterOutcome, NetPolicy, WatchdogConfig};
use imr_algorithms::concomp::{self, ConCompIter};
use imr_algorithms::testutil::tcp_runner;
use imr_algorithms::{kmeans, pagerank, sssp};
use imr_graph::{dataset, generate_points};
use imr_jobs::{AlgoSpec, EngineSel, JobPhase, JobService, JobSpec, ServiceConfig};
use imr_mapreduce::EngineError;
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
fn chaotic(cfg: IterConfig, seed: u64) -> IterConfig {
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

/// SSSP in both triggering modes: the chaotic run equals the clean
/// run bit-for-bit and the coordinator counted its injections.
#[test]
fn chaos_sssp_sync_and_async_match_clean() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    for sync in [false, true] {
        let mut cfg = IterConfig::new("sssp-chaos", 2, 6)
            .with_tcp_transport()
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
        .with_tcp_transport()
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
        .with_tcp_transport()
        .with_checkpoint_interval(2)
        .with_net_policy(test_policy());

    let run = |cfg: &IterConfig| {
        let rt = tcp_runner(4, WORKER, &["concomp"]);
        concomp::load_concomp_imr(&rt, &g, 2, "/s", "/t").unwrap();
        rt.run(&ConCompIter, cfg, "/s", "/t", "/o", &[]).unwrap()
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
        .with_tcp_transport()
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
        .with_tcp_transport()
        .with_checkpoint_interval(2)
        .with_net_policy(test_policy());
    let nodes = g.num_nodes().to_string();
    let tcp = || tcp_runner(4, WORKER, &["pagerank", &nodes]);

    let clean = pagerank::run_pagerank_delta(&tcp(), &g, &cfg).unwrap();
    let chaos = pagerank::run_pagerank_delta(&tcp(), &g, &chaotic(cfg, 71)).unwrap();
    assert_same("delta pagerank", &clean, &chaos);
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
        .with_tcp_transport()
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
