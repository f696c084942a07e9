//! Fault-tolerance integration: scripted node failures on real
//! workloads must recover from checkpoints to bit-identical results —
//! on the simulation engine *and* on the native threaded backend, which
//! injects the same `FailureEvent` scripts into real worker threads.

use imapreduce::{
    Delta, FailureEvent, FaultEvent, IterConfig, IterEngine, IterOutcome, LoadBalance,
    WatchdogConfig,
};
use imr_algorithms::sssp::{self, SsspIter};
use imr_algorithms::testutil::{imr_runner_on, native_runner, tcp_runner};
use imr_graph::dataset;
use imr_mapreduce::EngineError;
use imr_native::{NativeRunner, WorkerSpec};
use imr_simcluster::{ClusterSpec, NodeId};
use std::time::Duration;

fn run_with_failures(failures: &[FailureEvent], ckpt: usize) -> IterOutcome<u32, f64> {
    let g = dataset("DBLP").unwrap().generate(0.003);
    let runner = imr_runner_on(ClusterSpec::local(4));
    sssp::load_sssp_imr(&runner, &g, 0, 4, "/s", "/t").unwrap();
    let cfg = IterConfig::new("sssp", 4, 8).with_checkpoint_interval(ckpt);
    runner
        .run(&SsspIter, &cfg, "/s", "/t", "/o", failures)
        .unwrap()
}

/// The same SSSP scenario on the native threaded backend: a fresh
/// runner per run, real worker threads, scripted failures injected at
/// exact (pair, iteration) points.
fn run_native_with_failures(failures: &[FailureEvent], ckpt: usize) -> IterOutcome<u32, f64> {
    let cfg = IterConfig::new("sssp", 4, 8).with_checkpoint_interval(ckpt);
    let faults: Vec<FaultEvent> = failures.iter().map(|&f| f.into()).collect();
    run_sssp(&native_runner(4), &cfg, &faults)
}

#[test]
fn single_failure_recovers_exactly() {
    let clean = run_with_failures(&[], 2);
    let failed = run_with_failures(
        &[FailureEvent {
            node: NodeId(1),
            at_iteration: 4,
        }],
        2,
    );
    assert_eq!(failed.recoveries, 1);
    assert_eq!(clean.final_state, failed.final_state);
    assert!(failed.report.finished > clean.report.finished);
}

#[test]
fn multiple_failures_recover_exactly() {
    let clean = run_with_failures(&[], 2);
    let failed = run_with_failures(
        &[
            FailureEvent {
                node: NodeId(1),
                at_iteration: 3,
            },
            FailureEvent {
                node: NodeId(3),
                at_iteration: 6,
            },
        ],
        2,
    );
    assert_eq!(failed.recoveries, 2);
    assert_eq!(clean.final_state, failed.final_state);
}

#[test]
fn failure_immediately_after_checkpoint_rolls_back_minimally() {
    let clean = run_with_failures(&[], 4);
    // Checkpoint at iteration 4, failure right after.
    let failed = run_with_failures(
        &[FailureEvent {
            node: NodeId(2),
            at_iteration: 4,
        }],
        4,
    );
    assert_eq!(clean.final_state, failed.final_state);
    assert_eq!(clean.iterations, failed.iterations);
}

#[test]
fn load_balancing_and_failures_compose() {
    let g = dataset("DBLP").unwrap().generate(0.003);
    let mut spec = ClusterSpec::local(4);
    spec.nodes[0].speed = 0.2;
    let runner = imr_runner_on(spec);
    sssp::load_sssp_imr(&runner, &g, 0, 4, "/s", "/t").unwrap();
    let cfg = IterConfig::new("sssp", 4, 10)
        .with_checkpoint_interval(1)
        .with_load_balance(LoadBalance {
            deviation: 0.3,
            max_migrations: 2,
        });
    let failures = [FailureEvent {
        node: NodeId(3),
        at_iteration: 6,
    }];
    let out = runner
        .run(&SsspIter, &cfg, "/s", "/t", "/o", &failures)
        .unwrap();
    assert_eq!(out.recoveries, 1);

    // Results still match the reference despite migration + failure.
    let expect = sssp::reference_sssp_rounds(&g, 0, 10);
    for (k, d) in &out.final_state {
        let e = expect[*k as usize];
        assert!((d - e).abs() < 1e-9 || (d.is_infinite() && e.is_infinite()));
    }
}

#[test]
fn native_single_failure_recovers_exactly() {
    let clean = run_native_with_failures(&[], 2);
    let failed = run_native_with_failures(
        &[FailureEvent {
            node: NodeId(1),
            at_iteration: 4,
        }],
        2,
    );
    assert_eq!(failed.recoveries, 1);
    assert_eq!(clean.final_state, failed.final_state);
    assert_eq!(clean.iterations, failed.iterations);
}

#[test]
fn native_multiple_failures_recover_exactly() {
    let clean = run_native_with_failures(&[], 2);
    let failed = run_native_with_failures(
        &[
            FailureEvent {
                node: NodeId(1),
                at_iteration: 3,
            },
            FailureEvent {
                node: NodeId(3),
                at_iteration: 6,
            },
        ],
        2,
    );
    assert_eq!(failed.recoveries, 2);
    assert_eq!(clean.final_state, failed.final_state);
}

#[test]
fn native_failure_on_checkpoint_iteration_recovers() {
    // The snapshot for iteration 4 is written before the scripted exit
    // fires, so the rollback replays from 4, not 0.
    let clean = run_native_with_failures(&[], 4);
    let failed = run_native_with_failures(
        &[FailureEvent {
            node: NodeId(2),
            at_iteration: 4,
        }],
        4,
    );
    assert_eq!(failed.recoveries, 1);
    assert_eq!(clean.final_state, failed.final_state);
    assert_eq!(clean.iterations, failed.iterations);
}

#[test]
fn both_engines_agree_under_failures() {
    let failures = [
        FailureEvent {
            node: NodeId(0),
            at_iteration: 2,
        },
        FailureEvent {
            node: NodeId(2),
            at_iteration: 5,
        },
    ];
    let sim = run_with_failures(&failures, 2);
    let native = run_native_with_failures(&failures, 2);
    assert_eq!(sim.recoveries, 2);
    assert_eq!(native.recoveries, 2);
    assert_eq!(sim.final_state, native.final_state);
    assert_eq!(sim.iterations, native.iterations);
}

#[test]
fn native_failure_without_checkpointing_is_a_clear_error() {
    // With checkpointing disabled there is no snapshot to roll back to;
    // the native backend must refuse up front instead of hanging.
    let g = dataset("DBLP").unwrap().generate(0.003);
    let runner = native_runner(4);
    sssp::load_sssp_imr(&runner, &g, 0, 4, "/s", "/t").unwrap();
    let cfg = IterConfig::new("sssp", 4, 8).with_checkpoint_interval(0);
    let failures = [FailureEvent {
        node: NodeId(1),
        at_iteration: 4,
    }];
    let err = runner
        .run(&SsspIter, &cfg, "/s", "/t", "/o", &failures)
        .unwrap_err();
    match err {
        EngineError::Config(msg) => assert!(msg.contains("checkpoint_interval")),
        other => panic!("expected a configuration error, got {other}"),
    }
}

/// The self-healing acceptance path: a pair wedges mid-job with *no*
/// scripted kill anywhere, and only the supervisor watchdog can notice
/// the stall, declare the pair failed, and drive checkpoint rollback.
/// The result must still be bit-identical to a clean run.
#[test]
fn native_hang_recovers_via_watchdog_bit_identically() {
    let g = dataset("DBLP").unwrap().generate(0.003);
    let cfg = IterConfig::new("sssp", 4, 8)
        .with_checkpoint_interval(2)
        .with_watchdog(WatchdogConfig {
            poll: Duration::from_millis(5),
            stall_timeout: Duration::from_millis(300),
        });

    let clean_rt = native_runner(4);
    sssp::load_sssp_imr(&clean_rt, &g, 0, 4, "/s", "/t").unwrap();
    let clean = clean_rt
        .run(&SsspIter, &cfg, "/s", "/t", "/o", &[])
        .unwrap();

    let hung_rt = native_runner(4);
    sssp::load_sssp_imr(&hung_rt, &g, 0, 4, "/s", "/t").unwrap();
    let hung = hung_rt
        .run_faults(
            &SsspIter,
            &cfg,
            "/s",
            "/t",
            "/o",
            &[FaultEvent::Hang {
                node: NodeId(2),
                at_iteration: 4,
            }],
        )
        .unwrap();
    assert_eq!(hung.recoveries, 1);
    assert_eq!(hung_rt.metrics().stalls_detected.get(), 1);
    assert_eq!(clean.final_state, hung.final_state);
    assert_eq!(clean.iterations, hung.iterations);
}

/// The simulation engine models the same watchdog: a hang is detected
/// only after `stall_timeout` of virtual-time silence, so it costs more
/// virtual time than an equivalent kill but recovers identically.
#[test]
fn sim_hang_recovery_counts_a_stall_and_costs_the_timeout() {
    let g = dataset("DBLP").unwrap().generate(0.003);
    let cfg = IterConfig::new("sssp", 4, 8)
        .with_checkpoint_interval(2)
        .with_watchdog(WatchdogConfig::default());

    let clean_rt = imr_runner_on(ClusterSpec::local(4));
    sssp::load_sssp_imr(&clean_rt, &g, 0, 4, "/s", "/t").unwrap();
    let clean = clean_rt
        .run(&SsspIter, &cfg, "/s", "/t", "/o", &[])
        .unwrap();

    let hang = [FaultEvent::Hang {
        node: NodeId(1),
        at_iteration: 4,
    }];
    let hung_rt = imr_runner_on(ClusterSpec::local(4));
    sssp::load_sssp_imr(&hung_rt, &g, 0, 4, "/s", "/t").unwrap();
    let hung = hung_rt
        .run_faults(&SsspIter, &cfg, "/s", "/t", "/o", &hang)
        .unwrap();
    assert_eq!(hung.recoveries, 1);
    assert_eq!(hung_rt.metrics().stalls_detected.get(), 1);
    assert_eq!(clean.final_state, hung.final_state);
    assert_eq!(clean.iterations, hung.iterations);
    assert!(hung.report.finished > clean.report.finished);

    // A kill at the same point is detected immediately, so the hang's
    // watchdog timeout is visible as extra virtual recovery time.
    let kill = [FaultEvent::Kill {
        node: NodeId(1),
        at_iteration: 4,
    }];
    let killed_rt = imr_runner_on(ClusterSpec::local(4));
    sssp::load_sssp_imr(&killed_rt, &g, 0, 4, "/s", "/t").unwrap();
    let killed = killed_rt
        .run_faults(&SsspIter, &cfg, "/s", "/t", "/o", &kill)
        .unwrap();
    assert_eq!(killed.final_state, hung.final_state);
    assert!(hung.report.finished > killed.report.finished);
}

/// Delays are degradation, not death: a slow-but-progressing node must
/// ride under the watchdog without triggering a single stall, on both
/// engines, and leave results untouched.
#[test]
fn delays_do_not_trip_the_watchdog_on_either_engine() {
    let g = dataset("DBLP").unwrap().generate(0.003);
    let cfg = IterConfig::new("sssp", 4, 8).with_watchdog(WatchdogConfig {
        poll: Duration::from_millis(5),
        stall_timeout: Duration::from_millis(500),
    });
    let delays = [
        FaultEvent::Delay {
            node: NodeId(0),
            at_iteration: 2,
            millis: 60,
        },
        FaultEvent::Delay {
            node: NodeId(2),
            at_iteration: 5,
            millis: 60,
        },
    ];

    let sim_clean_rt = imr_runner_on(ClusterSpec::local(4));
    sssp::load_sssp_imr(&sim_clean_rt, &g, 0, 4, "/s", "/t").unwrap();
    let sim_clean = sim_clean_rt
        .run(&SsspIter, &cfg, "/s", "/t", "/o", &[])
        .unwrap();
    let sim_rt = imr_runner_on(ClusterSpec::local(4));
    sssp::load_sssp_imr(&sim_rt, &g, 0, 4, "/s", "/t").unwrap();
    let sim = sim_rt
        .run_faults(&SsspIter, &cfg, "/s", "/t", "/o", &delays)
        .unwrap();
    assert_eq!(sim.recoveries, 0);
    assert_eq!(sim_rt.metrics().stalls_detected.get(), 0);
    assert_eq!(sim.final_state, sim_clean.final_state);
    assert!(sim.report.finished > sim_clean.report.finished);

    let nat_rt = native_runner(4);
    sssp::load_sssp_imr(&nat_rt, &g, 0, 4, "/s", "/t").unwrap();
    let nat = nat_rt
        .run_faults(&SsspIter, &cfg, "/s", "/t", "/o", &delays)
        .unwrap();
    assert_eq!(nat.recoveries, 0);
    assert_eq!(nat_rt.metrics().stalls_detected.get(), 0);
    assert_eq!(nat.final_state, sim.final_state);
    assert_eq!(nat.iterations, sim.iterations);
}

/// This package's worker binary.
const WORKER: &str = env!("CARGO_BIN_EXE_imr-worker");

/// Loads the DBLP SSSP fixture for 4 tasks into `runner` and runs it
/// under `cfg` and `faults`.
fn run_sssp(
    runner: &NativeRunner,
    cfg: &IterConfig,
    faults: &[FaultEvent],
) -> IterOutcome<u32, f64> {
    let g = dataset("DBLP").unwrap().generate(0.003);
    sssp::load_sssp_imr(runner, &g, 0, 4, "/s", "/t").unwrap();
    runner
        .run_faults(&SsspIter, cfg, "/s", "/t", "/o", faults)
        .unwrap()
}

/// A scripted kill on the multi-process TCP backend: the killed worker
/// process reports the induced exit and dies; the coordinator tears the
/// generation down, respawns fresh processes, and the replayed job is
/// bit-identical to both the clean TCP run and the channel-transport
/// run under the same script.
#[test]
fn tcp_kill_recovers_bit_identically_to_clean_and_channel() {
    let cfg = IterConfig::new("sssp", 4, 8).with_checkpoint_interval(2);
    let kill = [FaultEvent::Kill {
        node: NodeId(1),
        at_iteration: 4,
    }];
    let clean = run_sssp(&tcp_runner(4, WORKER, &["sssp"]), &cfg, &[]);
    let killed = run_sssp(&tcp_runner(4, WORKER, &["sssp"]), &cfg, &kill);
    let channel = run_native_with_failures(
        &[FailureEvent {
            node: NodeId(1),
            at_iteration: 4,
        }],
        2,
    );
    assert_eq!(killed.recoveries, 1);
    assert_eq!(clean.final_state, killed.final_state);
    assert_eq!(clean.iterations, killed.iterations);
    assert_eq!(clean.distances, killed.distances);
    assert_eq!(channel.final_state, killed.final_state);
    assert_eq!(channel.iterations, killed.iterations);
}

/// A hang in a worker *process* is invisible except through silence:
/// the coordinator's watchdog (fed by wire heartbeats) must detect the
/// stall, poison the generation over TCP, and recover bit-identically.
#[test]
fn tcp_hang_recovers_via_watchdog_bit_identically() {
    // The stall timeout needs headroom over process spawn + connect,
    // which is real wall-clock on the TCP backend.
    let cfg = IterConfig::new("sssp", 4, 8)
        .with_checkpoint_interval(2)
        .with_watchdog(WatchdogConfig {
            poll: Duration::from_millis(5),
            stall_timeout: Duration::from_secs(2),
        });
    let clean = run_sssp(&tcp_runner(4, WORKER, &["sssp"]), &cfg, &[]);
    let hung_rt = tcp_runner(4, WORKER, &["sssp"]);
    let hang = [FaultEvent::Hang {
        node: NodeId(2),
        at_iteration: 4,
    }];
    let hung = run_sssp(&hung_rt, &cfg, &hang);
    assert_eq!(hung.recoveries, 1);
    assert_eq!(hung_rt.metrics().stalls_detected.get(), 1);
    assert_eq!(clean.final_state, hung.final_state);
    assert_eq!(clean.iterations, hung.iterations);
}

/// An *unscripted* worker loss: the process exits abruptly mid-job (no
/// outcome frame — the connection just drops). The coordinator must
/// surface this as a recoverable fault, not a hang, and the replayed
/// result must match the clean run exactly.
#[test]
fn tcp_unscripted_worker_crash_recovers_exactly() {
    let cfg = IterConfig::new("sssp", 4, 8).with_checkpoint_interval(2);
    let clean = run_sssp(&tcp_runner(4, WORKER, &["sssp"]), &cfg, &[]);
    let crashing = WorkerSpec::new(WORKER, vec!["sssp".to_owned()]).with_crash(1, 4);
    let crashed = run_sssp(&native_runner(4).with_workers(crashing), &cfg, &[]);
    assert_eq!(crashed.recoveries, 1);
    assert_eq!(clean.final_state, crashed.final_state);
    assert_eq!(clean.iterations, crashed.iterations);
    assert_eq!(clean.distances, crashed.distances);
}

/// Delta-mode fault fixture: PageRank in barrier-free accumulative
/// mode converges over dozens of termination checks at this threshold,
/// leaving plenty of mid-propagation room for a scripted fault at
/// check 3 with checkpoints every 2 checks.
fn delta_cfg() -> IterConfig<Delta> {
    IterConfig::new("prd", 4, 400)
        .with_accumulative_mode()
        .with_distance_threshold(1e-6)
        .with_checkpoint_interval(2)
        .with_watchdog(WatchdogConfig {
            poll: Duration::from_millis(5),
            stall_timeout: Duration::from_secs(2),
        })
}

/// Runs delta-mode PageRank on a fresh native runner with `faults`,
/// over channels (`tcp == false`) or worker processes (`tcp == true`),
/// returning the outcome, the rollback-span count from the trace, and
/// the flight-recorder artifact the rollback dumped into the DFS (if
/// any).
fn run_delta_faulted(
    g: &imr_graph::Graph,
    faults: &[FaultEvent],
    tcp: bool,
) -> (IterOutcome<u32, f64>, usize, Option<String>) {
    use imr_algorithms::pagerank::{self, PageRankIter};
    use imr_trace::{TraceBuffer, TraceKind};
    use std::sync::Arc;

    let trace = Arc::new(TraceBuffer::with_capacity(1 << 16));
    let nodes = g.num_nodes().to_string();
    let (runner, cfg) = if tcp {
        let runner = tcp_runner(4, WORKER, &["pagerank", &nodes]);
        (runner, delta_cfg())
    } else {
        (native_runner(4), delta_cfg())
    };
    let runner = runner.with_trace(Arc::clone(&trace));
    pagerank::load_pagerank_imr(&runner, g, 4, "/s", "/t").unwrap();
    let job = PageRankIter::new(g.num_nodes() as u64);
    let out = runner
        .run_accumulative(&job, &cfg, "/s", "/t", "/o", faults)
        .unwrap();
    let rollbacks = trace
        .snapshot()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Rollback { .. }))
        .count();
    let mut clock = imr_simcluster::TaskClock::default();
    let flight = runner
        .dfs()
        .read(&imr_trace::flight_path("/o", 0), NodeId(0), &mut clock)
        .ok()
        .map(|b| String::from_utf8_lossy(&b).into_owned());
    (out, rollbacks, flight)
}

/// A scripted kill mid-delta-propagation, on the channel fabric and on
/// TCP worker processes: recovery rolls the per-key (value, delta)
/// stores back to the last checkpointed epoch, the recovered run is
/// bit-identical to the clean one, and the incident leaves exactly one
/// `Rollback` trace span plus a flight-recorder artifact in the DFS.
#[test]
fn delta_kill_recovers_with_one_rollback_on_channel_and_tcp() {
    let g = dataset("Google").unwrap().generate(0.002);
    let kill = [FaultEvent::Kill {
        node: NodeId(1),
        at_iteration: 3,
    }];
    for tcp in [false, true] {
        let label = if tcp { "tcp" } else { "channel" };
        let (clean, clean_rollbacks, _) = run_delta_faulted(&g, &[], tcp);
        let (killed, rollbacks, flight) = run_delta_faulted(&g, &kill, tcp);
        assert!(clean.iterations < 400, "{label}: clean run must converge");
        assert_eq!(clean_rollbacks, 0, "{label}: clean run must not roll back");
        assert_eq!(killed.recoveries, 1, "{label}: one kill, one recovery");
        assert_eq!(rollbacks, 1, "{label}: exactly one Rollback span");
        let flight = flight.unwrap_or_else(|| panic!("{label}: flight artifact missing"));
        assert!(
            flight.contains("Rollback"),
            "{label}: flight artifact must contain the Rollback event"
        );
        assert_eq!(clean.final_state, killed.final_state, "{label}");
        assert_eq!(clean.iterations, killed.iterations, "{label}");
        assert_eq!(clean.distances, killed.distances, "{label}");
    }
}

/// A scripted hang mid-delta-propagation: only the watchdog's stall
/// timeout can notice it (the pair goes silent between heartbeats), and
/// recovery is identical to the kill case — one `Rollback` span, one
/// flight artifact, bit-identical converged result — on both the
/// channel fabric and TCP worker processes.
#[test]
fn delta_hang_recovers_with_one_rollback_on_channel_and_tcp() {
    let g = dataset("Google").unwrap().generate(0.002);
    let hang = [FaultEvent::Hang {
        node: NodeId(2),
        at_iteration: 3,
    }];
    for tcp in [false, true] {
        let label = if tcp { "tcp" } else { "channel" };
        let (clean, _, _) = run_delta_faulted(&g, &[], tcp);
        let (hung, rollbacks, flight) = run_delta_faulted(&g, &hang, tcp);
        assert_eq!(hung.recoveries, 1, "{label}: one hang, one recovery");
        assert_eq!(rollbacks, 1, "{label}: exactly one Rollback span");
        assert!(
            flight
                .unwrap_or_else(|| panic!("{label}: flight artifact missing"))
                .contains("Rollback"),
            "{label}: flight artifact must contain the Rollback event"
        );
        assert_eq!(clean.final_state, hung.final_state, "{label}");
        assert_eq!(clean.iterations, hung.iterations, "{label}");
        assert_eq!(clean.distances, hung.distances, "{label}");
    }
}

#[test]
fn dfs_survives_node_loss_with_replication() {
    // The static data is replicated on the DFS, so losing a node must
    // not lose any partition (replication 3 over 4 nodes).
    let g = dataset("DBLP").unwrap().generate(0.002);
    let runner = imr_runner_on(ClusterSpec::local(4));
    sssp::load_sssp_imr(&runner, &g, 0, 4, "/s", "/t").unwrap();
    runner
        .dfs()
        .fail_node(NodeId(0), &mut imr_simcluster::TaskClock::default());
    for p in 0..4 {
        let mut clock = imr_simcluster::TaskClock::default();
        let part: Vec<(u32, sssp::Adj)> =
            imr_mapreduce::io::read_part(runner.dfs(), "/t", p, NodeId(1), &mut clock).unwrap();
        assert!(!part.is_empty() || g.num_nodes() < 4);
    }
}

/// The distance history next to a snapshot is the one the generation
/// recorded from the pairs' completion reports, whichever fabric
/// delivered them: the same scripted kill at a checkpoint iteration
/// leaves byte-identical snapshot parts and history sidecars behind on
/// worker threads and on worker processes.
#[test]
fn kill_at_a_checkpoint_leaves_identical_snapshot_files_on_channel_and_tcp() {
    // Threshold 0 never converges, so every iteration measures a real
    // distance and all 8 run.
    let cfg = IterConfig::new("sssp", 4, 8)
        .with_checkpoint_interval(2)
        .with_distance_threshold(0.0);
    let kill = [FaultEvent::Kill {
        node: NodeId(1),
        at_iteration: 4,
    }];
    let channel_rt = native_runner(4);
    let channel = run_sssp(&channel_rt, &cfg, &kill);
    let tcp_rt = tcp_runner(4, WORKER, &["sssp"]);
    let tcp = run_sssp(&tcp_rt, &cfg, &kill);
    assert_eq!((channel.recoveries, tcp.recoveries), (1, 1));
    assert_eq!(channel.distances, tcp.distances);

    let snapshot_files = |rt: &NativeRunner| {
        let mut clock = imr_simcluster::TaskClock::default();
        rt.dfs()
            .list("/o/_ckpt")
            .into_iter()
            .map(|path| {
                let bytes = rt.dfs().read(&path, NodeId(0), &mut clock).unwrap();
                (path, bytes)
            })
            .collect::<Vec<_>>()
    };
    let on_channel = snapshot_files(&channel_rt);
    // The newest epoch survives: a part and a sidecar per pair, written
    // by the generation that resumed from the kill's checkpoint — so
    // each sidecar is a committed prefix plus that generation's record.
    assert_eq!(on_channel.len(), 8);
    assert!(on_channel
        .iter()
        .all(|(path, bytes)| path.starts_with("/o/_ckpt/iter-0006/") && !bytes.is_empty()));
    assert_eq!(on_channel, snapshot_files(&tcp_rt));
}
