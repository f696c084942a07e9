//! Multi-tenant job-service integration: a queued fleet of jobs over
//! shared task slots, coordinator kill + durable resume, dead-letter
//! handling, priority ordering, and clean worker shutdown on drain or
//! coordinator disconnect.

use imr_jobs::{AlgoSpec, EngineSel, JobPhase, JobService, JobSpec, ResultRecord, ServiceConfig};
use imr_net::proto::{PairCfg, PairDirs, PairMode, PairPlan, ToCoord, ToWorker, WorkerSetup};
use imr_net::{FrameReader, FrameWriter};
use imr_records::Codec;
use std::net::TcpListener;
use std::process::Command;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_imr-worker")
}

/// The headline stress: twenty queued jobs contend for a four-slot
/// fleet across every algorithm and all three engines, and every one
/// of them must run to a journaled result.
#[test]
fn stress_twenty_jobs_over_four_slots() {
    let svc = JobService::new(
        ServiceConfig::default()
            .with_slots(4)
            .with_worker_bin(worker_bin()),
    );
    let mut ids = Vec::new();
    for i in 0..20u64 {
        let algo = match i % 4 {
            0 => AlgoSpec::Halve,
            1 => AlgoSpec::Sssp,
            2 => AlgoSpec::PageRank,
            _ => AlgoSpec::Kmeans,
        };
        // Two of the halve jobs exercise the socket transport with real
        // worker processes; the rest split between sim and threads.
        let engine = match i {
            4 | 12 => EngineSel::Tcp,
            i if i % 2 == 0 => EngineSel::Threads,
            _ => EngineSel::Sim,
        };
        let algo = if engine == EngineSel::Tcp {
            AlgoSpec::Halve
        } else {
            algo
        };
        let spec = JobSpec::new(format!("stress-{i}"), algo, engine, 40 + i)
            .with_scale(32)
            .with_tasks(1 + (i as usize % 2))
            .with_max_iters(4)
            .with_priority((i % 3) as u8);
        ids.push(svc.submit(spec).unwrap());
    }
    svc.run_until_idle().unwrap();

    let status = svc.status();
    assert_eq!(status.len(), 20);
    for row in &status {
        assert_eq!(
            row.phase,
            JobPhase::Completed,
            "job {} ({})",
            row.id,
            row.name
        );
        assert_eq!(row.attempts, 1, "job {} retried unexpectedly", row.id);
    }
    for &id in &ids {
        let rec = svc.result(id).unwrap().expect("journaled result");
        assert!(rec.iterations > 0);
        assert!(!rec.state.is_empty());
    }
    assert!(svc.dlq().unwrap().is_empty());
}

/// Kill the coordinator while at least three jobs hold slots, recover a
/// fresh one from the DFS journal, and require every resumed result to
/// be bit-identical to an uninterrupted control run.
#[test]
fn coordinator_kill_mid_fleet_resumes_bit_identical() {
    let batch: Vec<JobSpec> = (0..6u64)
        .map(|i| {
            let algo = match i % 3 {
                0 => AlgoSpec::Halve,
                1 => AlgoSpec::Sssp,
                _ => AlgoSpec::PageRank,
            };
            JobSpec::new(format!("kill-{i}"), algo, EngineSel::Threads, 300 + i)
                .with_scale(256)
                .with_tasks(2)
                .with_max_iters(10)
                .with_checkpoint_interval(2)
        })
        .collect();

    // Control run: same specs, never interrupted.
    let control = JobService::new(ServiceConfig::default().with_slots(6));
    let control_ids: Vec<_> = batch
        .iter()
        .map(|s| control.submit(s.clone()).unwrap())
        .collect();
    control.run_until_idle().unwrap();

    // Victim run: killed once >= 3 jobs are holding slots.
    let victim = Arc::new(JobService::new(ServiceConfig::default().with_slots(6)));
    let victim_ids: Vec<_> = batch
        .iter()
        .map(|s| victim.submit(s.clone()).unwrap())
        .collect();
    assert_eq!(victim_ids, control_ids);
    let runner = {
        let svc = Arc::clone(&victim);
        thread::spawn(move || svc.run_until_idle())
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let running = victim
            .status()
            .iter()
            .filter(|s| s.phase == JobPhase::Running)
            .count();
        if running >= 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fleet never reached 3 running jobs"
        );
        thread::sleep(Duration::from_millis(1));
    }
    victim.kill();
    runner.join().unwrap().unwrap();
    let unfinished = victim
        .status()
        .iter()
        .filter(|s| s.phase != JobPhase::Completed)
        .count();
    assert!(unfinished >= 1, "kill landed after every job finished");

    // A brand-new coordinator recovers the namespace and finishes the
    // interrupted jobs from their surviving checkpoints.
    let recovered = JobService::recover(
        victim.dfs().clone(),
        Arc::clone(victim.cluster()),
        Arc::clone(victim.metrics()),
        ServiceConfig::default().with_slots(6),
    )
    .unwrap();
    recovered.run_until_idle().unwrap();

    for &id in &control_ids {
        let want: ResultRecord = control.result(id).unwrap().expect("control result");
        let got = recovered.result(id).unwrap().expect("resumed result");
        assert_eq!(got, want, "job {id} resumed result diverged from control");
    }
}

/// A job that keeps failing exhausts `max_retries`, lands in the DLQ
/// with its attempt count and reason, and leaves a flight-recorder
/// artifact; a healthy neighbour is unaffected.
#[test]
fn retry_exhaustion_dead_letters_with_flight_artifact() {
    let svc = JobService::new(ServiceConfig::default());
    let poison = svc
        .submit(
            JobSpec::new("poison", AlgoSpec::PoisonPill, EngineSel::Threads, 9)
                .with_scale(16)
                .with_max_retries(2),
        )
        .unwrap();
    let healthy = svc
        .submit(JobSpec::new("healthy", AlgoSpec::Halve, EngineSel::Threads, 10).with_scale(16))
        .unwrap();
    svc.run_until_idle().unwrap();

    let status = svc.status();
    let p = status.iter().find(|s| s.id == poison).unwrap();
    assert_eq!(p.phase, JobPhase::DeadLettered);
    assert_eq!(p.attempts, 3, "initial attempt + 2 retries");
    let h = status.iter().find(|s| s.id == healthy).unwrap();
    assert_eq!(h.phase, JobPhase::Completed);
    assert!(svc.result(healthy).unwrap().is_some());
    assert!(svc.result(poison).unwrap().is_none());

    let dlq = svc.dlq().unwrap();
    assert_eq!(dlq.len(), 1);
    assert_eq!(dlq[0].id, poison);
    assert_eq!(dlq[0].attempts, 3);
    assert!(
        dlq[0].reason.contains("poison pill"),
        "reason: {}",
        dlq[0].reason
    );
    let flight = svc.dlq_flight(poison).unwrap().expect("flight artifact");
    assert!(
        flight.lines().count() > 0,
        "flight artifact should carry the job's trailing trace"
    );
}

/// With one serialized slot lane, the admission queue drains strictly
/// by priority: the highest-priority job finishes first even though it
/// was submitted last.
#[test]
fn priority_governs_admission_order() {
    let svc = JobService::new(ServiceConfig::default().with_slots(2));
    let mut submitted = Vec::new();
    for (i, prio) in [0u8, 5, 9].iter().enumerate() {
        let spec = JobSpec::new(
            format!("prio-{prio}"),
            AlgoSpec::Halve,
            EngineSel::Threads,
            70 + i as u64,
        )
        .with_scale(16)
        .with_tasks(2)
        .with_priority(*prio);
        submitted.push(svc.submit(spec).unwrap());
    }
    svc.run_until_idle().unwrap();
    // tasks == slots, so jobs run one at a time; completion order is
    // admission order: priority 9, then 5, then 0.
    let order = svc.completion_order();
    assert_eq!(order, vec![submitted[2], submitted[1], submitted[0]]);
}

/// Handshake a real `imr-worker` process, park it with a Setup, then
/// send the drain frame: the worker must exit 0 without reporting an
/// outcome.
#[test]
fn drained_worker_exits_cleanly_without_outcome() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut child = Command::new(worker_bin())
        .args([&addr, "0", "1", "9", "halve"])
        .spawn()
        .unwrap();
    let (sock, _) = listener.accept().unwrap();
    let mut reader = FrameReader::new(sock.try_clone().unwrap());
    let mut writer = FrameWriter::new(sock).unwrap();

    reader.expect_preamble().unwrap();
    let mut hello = reader.read().unwrap();
    match ToCoord::decode(&mut hello).unwrap() {
        ToCoord::Hello {
            pair,
            generation,
            job,
        } => {
            assert_eq!((pair, generation, job), (0, 1, 9));
        }
        other => panic!("expected Hello, got {other:?}"),
    }
    writer
        .write(&ToWorker::Setup(Box::new(dummy_setup())).to_bytes())
        .unwrap();
    writer.write(&ToWorker::Drain.to_bytes()).unwrap();

    // The worker may flush frames (beats, trace) before closing, but a
    // drained worker must never report an outcome.
    while let Ok(mut frame) = reader.read() {
        if let Ok(msg) = ToCoord::decode(&mut frame) {
            assert!(
                !matches!(msg, ToCoord::Outcome(_)),
                "drained worker reported an outcome: {msg:?}"
            );
        }
    }
    let status = wait_with_deadline(&mut child, Duration::from_secs(20));
    assert!(status.success(), "drained worker exited {status:?}");
}

/// A coordinator that vanishes after Setup (socket dropped, no drain
/// frame) must not strand the worker process: it exits cleanly instead
/// of hanging on the dead connection.
#[test]
fn worker_survives_coordinator_disconnect() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut child = Command::new(worker_bin())
        .args([&addr, "0", "1", "9", "halve"])
        .spawn()
        .unwrap();
    let (sock, _) = listener.accept().unwrap();
    let mut reader = FrameReader::new(sock.try_clone().unwrap());
    let mut writer = FrameWriter::new(sock).unwrap();

    reader.expect_preamble().unwrap();
    let mut hello = reader.read().unwrap();
    assert!(matches!(
        ToCoord::decode(&mut hello).unwrap(),
        ToCoord::Hello { .. }
    ));
    writer
        .write(&ToWorker::Setup(Box::new(dummy_setup())).to_bytes())
        .unwrap();
    drop(writer); // Coordinator dies without a word.
    drop(reader);

    let status = wait_with_deadline(&mut child, Duration::from_secs(20));
    assert!(status.success(), "disconnected worker exited {status:?}");
}

fn dummy_setup() -> WorkerSetup {
    WorkerSetup {
        job: 9,
        epoch: 0,
        observed: false,
        cfg: PairCfg {
            n: 1,
            max_iters: 4,
            checkpoint_interval: 0,
            mode: PairMode::Async { threshold: None },
        },
        dirs: PairDirs {
            state_dir: "/drain/in/state".into(),
            static_dir: "/drain/in/static".into(),
            output_dir: "/drain/out".into(),
        },
        plan: PairPlan {
            kills: vec![],
            hangs: vec![],
            delays: vec![],
            speed: 1.0,
            crash_after: None,
        },
    }
}

fn wait_with_deadline(
    child: &mut std::process::Child,
    deadline: Duration,
) -> std::process::ExitStatus {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if start.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("worker did not exit within {deadline:?}");
        }
        thread::sleep(Duration::from_millis(5));
    }
}
