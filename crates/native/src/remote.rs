//! Multi-process execution over TCP: each map/reduce pair in its own
//! OS process, wired to an in-supervisor coordinator.
//!
//! The paper's workers are separate JVM processes holding persistent
//! socket connections (§3.2); this module is the equivalent deployment
//! shape for the native backend. A [`NativeRunner`] with a [`WorkerSpec`]
//! attached (`NativeRunner::with_workers`) and a TCP config plays the
//! master: it binds a localhost listener, spawns one worker process per
//! pair from the spec, and serves as the hub of a star topology
//! — every worker holds exactly one persistent connection to the
//! coordinator for its whole generation, and segments, credits, the
//! all-gather collective, heartbeats, checkpoint bodies and DFS reads
//! all travel over that single framed connection (see
//! `imr_net::proto`).
//!
//! Key properties:
//!
//! * **Same loop, different env**: workers run the exact
//!   [`pair_loop`] the thread backend runs, through a [`PairEnv`] that
//!   speaks the wire protocol. TCP preserves per-connection FIFO order
//!   and the coordinator performs the order-sensitive steps (segment
//!   routing per link, task-ordered gather assembly) exactly like the
//!   in-process fabric; everything computed *from* gathered parts —
//!   the broadcast state, the termination vote — is computed by the
//!   pair loop itself, so results are bit-identical across transports.
//! * **The pair loop counts, the environment delivers**: a worker's
//!   loop increments a process-local registry exactly as a thread's
//!   loop increments the run's, and buffers the trace events it emits;
//!   every `Beat` (and one trailing report before the outcome) ships
//!   both, and the coordinator adds the increments to the run's
//!   registry, then replays the events through the run's observer. The
//!   coordinator itself counts only what it alone can see: corrupt
//!   frames, reconnects, rejected hellos and chaos injections.
//! * **Credit-based backpressure**: a worker may only send a segment
//!   while it holds a credit for the destination link; the consumer
//!   returns the credit through the coordinator when it pops the
//!   segment. Credits start at [`HANDOFF_BUFFER`], giving the same
//!   bounded hand-off as the bounded channels. A pair's link to itself
//!   is a queue inside its [`WorkerConn`] under the same credit, so the
//!   hub routes only between *processes*; a segment or credit naming a
//!   pair the job does not have, or its own sender, settles that sender
//!   with a typed error instead of being dropped or looped back.
//! * **A forward copies nothing**: a segment leaves the hub framed from
//!   the very buffer it was read into (`ToWorker::parts` borrows the
//!   payload; one CRC streams over head and payload), and once written
//!   that buffer is the spare the link's next segment is read into
//!   ([`FrameReader::read_into`]), so a steady run neither copies a
//!   segment nor faults in fresh pages for one. Every other frame the
//!   hub writes is framed from its parts too.
//! * **The hub routes, the generation records**: the coordinator owns
//!   what is about connections — segment and credit forwarding, the
//!   gather slots, which connections reached EOF, and putting poison on
//!   the wire. What a pair *reports* (`Beat`, `Ckpt`, `Outcome`, and the
//!   EOF that stands in for a missing outcome) goes straight to the
//!   same [`Generation`] handlers a worker thread calls, so per-pair
//!   history, checkpoint progress and outcomes exist once.
//! * **Reconnect-with-replay recovery**: a generation that dies (a
//!   scripted kill, a watchdog-detected hang, a vanished process, a
//!   migration) is torn down — poison frames, a teardown grace, then
//!   SIGKILL — and the shared supervisor respawns fresh processes that
//!   reconnect and replay from the last checkpoint epoch. The
//!   generation's record of checkpoint progress is authoritative:
//!   a checkpoint frame is delivered in order — after the beat of its
//!   iteration, before the worker's EOF — so a worker that dies right
//!   after checkpointing never loses it, and the history persisted next
//!   to the snapshot is the one already recorded from its beats.
//! * **The DFS stays in the supervisor**: the in-memory DFS cannot be
//!   shared across processes, so workers load partitions — static,
//!   state, checkpoint and warm-start parts alike — via `ReadPart`
//!   RPCs, each answered by one CRC-guarded `PartData` frame, and ship
//!   checkpoint bodies for the coordinator to persist.

use crate::fault::FaultBarrier;
use crate::generation::Generation;
use crate::pair::{
    delta_loop, pair_loop, panic_message, read_part_raw, EnvFail, PairCfg, PairCtx, PairDirs,
    PairEnv, PairMode, PairOutcome, PairPlan,
};
use crate::{NativeRunner, HANDOFF_BUFFER};
use bytes::Bytes;
use imapreduce::supervise::{supervise, GenInput, GenRuns};
use imapreduce::{FaultEvent, IterConfig, IterOutcome, IterativeJob, Mode};
use imr_mapreduce::EngineError;
use imr_net::chaos::{ChaosDirection, ChaosState, ChaosStream, DIR_INBOUND, DIR_OUTBOUND};
use imr_net::frame::{reclaim, FrameReader, FrameWriter, Parts, HEADER_LEN};
use imr_net::proto::{ToCoord, ToWorker, WorkerSetup};
use imr_net::{Closed, FrameAction, NetError, NetPolicy, Transport, WorkerConn};
use imr_records::Codec;
use imr_simcluster::{Metrics, MetricsHandle, NodeId};
use imr_trace::{TraceEvent, TraceKind, COORD};
use parking_lot::Mutex;
use std::io::{BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Coordinator main-loop poll interval. Connect/handshake/teardown
/// deadlines live in [`NetPolicy`] (`cfg.net`).
const TICK: Duration = Duration::from_millis(2);

/// How to launch the worker processes of a TCP run
/// ([`NativeRunner::with_workers`]).
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Path to the worker binary (typically `imr-worker`, or the test
    /// binary itself re-exec'd in worker mode). The binary must call
    /// [`serve_worker`] with a job equal to the coordinator's.
    pub bin: PathBuf,
    /// Extra argv passed to every worker after the transport arguments
    /// (`<addr> <pair> <generation> <job-id>`); the worker uses them to
    /// pick and parameterize the job.
    pub job_args: Vec<String>,
    /// Job identity tag (0 outside the job service): carried in the
    /// worker argv, the hello and the setup frame, so a multi-job
    /// coordinator rejects a stray worker from another job's fleet and
    /// trace streams can be demultiplexed per job.
    pub job: u64,
    /// Test hook: make `(pair, iteration)` exit abruptly — no outcome
    /// frame, connection simply drops — right after that iteration of
    /// the first generation it is armed in, simulating an unscripted
    /// worker crash. Consumed when armed, so the respawned generation
    /// replays cleanly.
    pub crash: Option<(usize, usize)>,
}

impl WorkerSpec {
    /// A spec launching `bin` with the given job arguments.
    pub fn new(bin: impl Into<PathBuf>, job_args: Vec<String>) -> Self {
        WorkerSpec {
            bin: bin.into(),
            job_args,
            job: 0,
            crash: None,
        }
    }

    /// Tags every worker of this spec with a job identity (see
    /// [`WorkerSpec::job`]).
    pub fn with_job(mut self, job: u64) -> Self {
        self.job = job;
        self
    }

    /// Arms the crash test hook (see [`WorkerSpec::crash`]).
    pub fn with_crash(mut self, pair: usize, after_iteration: usize) -> Self {
        self.crash = Some((pair, after_iteration));
        self
    }
}

impl NativeRunner {
    /// Runs the job the worker binary resolves from `spec.job_args`
    /// with every map/reduce pair in its own OS process, connected to
    /// this supervisor over localhost TCP. The caller has made the
    /// shared refusals; the job type only decodes the final output.
    pub(crate) fn run_processes<J: IterativeJob>(
        &self,
        spec: &WorkerSpec,
        cfg: &IterConfig<dyn Mode>,
        pair_cfg: &PairCfg,
        dirs: &PairDirs,
        faults: &[FaultEvent],
        label: String,
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.set_nonblocking(true).map(|()| l))
            .map_err(|e| EngineError::Worker(format!("coordinator bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| EngineError::Worker(format!("coordinator bind failed: {e}")))?
            .to_string();

        // One fault budget for the whole run: chaos injections across
        // every generation draw from it, so a seeded schedule always
        // goes quiet and lets the job finish within its retry budget.
        let chaos_state = cfg
            .chaos
            .filter(|c| c.is_active())
            .map(|c| ChaosState::new(c.budget));

        let mut generation_no: u64 = 0;
        let mut crash_pending = spec.crash;
        let mut run_gen = |gen: GenInput<'_>| -> Result<GenRuns, EngineError> {
            generation_no += 1;
            // Arm the crash hook once; the respawn replays cleanly.
            let mut plans: Vec<PairPlan> = gen.plans.to_vec();
            if let Some((pair, after)) = crash_pending.take() {
                plans[pair].crash_after = Some(after);
            }
            run_generation(
                self,
                cfg,
                spec,
                pair_cfg,
                dirs,
                &listener,
                &addr,
                generation_no,
                &plans,
                chaos_state.as_ref(),
                gen,
            )
        };

        supervise::<J>(
            &self.dfs,
            self.dfs.cluster(),
            &self.metrics,
            cfg,
            &dirs.output_dir,
            faults,
            label,
            true,
            &self.observer,
            self.ctl.as_ref(),
            &mut run_gen,
        )
    }
}

/// What the hub itself keeps for one generation; everything a pair
/// reports is recorded by the [`Generation`].
struct CoordState {
    /// Contributions to the all-gather round in flight, one slot per
    /// pair (a pair cannot contribute to the next round before this one
    /// completes, so one round's worth of slots is sufficient).
    gather: Vec<Option<Bytes>>,
    /// The pair's connection reached EOF — nothing more will arrive.
    settled: Vec<bool>,
    poisoned: bool,
}

/// The coordinator's write half of one worker link: the hardened frame
/// writer, the raw socket (for chaos-injected resets) and this
/// direction's chaos schedule.
struct CoordLink {
    writer: FrameWriter<BufWriter<TcpStream>>,
    sock: TcpStream,
    chaos: Option<ChaosDirection>,
}

impl CoordLink {
    /// Writes one frame from its parts, letting the chaos schedule (if
    /// any, and unless the frame is teardown control traffic) damage it
    /// first. Only a damaged frame is built contiguously.
    fn send(&mut self, parts: &Parts<'_>, control: bool) -> Result<(), NetError> {
        let action = match (&mut self.chaos, control) {
            (Some(dir), false) => dir.frame_action(HEADER_LEN + parts.len()),
            _ => FrameAction::Deliver,
        };
        match action {
            FrameAction::Deliver => {
                self.writer.write_parts(parts)?;
                self.writer.get_mut().flush()?;
            }
            FrameAction::Drop => {
                // Written nowhere; the receiver sees the sequence gap on
                // the next delivered frame and fails Corrupt.
                self.writer.skip();
            }
            FrameAction::Corrupt { bit } => {
                let mut encoded = self.writer.encode_next(&parts.concat())?;
                encoded[bit / 8] ^= 1 << (bit % 8);
                self.writer.get_mut().write_all(&encoded)?;
                self.writer.get_mut().flush()?;
            }
            FrameAction::Duplicate => {
                let encoded = self.writer.encode_next(&parts.concat())?;
                self.writer.get_mut().write_all(&encoded)?;
                self.writer.get_mut().write_all(&encoded)?;
                self.writer.get_mut().flush()?;
            }
            FrameAction::Reset { cut } => {
                let encoded = self.writer.encode_next(&parts.concat())?;
                let cut = cut.min(encoded.len().saturating_sub(1));
                self.writer.get_mut().write_all(&encoded[..cut])?;
                self.writer.get_mut().flush()?;
                // Mid-frame hard reset; also tears down our read half,
                // which surfaces as the reader's EOF.
                let _ = self.sock.shutdown(Shutdown::Both);
            }
        }
        Ok(())
    }
}

struct Coordinator<'a> {
    n: usize,
    state: Mutex<CoordState>,
    writers: Vec<Mutex<CoordLink>>,
    /// Where `Beat`, `Ckpt` and `Outcome` frames are recorded.
    generation: Generation<'a>,
    /// One-participant poison latch shared with the monitor thread: it
    /// plays the role the generation barrier plays in-process.
    latch: FaultBarrier,
    runner: &'a NativeRunner,
    started: Instant,
    /// Current pair→node placement, used to retag worker trace events
    /// with the node hosting the pair.
    assignment: &'a [NodeId],
    /// Nanoseconds between the job's `started` instant and this
    /// generation's worker clocks (captured once all workers connected):
    /// worker-relative trace timestamps are rebased by this offset onto
    /// the coordinator's timeline.
    trace_offset: u64,
}

impl Coordinator<'_> {
    /// Best-effort framed send; a dead peer surfaces as its reader's
    /// EOF, so write errors are ignored here. Subject to chaos when the
    /// link carries a schedule.
    fn send_to(&self, q: usize, msg: &ToWorker) {
        let _ = self.writers[q].lock().send(&msg.parts(), false);
    }

    /// Tears the generation down (idempotent): latch for the monitor,
    /// state flag for the main loop's teardown clock, and `frame` to
    /// every worker, so each aborts at its next blocking operation —
    /// [`ToWorker::Poison`], or [`ToWorker::Drain`] for a
    /// service-requested shutdown, where the workers unwind the same
    /// way and then exit successfully: the teardown is policy, not
    /// failure. The frames are never chaos-damaged: they are the
    /// teardown path itself, and injecting faults into them would stall
    /// the recovery they trigger. Lock order is always state → writer.
    fn tear_down(&self, state: &mut CoordState, frame: &ToWorker) {
        if !state.poisoned {
            state.poisoned = true;
            self.latch.poison();
            let parts = frame.parts();
            for writer in &self.writers {
                let _ = writer.lock().send(&parts, true);
            }
        }
    }

    /// Records pair `q`'s terminal outcome; anything but a finish tears
    /// the generation down.
    fn settle(&self, q: usize, outcome: Result<PairOutcome, EngineError>) {
        if self.generation.settle(q, outcome) {
            self.tear_down(&mut self.state.lock(), &ToWorker::Poison);
        }
    }
}

/// One generation: spawn processes, run the hub, reap, hand the
/// per-pair runs to the shared supervisor.
#[allow(clippy::too_many_arguments)]
fn run_generation(
    runner: &NativeRunner,
    cfg: &IterConfig<dyn Mode>,
    spec: &WorkerSpec,
    pair_cfg: &PairCfg,
    dirs: &PairDirs,
    listener: &TcpListener,
    addr: &str,
    generation: u64,
    plans: &[PairPlan],
    chaos_state: Option<&Arc<ChaosState>>,
    gen: GenInput<'_>,
) -> Result<GenRuns, EngineError> {
    let n = plans.len();
    let epoch = gen.epoch;
    let policy = &cfg.net;

    // ---- Spawn + connect -------------------------------------------
    let mut children: Vec<ChildGuard> = (0..n)
        .map(|q| ChildGuard::spawn(spec, addr, q, generation, policy))
        .collect::<Result<_, _>>()?;
    let accepted = accept_workers(
        listener,
        n,
        generation,
        spec.job,
        &mut children,
        policy,
        runner,
        gen.started,
    )?;
    // Worker clocks start right after their handshakes, i.e. "now".
    let trace_offset = gen.started.elapsed().as_nanos() as u64;
    if generation > 1 {
        runner.metrics.reconnect_attempts.add(1);
        runner.observer.emit(
            TraceEvent::new(TraceKind::Reconnect { generation })
                .at(trace_offset)
                .tagged(COORD, COORD, epoch as u32, gen.generation),
        );
    }

    // Split each accepted connection into its chaos-aware halves: a
    // CoordLink for writing (outbound schedule) and a FrameReader over
    // a ChaosStream for reading (inbound schedule), both keyed by
    // (generation, pair, direction) so schedules are deterministic.
    let chaos = cfg.chaos.filter(|c| c.is_active());
    let mut writers: Vec<Mutex<CoordLink>> = Vec::with_capacity(n);
    let mut readers: Vec<FrameReader<ChaosStream<TcpStream>>> = Vec::with_capacity(n);
    for (q, reader) in accepted.into_iter().enumerate() {
        let clone = |s: &TcpStream| {
            s.try_clone()
                .map_err(|e| EngineError::Worker(format!("socket clone failed: {e}")))
        };
        let sock = clone(reader.get_ref())?;
        let writer = FrameWriter::new(BufWriter::new(clone(&sock)?))
            .map_err(|e| EngineError::Worker(format!("handshake write failed: {e}")))?;
        let out_dir = chaos
            .as_ref()
            .zip(chaos_state)
            .map(|(c, state)| c.direction(state, generation, q as u64, DIR_OUTBOUND));
        writers.push(Mutex::new(CoordLink {
            writer,
            sock,
            chaos: out_dir,
        }));
        let in_dir = chaos
            .as_ref()
            .zip(chaos_state)
            .map(|(c, state)| c.direction(state, generation, q as u64, DIR_INBOUND));
        let (stream, seq) = reader.into_parts();
        let wrapped = match in_dir {
            Some(dir) => ChaosStream::chaotic(stream, dir),
            None => ChaosStream::clean(stream),
        };
        readers.push(FrameReader::from_parts(wrapped, seq));
    }

    let co = Coordinator {
        n,
        state: Mutex::new(CoordState {
            gather: vec![None; n],
            settled: vec![false; n],
            poisoned: false,
        }),
        writers,
        generation: Generation::new(&runner.dfs, &runner.metrics, cfg, &dirs.output_dir, gen),
        latch: FaultBarrier::new(1),
        runner,
        started: gen.started,
        assignment: gen.assignment,
        trace_offset,
    };

    // First frame on every connection: the job/generation parameters.
    for (q, plan) in plans.iter().enumerate() {
        co.send_to(
            q,
            &ToWorker::Setup(Box::new(WorkerSetup {
                job: spec.job,
                epoch,
                observed: runner.observer.has_sink(),
                cfg: pair_cfg.clone(),
                dirs: dirs.clone(),
                plan: plan.clone(),
            })),
        );
    }

    // ---- Hub: readers + monitor + teardown clock -------------------
    let ((), intervention) = co.generation.watched(&co.latch, |scope| {
        for (q, reader) in readers.into_iter().enumerate() {
            let co = &co;
            scope.spawn(move || reader_loop(co, q, reader));
        }

        let mut poisoned_at: Option<Instant> = None;
        let mut killed = false;
        loop {
            {
                let mut st = co.state.lock();
                if st.settled.iter().all(|&s| s) {
                    break;
                }
                // A service-level abort drains the fleet: workers
                // unwind and exit cleanly, the supervisor surfaces the
                // aborted run as a ctl error.
                if runner.ctl.as_ref().is_some_and(|c| c.is_aborted()) {
                    co.tear_down(&mut st, &ToWorker::Drain);
                }
                // Monitor interventions poison only the latch; the main
                // loop propagates them onto the wire.
                if co.latch.is_poisoned() && !st.poisoned {
                    co.tear_down(&mut st, &ToWorker::Poison);
                }
                if st.poisoned && poisoned_at.is_none() {
                    poisoned_at = Some(Instant::now());
                }
            }
            if let Some(at) = poisoned_at {
                if !killed && at.elapsed() > policy.teardown_grace {
                    // Workers that ignored the poison frame (wedged in
                    // job code, killed transport) get the hard way.
                    killed = true;
                    for child in children.iter_mut() {
                        child.kill_now();
                    }
                }
            }
            thread::sleep(TICK);
        }
    });

    for child in children.iter_mut() {
        child.reap(policy.teardown_grace);
    }

    // Fold this generation's injected faults into the run's metrics
    // (drain: the shared state survives across generations).
    if let Some(state) = chaos_state {
        runner
            .metrics
            .chaos_injections
            .add(state.drain_injections());
    }

    Ok((co.generation.into_runs()?, intervention))
}

/// Per-connection coordinator reader: demultiplexes one worker's
/// frames until EOF. EOF with no recorded outcome means the process
/// vanished — synthesized as a recoverable abort. A failed integrity
/// check ([`NetError::Corrupt`]) is counted and traced, then tears the
/// connection down the same way — never decoded.
///
/// A segment is forwarded from the frame it arrived in, and once that
/// frame is written on, its buffer is the spare this link's next
/// segment is read into; the pair's outcome (or EOF) drops it.
fn reader_loop(co: &Coordinator<'_>, q: usize, mut reader: FrameReader<ChaosStream<TcpStream>>) {
    let mut spare = None;
    loop {
        let msg = match reader.read_into(&mut spare) {
            Ok(mut frame) => match ToCoord::decode(&mut frame) {
                Ok(msg) => msg,
                Err(_) => break,
            },
            Err(NetError::Corrupt { seq }) => {
                co.runner.metrics.corrupt_frames.add(1);
                co.runner.observer.emit(
                    TraceEvent::new(TraceKind::Corrupt { seq })
                        .at(co.started.elapsed().as_nanos() as u64)
                        .tagged(COORD, q as u32, 0, 0),
                );
                break;
            }
            Err(_) => break,
        };
        match msg {
            ToCoord::Segment { dest, payload } => {
                // Routed without the state lock: per-link order is the
                // per-connection FIFO order, and flow control is the
                // sender's credit, not a queue here.
                match misaddressed(q, "a segment for", dest, co.n) {
                    None => {
                        co.send_to(
                            dest,
                            &ToWorker::Segment {
                                src: q,
                                payload: payload.clone(),
                            },
                        );
                        // The message went with the statement: the
                        // frame's buffer is ours alone again.
                        spare = reclaim(payload);
                    }
                    Some(e) => co.settle(q, Err(e)),
                }
            }
            ToCoord::Credit { src } => match misaddressed(q, "a credit for", src, co.n) {
                None => co.send_to(src, &ToWorker::Credit { dest: q }),
                Some(e) => co.settle(q, Err(e)),
            },
            ToCoord::Gather { part } => {
                let mut st = co.state.lock();
                st.gather[q] = Some(part);
                if st.gather.iter().all(Option::is_some) {
                    // Task order: slot p holds pair p's part. What the
                    // parts mean (nothing, state, a vote) is the pair
                    // loop's business.
                    let parts: Vec<Bytes> = st.gather.iter_mut().filter_map(Option::take).collect();
                    for p in 0..co.n {
                        co.send_to(
                            p,
                            &ToWorker::GatherAll {
                                parts: parts.clone(),
                            },
                        );
                    }
                }
            }
            // A busy time the balancer cannot order (NaN, ±∞), or a
            // negative one, is a broken worker, not a load sample: it
            // must not reach the monitor's EWMA and `pick_migration`.
            ToCoord::Beat { busy_secs, .. } if !(busy_secs.is_finite() && busy_secs >= 0.0) => {
                let why = format!("pair {q} reported a busy time of {busy_secs} s");
                co.settle(q, Err(EngineError::Worker(why)));
            }
            ToCoord::Beat {
                iteration,
                busy_secs,
                d,
                has_prev,
                counts,
                events,
            } => {
                // The pair loop counted on the worker's registry; this
                // is the delivery into the run's. The trailing report
                // before an outcome (iteration 0) delivers counts and
                // events only.
                co.runner.metrics.add_values(&counts);
                co.generation.beat(q, iteration, busy_secs, d, has_prev);
                // Then the events, replayed through the run's observer
                // exactly as if the pair had emitted here: rebased from
                // the worker's clock onto the coordinator's timeline and
                // retagged with the node of the pair's current placement
                // (the worker does not know where it runs). The samples
                // an IterEnd takes read the registry the counts above
                // just brought up to date. A malformed batch is
                // dropped: losing it is never fatal.
                if let Ok(events) = imr_trace::decode_events(&events) {
                    for mut ev in events {
                        ev.node = co.assignment[q].index() as u32;
                        ev.start_nanos = ev.start_nanos.saturating_add(co.trace_offset);
                        ev.end_nanos = ev.end_nanos.saturating_add(co.trace_offset);
                        co.runner.observer.emit(ev);
                    }
                }
            }
            ToCoord::Ckpt { iteration, payload } => {
                // A failed write is fatal, exactly as it is for an
                // in-process checkpoint.
                if let Err(e) = co.generation.checkpoint(q, iteration, payload) {
                    co.settle(q, Err(e));
                }
            }
            ToCoord::ReadPart { dir, part } => match read_part_raw(&co.runner.dfs, &dir, part) {
                Ok(payload) => co.send_to(q, &ToWorker::PartData { payload }),
                Err(e) => co.send_to(
                    q,
                    &ToWorker::PartErr {
                        message: e.to_string(),
                    },
                ),
            },
            ToCoord::Outcome(outcome) => {
                spare = None;
                co.settle(q, outcome.map_err(EngineError::Worker));
            }
            ToCoord::Hello { .. } => {} // consumed during accept
        }
    }
    // A connection that dropped with no outcome frame means the process
    // vanished. Recoverable — the supervisor replays from the last
    // checkpoint (with a no-progress backstop).
    co.settle(q, Ok(PairOutcome::Aborted));
    co.state.lock().settled[q] = true;
}

/// The typed error for pair `q` addressing a frame to a pair the job
/// does not have, or to itself, if it did. Dropping such a frame would
/// leave the real destination blocked until a watchdog fires (or for
/// ever without one); forwarding a self-addressed one would feed the
/// pair's own queue a stray segment or mint an extra own-link credit —
/// a wrong answer, not a failure. So either ends the run.
fn misaddressed(q: usize, what: &str, index: usize, n: usize) -> Option<EngineError> {
    let why = if index >= n {
        format!("but the job has {n} pairs")
    } else if index == q {
        "but a pair's own link never crosses the wire".to_owned()
    } else {
        return None;
    };
    Some(EngineError::Worker(format!(
        "pair {q} sent {what} pair {index}, {why}"
    )))
}

/// Accepts and validates `n` worker connections for `generation`.
/// Non-matching hellos (stale generation, bad pair, wrong wire
/// version, garbage) are counted (`hellos_rejected`), traced
/// (`RejectedHello`) and dropped, and accepting continues; a worker
/// that exits before connecting fails the generation fast. Each
/// returned reader has consumed the preamble and the hello frame, so
/// its sequence counter carries into the generation's reader loop.
#[allow(clippy::too_many_arguments)]
fn accept_workers(
    listener: &TcpListener,
    n: usize,
    generation: u64,
    job: u64,
    children: &mut [ChildGuard],
    policy: &NetPolicy,
    runner: &NativeRunner,
    started: Instant,
) -> Result<Vec<FrameReader<TcpStream>>, EngineError> {
    let deadline = Instant::now() + policy.connect_timeout;
    let mut conns: Vec<Option<FrameReader<TcpStream>>> = (0..n).map(|_| None).collect();
    let mut connected = 0;
    while connected < n {
        match listener.accept() {
            Ok((stream, _)) => {
                // The listener is non-blocking; the accepted socket must
                // not be (platform-dependent inheritance).
                let prepared = stream
                    .set_nonblocking(false)
                    .and_then(|()| stream.set_nodelay(true))
                    .and_then(|()| stream.set_read_timeout(Some(policy.handshake_timeout)));
                let mut reader = FrameReader::new(stream);
                let hello = prepared
                    .map_err(NetError::from)
                    .and_then(|()| reader.expect_preamble())
                    .and_then(|()| reader.read())
                    .and_then(|mut b| Ok(ToCoord::decode(&mut b)?));
                match hello {
                    Ok(ToCoord::Hello {
                        pair,
                        generation: g,
                        job: j,
                    }) if g == generation && j == job && pair < n && conns[pair].is_none() => {
                        let _ = reader.get_mut().set_read_timeout(None);
                        conns[pair] = Some(reader);
                        connected += 1;
                    }
                    _ => {
                        runner.metrics.hellos_rejected.add(1);
                        runner.observer.emit(
                            TraceEvent::new(TraceKind::RejectedHello)
                                .at(started.elapsed().as_nanos() as u64)
                                .tagged(COORD, COORD, 0, generation as u32),
                        );
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                for (q, child) in children.iter_mut().enumerate() {
                    if conns[q].is_none() {
                        if let Some(status) = child.try_status() {
                            return Err(EngineError::Worker(format!(
                                "worker {q} exited during startup: {status}"
                            )));
                        }
                    }
                }
                if Instant::now() > deadline {
                    return Err(EngineError::Worker(
                        "timed out waiting for worker processes to connect".into(),
                    ));
                }
                thread::sleep(TICK);
            }
            Err(e) => return Err(EngineError::Worker(format!("accept failed: {e}"))),
        }
    }
    conns
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| EngineError::Worker(format!("{n} workers connected, but not one per pair")))
}

/// A spawned worker process, killed on drop so no generation leaks
/// children past the supervisor.
struct ChildGuard {
    child: Option<Child>,
}

impl ChildGuard {
    fn spawn(
        spec: &WorkerSpec,
        addr: &str,
        pair: usize,
        generation: u64,
        policy: &NetPolicy,
    ) -> Result<Self, EngineError> {
        // Exporting the policy onto the child (overriding anything
        // inherited) keeps the whole fleet on the coordinator's
        // deadlines; the worker reads it back with NetPolicy::from_env.
        let child = Command::new(&spec.bin)
            .arg(addr)
            .arg(pair.to_string())
            .arg(generation.to_string())
            .arg(spec.job.to_string())
            .args(&spec.job_args)
            .envs(policy.env_vars())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| {
                EngineError::Worker(format!(
                    "failed to spawn worker {pair} ({}): {e}",
                    spec.bin.display()
                ))
            })?;
        Ok(ChildGuard { child: Some(child) })
    }

    fn try_status(&mut self) -> Option<ExitStatus> {
        self.child
            .as_mut()
            .and_then(|c| c.try_wait().ok().flatten())
    }

    fn kill_now(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
        }
    }

    /// Waits up to `grace` for a clean exit, then kills.
    fn reap(&mut self, grace: Duration) {
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + grace;
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => return,
                    Ok(None) if Instant::now() < deadline => thread::sleep(TICK),
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return;
                    }
                }
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The worker-process environment: everything rides the one persistent
/// coordinator connection.
struct RemoteEnv {
    conn: WorkerConn,
    /// Zero-based trace generation tag (the wire generation is
    /// one-based).
    generation: u32,
    /// Events buffered since the last report; `None` when the
    /// coordinator's observer has no sink, so nothing is buffered,
    /// encoded or sent.
    events: Option<Vec<TraceEvent>>,
    /// The process-local registry the pair loop counts on; every report
    /// ships its increments and clears it.
    metrics: MetricsHandle,
    /// The worker's start instant; trace stamps are nanoseconds since it.
    started: Instant,
}

impl RemoteEnv {
    /// Everything counted since the previous report, in
    /// `MetricsSnapshot::values()` order. Only the loop's thread touches
    /// the registry, so snapshot-then-clear loses nothing.
    fn take_counts(&self) -> Vec<u64> {
        let counts = self.metrics.snapshot().values().to_vec();
        self.metrics.reset_all();
        counts
    }
}

impl Transport for RemoteEnv {
    fn send(&mut self, dest: usize, seg: Bytes) -> Result<(), Closed> {
        // Every segment is local: the worker processes share one host.
        self.metrics.shuffle_local_bytes.add(seg.len() as u64);
        self.conn.send(dest, seg)
    }
    fn recv(&mut self, src: usize) -> Result<Bytes, Closed> {
        self.conn.recv(src)
    }
}

impl PairEnv for RemoteEnv {
    type Cost<'c> = ();
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
    fn cost(&mut self) {}
    fn is_poisoned(&self) -> bool {
        self.conn.is_poisoned()
    }
    fn allgather(&mut self, mine: Bytes) -> Result<Vec<Bytes>, Closed> {
        self.conn.allgather(mine)
    }
    fn read_part(&mut self, dir: &str, part: usize) -> Result<Bytes, EnvFail> {
        self.conn.read_part(dir, part).map_err(|e| match e {
            NetError::Closed => EnvFail::Closed,
            other => EnvFail::Error(other.into()),
        })
    }
    fn write_checkpoint(&mut self, iteration: usize, payload: Bytes) -> Result<(), EnvFail> {
        Ok(self.conn.write_checkpoint(iteration, payload)?)
    }
    fn beat(&mut self, iteration: usize, busy_secs: f64, d: f64, has_prev: bool) {
        // One report per iteration (and one before the outcome frame),
        // so in-order delivery puts every event ahead of the worker's
        // terminal status.
        let counts = self.take_counts();
        let events = match self.events.as_mut().filter(|e| !e.is_empty()) {
            Some(events) => {
                let batch = imr_trace::encode_events(events);
                events.clear();
                Bytes::from(batch)
            }
            None => Bytes::new(),
        };
        self.conn
            .beat(iteration, busy_secs, d, has_prev, counts, events);
    }
    fn hang(&mut self) {
        self.conn.block_until_poisoned();
    }
    fn emit(&mut self, event: TraceEvent) {
        if let Some(events) = &mut self.events {
            events.push(TraceEvent {
                generation: self.generation,
                ..event
            });
        }
    }
}

/// Entry point for a worker process: connect to the coordinator at
/// `addr`, run `job` as `pair` of `generation` (tagged with `job_id`)
/// to a terminal outcome, report it, exit. The worker binary's `main`
/// parses `<addr> <pair> <generation> <job-id> <job...>` from argv,
/// resolves `job` from the job arguments, and calls this.
///
/// Never returns an error after the handshake: post-handshake failures
/// are reported to the coordinator as outcome frames — except a
/// [`ToWorker::Drain`], which unwinds the pair and returns `Ok` so the
/// process exits cleanly (an orderly shutdown is success, not an
/// abort). A scripted crash hook terminates the process abruptly
/// instead (no outcome, no EOF courtesy — exactly the unscripted-loss
/// shape it simulates).
pub fn serve_worker<J: IterativeJob>(
    job: &J,
    addr: &str,
    pair: usize,
    generation: u64,
    job_id: u64,
) -> Result<(), String> {
    serve_inner(job, addr, pair, generation, job_id, None)
}

/// Like [`serve_worker`], for jobs that also implement
/// [`Accumulative`](imapreduce::Accumulative): when the coordinator's
/// setup frame carries the delta mode, the worker runs the barrier-free
/// `delta_loop` instead of `pair_loop`. Worker binaries should route
/// every accumulative-capable job through this entry point — it behaves
/// exactly like [`serve_worker`] when the mode is off.
pub fn serve_worker_accum<J: imapreduce::Accumulative>(
    job: &J,
    addr: &str,
    pair: usize,
    generation: u64,
    job_id: u64,
) -> Result<(), String> {
    serve_inner(job, addr, pair, generation, job_id, Some(delta_loop))
}

/// The worker-thread body a remote worker drives, as a fn pointer so
/// one serving routine covers both iteration modes.
type RemoteLoop<J> = fn(PairCtx<'_, J, RemoteEnv>) -> Result<PairOutcome, EngineError>;

fn serve_inner<J: IterativeJob>(
    job: &J,
    addr: &str,
    pair: usize,
    generation: u64,
    job_id: u64,
    accum: Option<RemoteLoop<J>>,
) -> Result<(), String> {
    let policy = NetPolicy::from_env();
    let (conn, setup) =
        WorkerConn::connect_with_policy(addr, pair, generation, job_id, HANDOFF_BUFFER, &policy)
            .map_err(|e| format!("pair {pair}: connect/handshake failed: {e}"))?;
    let WorkerSetup {
        epoch,
        observed,
        cfg: pair_cfg,
        dirs,
        plan,
        ..
    } = setup;
    // The loop counts here; `RemoteEnv` ships the increments.
    let metrics: MetricsHandle = Arc::new(Metrics::default());
    let mut env = RemoteEnv {
        conn,
        generation: generation.saturating_sub(1) as u32,
        events: observed.then(Vec::new),
        metrics: Arc::clone(&metrics),
        started: Instant::now(),
    };
    let loop_fn: RemoteLoop<J> = match (pair_cfg.mode, accum) {
        (PairMode::Delta { .. }, Some(f)) => f,
        (PairMode::Delta { .. }, None) => {
            // The coordinator asked for the delta loop but this entry
            // point serves a plain iterative job; report the mismatch
            // as an outcome so the supervisor fails fast.
            env.conn.send_outcome(Err(format!(
                "pair {pair}: accumulative mode requested but the worker \
                 serves this job through serve_worker (use serve_worker_accum)"
            )));
            return Ok(());
        }
        _ => pair_loop,
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        loop_fn(PairCtx {
            q: pair,
            job,
            cfg: &pair_cfg,
            dirs: &dirs,
            plan: &plan,
            epoch,
            metrics: &metrics,
            aux: None,
            env: &mut env,
        })
    }));
    let outcome = match result {
        Ok(Ok(PairOutcome::Vanish)) => std::process::exit(0),
        // An orderly drain: the coordinator asked the fleet to shut
        // down. No outcome frame — the abort is policy, and the clean
        // exit status is the whole point of the drain protocol.
        Ok(Ok(PairOutcome::Aborted)) if env.conn.is_drained() => return Ok(()),
        // Only the message of a real failure crosses the wire.
        Ok(outcome) => outcome.map_err(|e| e.to_string()),
        // Same panic surfacing as the thread backend.
        Err(payload) => Err(panic_message(pair, payload)),
    };
    // One more report for what the loop counted and emitted after its
    // last heartbeat (a checkpoint, a termination check): iteration 0
    // marks it counts-only.
    env.beat(0, 0.0, 0.0, false);
    env.conn.send_outcome(outcome);
    // Dropping the connection flushes and shuts the socket down: the
    // coordinator sees the outcome frame, then EOF.
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::pair_cfg;
    use imr_dfs::Dfs;
    use imr_simcluster::ClusterSpec;

    /// Runs one two-pair generation of the hub against scripted peer
    /// sockets; pair 0 sends `rogue` right after the handshake. Returns
    /// how the hub settled pair 0 once both peers have seen the poison
    /// frame the settlement must put on the wire.
    fn settle_after(rogue: ToCoord) -> Result<PairOutcome, EngineError> {
        let n = 2;
        let metrics: MetricsHandle = Arc::new(Metrics::default());
        let dfs = Dfs::new(Arc::new(ClusterSpec::local(n)), Arc::clone(&metrics), 1);
        let runner = NativeRunner::new(dfs, metrics);
        let cfg = IterConfig::new("rogue", n, 4);
        let dirs = PairDirs {
            state_dir: "/s".into(),
            static_dir: "/t".into(),
            output_dir: "/o".into(),
        };
        let plans = vec![
            PairPlan {
                kills: vec![],
                hangs: vec![],
                delays: vec![],
                speed: 1.0,
                crash_after: None,
            };
            n
        ];
        let assignment = [NodeId(0), NodeId(1)];
        let seed_dist = vec![Vec::new(); n];
        let gen = GenInput {
            epoch: 0,
            plans: &plans,
            assignment: &assignment,
            failed: &[],
            down: &[],
            migrations_done: 0,
            generation: 0,
            started: Instant::now(),
            seed_dist: &seed_dist,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Both peers say hello before the hub starts accepting, so it
        // never waits on the processes it spawns: those only have to
        // exist, and `true` exits at once.
        let spec = WorkerSpec::new("true", vec![]);
        let mut peers: Vec<_> = (0..n)
            .map(|pair| {
                let sock = TcpStream::connect(&addr).unwrap();
                // A regression must fail the test, not hang it.
                sock.set_read_timeout(Some(Duration::from_secs(20)))
                    .unwrap();
                let mut writer = FrameWriter::new(sock.try_clone().unwrap()).unwrap();
                let hello = ToCoord::Hello {
                    pair,
                    generation: 1,
                    job: 0,
                };
                writer.write(&hello.to_bytes()).unwrap();
                (FrameReader::new(sock), writer)
            })
            .collect();
        let (runs, intervention) = thread::scope(|s| {
            let hub = s.spawn(|| {
                run_generation(
                    &runner,
                    &cfg,
                    &spec,
                    &pair_cfg(&cfg, n),
                    &dirs,
                    &listener,
                    &addr,
                    1,
                    &plans,
                    None,
                    gen,
                )
            });
            for (reader, _) in &mut peers {
                reader.expect_preamble().unwrap();
                let mut first = reader.read().unwrap();
                assert!(matches!(
                    ToWorker::decode(&mut first).unwrap(),
                    ToWorker::Setup(_)
                ));
            }
            peers[0].1.write(&rogue.to_bytes()).unwrap();
            for (pair, (mut reader, _writer)) in peers.drain(..).enumerate() {
                let mut frame = reader
                    .read()
                    .unwrap_or_else(|e| panic!("peer {pair} saw no poison after {rogue:?}: {e}"));
                assert_eq!(ToWorker::decode(&mut frame).unwrap(), ToWorker::Poison);
            }
            hub.join().unwrap().unwrap()
        });
        assert!(intervention.is_none());
        assert!(matches!(runs[1].outcome, Ok(PairOutcome::Aborted)));
        runs.into_iter().next().unwrap().outcome
    }

    #[test]
    fn a_pair_index_outside_the_job_is_a_typed_failure_not_a_silent_drop() {
        let segment = ToCoord::Segment {
            dest: 2,
            payload: Bytes::from(vec![7u8; 16]),
        };
        for (rogue, message) in [
            (
                segment,
                "pair 0 sent a segment for pair 2, but the job has 2 pairs",
            ),
            (
                ToCoord::Credit { src: 9 },
                "pair 0 sent a credit for pair 9, but the job has 2 pairs",
            ),
        ] {
            match settle_after(rogue.clone()) {
                Err(EngineError::Worker(got)) => assert_eq!(got, message),
                other => panic!("{rogue:?} settled as {other:?}"),
            }
        }
    }

    #[test]
    fn a_beat_whose_busy_time_is_not_a_load_is_a_typed_failure() {
        for busy_secs in [f64::NAN, f64::INFINITY, -1.0] {
            let beat = ToCoord::Beat {
                iteration: 1,
                busy_secs,
                d: 0.0,
                has_prev: false,
                counts: Vec::new(),
                events: Bytes::new(),
            };
            match settle_after(beat) {
                Err(EngineError::Worker(got)) => {
                    assert_eq!(got, format!("pair 0 reported a busy time of {busy_secs} s"))
                }
                other => panic!("busy_secs {busy_secs} settled as {other:?}"),
            }
        }
    }

    #[test]
    fn a_self_addressed_segment_or_credit_is_a_typed_failure_not_a_forward() {
        let segment = ToCoord::Segment {
            dest: 0,
            payload: Bytes::from(vec![7u8; 16]),
        };
        for (rogue, message) in [
            (
                segment,
                "pair 0 sent a segment for pair 0, but a pair's own link never crosses the wire",
            ),
            (
                ToCoord::Credit { src: 0 },
                "pair 0 sent a credit for pair 0, but a pair's own link never crosses the wire",
            ),
        ] {
            match settle_after(rogue.clone()) {
                Err(EngineError::Worker(got)) => assert_eq!(got, message),
                other => panic!("{rogue:?} settled as {other:?}"),
            }
        }
    }

    /// A connection that opens with garbage instead of the wire preamble
    /// is counted once and dropped, and the valid hello queued behind it
    /// is still accepted.
    #[test]
    fn a_garbage_connection_is_rejected_and_the_hello_behind_it_accepted() {
        let metrics: MetricsHandle = Arc::new(Metrics::default());
        let dfs = Dfs::new(Arc::new(ClusterSpec::local(1)), Arc::clone(&metrics), 1);
        let runner = NativeRunner::new(dfs, metrics);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        // Both connect before the hub accepts, so it takes them in order.
        TcpStream::connect(addr)
            .unwrap()
            .write_all(&[0xAB; 32])
            .unwrap();
        let mut writer = FrameWriter::new(TcpStream::connect(addr).unwrap()).unwrap();
        let hello = ToCoord::Hello {
            pair: 0,
            generation: 1,
            job: 0,
        };
        writer.write(&hello.to_bytes()).unwrap();
        let policy = NetPolicy::default();
        let accepted = accept_workers(
            &listener,
            1,
            1,
            0,
            &mut [],
            &policy,
            &runner,
            Instant::now(),
        )
        .unwrap();
        assert_eq!(accepted.len(), 1);
        assert_eq!(runner.metrics.hellos_rejected.get(), 1);
    }
}
