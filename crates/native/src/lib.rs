//! # imr-native — the wall-clock iMapReduce backend
//!
//! Executes the same [`IterativeJob`] API as the virtual-time
//! simulation engine, but in real time: one persistent map/reduce task
//! pair (paper §3.1) per worker, living for the whole job. Workers run
//! either as threads in this process over in-process channels (the
//! default) or as separate OS processes connected to a coordinator over
//! localhost TCP (with the processes attached by
//! [`NativeRunner::with_workers`] — see the [`remote`] module). Both are
//! one [`IterEngine`]: the runner picks the fabric, the call is the
//! same. The paper's mechanisms map onto native primitives:
//!
//! * **Persistent reduce→map connections** (§3.3) — the
//!   `imr_net::Transport` trait: one bounded FIFO link per
//!   (map *p* → reduce *q*) pair, created once and reused every
//!   iteration; the pair's self-loop link is the paper's persistent
//!   local socket. The in-process fabric is a matrix of bounded
//!   crossbeam channels; the TCP fabric is length-prefixed frames over
//!   persistent connections with credit-based flow control. Both bound
//!   in-flight segments to [`HANDOFF_BUFFER`], so a task can run at
//!   most that many segments ahead of a slow consumer before
//!   back-pressure stalls it.
//! * **Asynchronous map execution** (§3.3) — by default a pair starts
//!   its next map as soon as *its own* reduce finished; no global
//!   barrier. `IterConfig::with_sync_maps` inserts a barrier before
//!   every map phase instead (the paper's "iMapReduce (sync.)"
//!   variant).
//! * **one2all broadcast** (§5.1) — reduce outputs meet in the one
//!   collective, a task-ordered all-gather (shared slots under a
//!   barrier in-process, a coordinator gather over TCP); every map
//!   rebuilds the global state list in task order, so the broadcast
//!   state is byte-identical on all pairs. The sync-mode barrier is the
//!   same gather with empty parts.
//! * **Termination** (§3.1.2) — per-pair distances meet in the same
//!   collective; every pair folds the same votes in task order
//!   (`imapreduce::fold_votes`), so all pairs reach the same verdict and
//!   stop at the same iteration without a master round-trip.
//! * **One report path** (§3.4.2) — a pair tells the rest of the job
//!   about itself in exactly one way: a completion report per
//!   iteration, its checkpoints, and how it ended. One fabric-independent
//!   `Generation` (`generation.rs`) receives them — called directly by a
//!   worker thread, on frame arrival by the TCP coordinator — and is
//!   the only place the per-pair history, checkpoint progress and
//!   outcomes the supervisor decides from are kept.
//! * **Checkpointing and rollback** (§3.4.1) — every
//!   `cfg.checkpoint_interval` iterations each pair atomically snapshots
//!   its reduce-side state to the DFS (`<out>/_ckpt/iter-NNNN/part-*`,
//!   with the distance history so far in a `_hist-*` sidecar).
//!   Scripted kill faults make the pairs hosted on the named node exit
//!   at the exact scripted iteration; the generation supervisor detects
//!   the dead generation, rolls every pair back to the last checkpoint
//!   epoch completed by *all* pairs, and respawns the whole group from
//!   that snapshot. Async peers blocked on a dead pair's links or
//!   barriers unwind via transport closure and a poisonable
//!   [`fault::FaultBarrier`], discard their uncommitted iterations, and
//!   replay — the same roll-everyone-back semantics the simulation
//!   engine models. Because replay is deterministic, a run with
//!   injected faults produces the same `final_state`, `iterations` and
//!   `distances` as a fault-free run.
//! * **Watchdog stall detection** — with `IterConfig::with_watchdog`, a
//!   monitor thread polls per-pair heartbeats (atomic iteration
//!   counters and timestamps) and, when *no* active pair has progressed
//!   for `stall_timeout`, declares the least-advanced pair failed,
//!   poisons the generation and reuses the checkpoint/rollback path —
//!   recovery no longer needs a scripted event. `FaultEvent::Hang`
//!   injects a deterministic wedge (the pair goes silent holding its
//!   links open) to exercise exactly this path; `FaultEvent::Delay`
//!   injects a bounded slowdown the watchdog must ride out.
//! * **Migration-based load balancing** (§3.4.2) — pairs are placed on
//!   the cluster spec's nodes (`ClusterSpec::assign_pairs`), and a node
//!   speed below 1.0 is emulated by sleeping each hosted pair
//!   proportionally to its measured busy time. Workers publish a busy
//!   EWMA per iteration; once every pair has checkpointed past the
//!   generation's start epoch, the monitor feeds the EWMAs to the same
//!   `ClusterSpec::pick_migration` policy the simulation engine uses
//!   and, on a hit, re-places the slow pair on the least-loaded faster
//!   node and rolls the generation back — migration is rollback under a
//!   new placement, capped by `LoadBalance::max_migrations`. Rolled-back
//!   replay is deterministic, so a migrated run is bit-identical to the
//!   never-migrated run.
//!
//! Determinism: every data-path step (partition fill order, stable
//! sorts, run merging in task order, carry-forward, task-ordered float
//! accumulation) is the simulation engine's — both call the same
//! iteration kernel, `imapreduce::MapScratch::map_side` /
//! `reduce_side` — so for the same job, inputs and configuration the
//! backends produce identical `final_state`, `iterations` and
//! `distances` — only the `report` timeline differs (wall-clock here,
//! virtual time there). The
//! cross-engine test suite pins this down per algorithm, per transport,
//! with and without injected faults and migrations.
//!
//! `eager_handoff` is refused with a configuration error: on the
//! simulator it shapes the virtual-time cost model only, and its native
//! form (§3.3: reduce *k* feeding map *k + 1* key by key) does not exist
//! yet, so here the knob would silently do nothing. Recovery needs a
//! DFS snapshot to reload (there is no in-memory iteration-0 snapshot),
//! so kill/hang faults or load balancing with `checkpoint_interval == 0`
//! are rejected up front by the shared `IterConfig::validate` with the
//! same configuration error the simulation engine returns. A scripted
//! hang emulates a wedged-but-alive worker: the watchdog can declare it
//! failed and unwind it through the poisoned generation. (A worker
//! busy-looping inside job code would be *detected* the same way but
//! cannot be preempted from safe Rust in-process — the TCP backend's
//! separate processes exist precisely so a wedged worker can be killed.)

#![forbid(unsafe_code)]
// The channel matrix is built by (p, q) index on purpose — the indices
// are the link topology. Worker signatures carry the full generic
// shared-state types, as in the core engine.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]
#![warn(missing_docs)]

pub mod fault;
mod generation;
mod monitor;
pub mod remote;

use bytes::Bytes;
use fault::FaultBarrier;
use generation::Generation;
use imapreduce::pair::{
    self, delta_loop, pair_cfg, pair_loop, panic_message, read_part_raw, run_label, EnvFail,
    PairCfg, PairCtx, PairDirs, PairEnv, PairOutcome,
};
use imapreduce::supervise::{supervise, GenInput, GenRuns};
use imapreduce::{
    check_inputs, Accumulative, Delta, FailureEvent, FaultEvent, IterConfig, IterEngine,
    IterOutcome, IterativeJob, Mode, Observer, RunCtl,
};
use imr_dfs::Dfs;
use imr_mapreduce::io::num_parts;
use imr_mapreduce::EngineError;
use imr_net::{ChannelLink, ChannelMesh, Closed, Transport};
use imr_simcluster::MetricsHandle;
use imr_telemetry::{Gauge, TelemetryHandle};
use imr_trace::{TraceEvent, TraceHandle, TraceKind};
use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread;
use std::time::{Duration, Instant};

/// The worker-thread body `run_threaded` drives: either `pair_loop`
/// (map/reduce iterations) or `delta_loop` (barrier-free accumulative
/// rounds), as a higher-ranked fn pointer so one generation harness
/// serves both modes.
type ThreadLoop<J> = fn(PairCtx<'_, J, ThreadEnv<'_>>) -> Result<PairOutcome, EngineError>;

pub use remote::{serve_worker, serve_worker_accum, WorkerSpec};

/// How many shuffle segments a reduce→map link buffers before the
/// sender blocks (§3.3's bounded hand-off buffer). One segment per link
/// per iteration means a fast pair can run at most this many iterations
/// ahead of the slowest consumer of its output. The TCP transport
/// enforces the same bound with per-link send credits.
pub const HANDOFF_BUFFER: usize = 1;

/// Executes [`IterativeJob`]s in wall-clock time, on OS threads or —
/// with worker processes attached ([`NativeRunner::with_workers`]) — on
/// one OS process per pair over localhost TCP.
///
/// Data enters and leaves through the same [`Dfs`] the simulation
/// engine uses (its virtual clocks are bookkeeping only here), so
/// loaders written for one backend feed the other unchanged.
#[derive(Clone)]
pub struct NativeRunner {
    dfs: Dfs,
    metrics: MetricsHandle,
    observer: Observer,
    ctl: Option<RunCtl>,
    /// How to launch the worker processes a TCP run needs.
    workers: Option<WorkerSpec>,
}

impl NativeRunner {
    /// A runner executing jobs against the given DFS and metrics.
    pub fn new(dfs: Dfs, metrics: MetricsHandle) -> Self {
        NativeRunner {
            dfs,
            observer: Observer::new(std::sync::Arc::clone(&metrics)),
            metrics,
            ctl: None,
            workers: None,
        }
    }

    /// Attaches a trace ring: workers and the supervisor record
    /// structured span events into it, and rollbacks dump a flight
    /// recorder artifact to the DFS (see `imr-trace`).
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.observer.attach_trace(trace);
        self
    }

    /// Attaches a cancellation token: when another thread calls
    /// [`RunCtl::abort`], the in-flight generation is poisoned and the
    /// run returns a worker error instead of completing. The job
    /// service uses this to tear down jobs on coordinator shutdown.
    pub fn with_ctl(mut self, ctl: RunCtl) -> Self {
        self.ctl = Some(ctl);
        self
    }

    /// Attaches a telemetry registry: every phase span the workers emit
    /// lands in its histograms, and every `IterEnd` pushes one sample
    /// per pair per iteration (monotonic nanoseconds since the run
    /// started). The TCP backend's workers ship their events to the
    /// coordinator, which feeds this registry from them.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.observer.attach_telemetry(telemetry);
        self
    }

    /// Attaches the worker processes every run of this runner spawns,
    /// one per pair, connected over localhost TCP (see the [`remote`]
    /// module): a runner with workers attached is the TCP runner.
    pub fn with_workers(mut self, spec: WorkerSpec) -> Self {
        self.workers = Some(spec);
        self
    }

    /// The DFS this runner reads and writes.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// [`IterEngine::run`], kept only for `benchmark/src/adapter.rs`;
    /// deleted once the adapter calls the trait (ROADMAP item 17, step 3).
    pub fn run<J: IterativeJob>(
        &self,
        job: &J,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        failures: &[FailureEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        IterEngine::run(self, job, cfg, state_dir, static_dir, output_dir, failures)
    }

    /// [`IterEngine::run_accumulative`], kept only for
    /// `benchmark/src/adapter.rs`; deleted once the adapter calls the
    /// trait (ROADMAP item 17, step 3).
    pub fn run_accumulative<J: Accumulative>(
        &self,
        job: &J,
        cfg: &IterConfig<Delta>,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        IterEngine::run_accumulative(self, job, cfg, state_dir, static_dir, output_dir, faults)
    }

    /// [`IterEngine::run_faults`] on this runner with `spec`'s workers
    /// attached, kept only for `benchmark/src/adapter.rs`; deleted once
    /// the adapter calls the trait (ROADMAP item 17, step 3).
    #[allow(clippy::too_many_arguments)]
    pub fn run_remote<J: IterativeJob>(
        &self,
        job: &J,
        spec: &WorkerSpec,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        let runner = self.clone().with_workers(spec.clone());
        IterEngine::run_faults(&runner, job, cfg, state_dir, static_dir, output_dir, faults)
    }

    /// The one entry behind every mode and fabric: the shared
    /// refusals, then worker threads over channels or, with workers
    /// attached, worker processes over TCP. `loop_fn` is the loop of
    /// `cfg`'s mode for the thread fabric (a worker process picks it
    /// from its setup frame).
    fn dispatch<J: IterativeJob>(
        &self,
        job: &J,
        cfg: &IterConfig<dyn Mode>,
        [state_dir, static_dir, output_dir]: [&str; 3],
        faults: &[FaultEvent],
        loop_fn: ThreadLoop<J>,
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        validate(cfg, faults)?;
        cfg.check_wire(self.workers.is_some())?;
        check_inputs(&self.dfs, cfg, job.phases(), state_dir, static_dir)?;
        let pair_cfg = pair_cfg(cfg, num_parts(&self.dfs, state_dir));
        let dirs = PairDirs {
            state_dir: state_dir.to_owned(),
            static_dir: static_dir.to_owned(),
            output_dir: output_dir.to_owned(),
        };
        let fabric = if self.workers.is_some() { " [tcp]" } else { "" };
        let label = run_label("iMapReduce native", &pair_cfg.mode, fabric);
        match &self.workers {
            None => self.run_threaded(job, cfg, &pair_cfg, &dirs, faults, loop_fn, label),
            Some(spec) => self.run_processes::<J>(spec, cfg, &pair_cfg, &dirs, faults, label),
        }
    }

    /// The shared thread-backend generation harness: spawns one worker
    /// thread per pair running `loop_fn` over fresh links each
    /// generation, plus the monitor/abort watchers, and hands the runs
    /// to the supervisor for triage, rollback and final stitching.
    #[allow(clippy::too_many_arguments)]
    fn run_threaded<J: IterativeJob>(
        &self,
        job: &J,
        cfg: &IterConfig<dyn Mode>,
        pair_cfg: &PairCfg,
        dirs: &PairDirs,
        faults: &[FaultEvent],
        loop_fn: ThreadLoop<J>,
        label: String,
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        let n = cfg.num_tasks;
        let mut run_gen = |gen: GenInput<'_>| -> Result<GenRuns, EngineError> {
            // Fresh links and rally points: the previous generation's
            // links are disconnected and its barrier poisoned.
            let links = ChannelMesh::links(n, HANDOFF_BUFFER);
            let slots: Vec<Mutex<Option<Bytes>>> = (0..n).map(|_| Mutex::new(None)).collect();
            let barrier = FaultBarrier::new(n);
            let generation = Generation::new(&self.dfs, &self.metrics, cfg, &dirs.output_dir, gen);

            // The monitor shares the generation's scope: it watches
            // the board and kills the generation through the same
            // barrier the workers rally on.
            let ((), intervention) = generation.watched(&barrier, |scope| {
                // Shared by reference with every thread spawned below.
                let (slots, barrier, generation) = (&slots, &barrier, &generation);
                // Abort watcher: the job service's cancellation
                // token kills the generation through the same
                // poisoned barrier a watchdog stall uses.
                if let Some(ctl) = self.ctl.clone() {
                    scope.spawn(move || {
                        while !generation.is_done() {
                            if ctl.is_aborted() {
                                barrier.poison();
                                break;
                            }
                            thread::sleep(Duration::from_millis(2));
                        }
                    });
                }

                let mut handles = Vec::with_capacity(n);
                for (q, link) in links.into_iter().enumerate() {
                    handles.push(scope.spawn(move || {
                        let mut env = ThreadEnv {
                            q,
                            dfs: &self.dfs,
                            link,
                            slots,
                            barrier,
                            generation,
                            node: gen.assignment[q].index() as u32,
                            generation_no: gen.generation,
                            observer: &self.observer,
                            metrics: &self.metrics,
                            started: gen.started,
                        };
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            loop_fn(PairCtx {
                                q,
                                job,
                                cfg: pair_cfg,
                                dirs,
                                plan: &gen.plans[q],
                                epoch: gen.epoch,
                                metrics: &self.metrics,
                                aux: None,
                                env: &mut env,
                            })
                        }));
                        // Disconnect this pair's links first so blocked
                        // peers unwind, exactly as the old inline worker
                        // did by returning (dropping its channels).
                        drop(env);
                        // A panic in job code: surface it as an engine
                        // error instead of hanging peers.
                        let outcome = result.unwrap_or_else(|payload| {
                            Err(EngineError::Worker(panic_message(q, payload)))
                        });
                        if generation.settle(q, outcome) {
                            // Wake any peer rallying at the barrier; the
                            // link drops above already woke the rest.
                            barrier.poison();
                        }
                    }));
                }
                for handle in handles {
                    handle.join().unwrap_or_else(|e| resume_unwind(e));
                }
            });
            Ok((generation.into_runs()?, intervention))
        };

        supervise::<J>(
            &self.dfs,
            self.dfs.cluster(),
            &self.metrics,
            cfg,
            &dirs.output_dir,
            faults,
            label,
            false,
            &self.observer,
            self.ctl.as_ref(),
            &mut run_gen,
        )
    }
}

/// [`IterConfig::validate`], plus what only the native engines refuse.
pub(crate) fn validate(
    cfg: &IterConfig<dyn Mode>,
    faults: &[FaultEvent],
) -> Result<(), EngineError> {
    cfg.validate(faults)?;
    if cfg.mode.iterative().is_some_and(|m| m.eager_handoff) {
        return Err(EngineError::Config(
            "eager_handoff is sim-only: it shapes the simulator's virtual-time \
             hand-off cost, and the native engines have no eager reduce->map \
             fusion yet, so here it would silently do nothing"
                .into(),
        ));
    }
    Ok(())
}

/// The native engine behind the one trait: each method runs its loop
/// through [`NativeRunner::dispatch`], on threads or, with workers
/// attached, worker processes. Faults of every kind recover from DFS
/// checkpoints: scripted kills exit their pairs, delays slow them,
/// hangs wedge them for the watchdog (`IterConfig::with_watchdog`) to
/// detect, §3.4.2 load balancing (`IterConfig::with_load_balance`)
/// migrates pairs off emulated slow nodes, and over TCP a worker
/// process that dies without a scripted cause is a recoverable fault
/// too. Every recovery is rollback-and-respawn, so the result is
/// bit-identical to an undisturbed run.
impl IterEngine for NativeRunner {
    fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    fn run_faults<J: IterativeJob>(
        &self,
        job: &J,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        let dirs = [state_dir, static_dir, output_dir];
        self.dispatch(job, cfg, dirs, faults, |ctx| pair_loop(ctx))
    }

    /// Over TCP a worker binary must route the job through
    /// [`remote::serve_worker_accum`].
    fn run_accumulative<J: Accumulative>(
        &self,
        job: &J,
        cfg: &IterConfig<Delta>,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        let dirs = [state_dir, static_dir, output_dir];
        self.dispatch(job, cfg, dirs, faults, |ctx| delta_loop(ctx))
    }
}

/// The in-process environment: channels for the segments, shared slots
/// under the fault barrier for the all-gather, direct DFS access for
/// loads, and the generation itself for reports and checkpoints. The
/// loop's `metrics` handle is the run's registry itself, so there is
/// nothing to deliver. Its clock is the wall clock, and the kernel's
/// work costs nothing beyond itself.
struct ThreadEnv<'a> {
    q: usize,
    dfs: &'a Dfs,
    link: ChannelLink,
    slots: &'a [Mutex<Option<Bytes>>],
    barrier: &'a FaultBarrier,
    /// Where this pair's reports are recorded.
    generation: &'a Generation<'a>,
    /// Index of the node hosting this pair (trace tag).
    node: u32,
    /// Current generation number (trace tag).
    generation_no: u32,
    /// The run's observability sink.
    observer: &'a Observer,
    /// The run's registry; every segment is local on one host.
    metrics: &'a MetricsHandle,
    /// The run's start instant; trace stamps are nanoseconds since it.
    started: Instant,
}

impl Transport for ThreadEnv<'_> {
    fn send(&mut self, dest: usize, seg: Bytes) -> Result<(), Closed> {
        self.metrics.shuffle_local_bytes.add(seg.len() as u64);
        self.link.send(dest, seg)
    }
    fn recv(&mut self, src: usize) -> Result<Bytes, Closed> {
        self.link.recv(src)
    }
}

impl PairEnv for ThreadEnv<'_> {
    type Cost<'c>
        = ()
    where
        Self: 'c;

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn cost(&mut self) {}

    fn is_poisoned(&self) -> bool {
        self.barrier.is_poisoned()
    }

    fn allgather(&mut self, mine: Bytes) -> Result<Vec<Bytes>, Closed> {
        *self.slots[self.q].lock() = Some(mine);
        self.barrier.wait().map_err(|_| Closed)?;
        // Every pair fills its slot before the rally, so none is empty
        // here; were one empty, the gather fails like a poisoned rally.
        let parts: Vec<Bytes> = self
            .slots
            .iter()
            .map(|slot| slot.lock().clone().ok_or(Closed))
            .collect::<Result<_, _>>()?;
        // Second rally: nobody may overwrite a slot until every pair
        // has read all of them.
        self.barrier.wait().map_err(|_| Closed)?;
        Ok(parts)
    }

    fn read_part(&mut self, dir: &str, part: usize) -> Result<Bytes, EnvFail> {
        Ok(read_part_raw(self.dfs, dir, part)?)
    }

    fn write_checkpoint(&mut self, iteration: usize, payload: Bytes) -> Result<(), EnvFail> {
        Ok(self.generation.checkpoint(self.q, iteration, payload)?)
    }

    fn beat(&mut self, iteration: usize, busy_secs: f64, d: f64, has_prev: bool) {
        self.generation
            .beat(self.q, iteration, busy_secs, d, has_prev);
    }

    fn hang(&mut self) {
        self.barrier.block_until_poisoned();
    }

    fn emit(&mut self, event: TraceEvent) {
        // The sample the observer takes on IterEnd carries how many
        // segments sit unconsumed on this pair's inbound links.
        if let (TraceKind::IterEnd, Some(tel)) = (event.kind, self.observer.telemetry()) {
            tel.set_gauge(Gauge::HandoffDepth, self.link.backlog());
        }
        self.observer.emit(TraceEvent {
            node: self.node,
            generation: self.generation_no,
            ..event
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imapreduce::{
        load_partitioned, Emitter, IterativeRunner, LoadBalance, StateInput, WatchdogConfig,
    };
    use imr_dfs::{snapshot_dir, snapshot_epochs};
    use imr_mapreduce::io::part_path;
    use imr_simcluster::{ClusterSpec, Metrics, NodeId, TaskClock};
    use std::sync::Arc;

    /// Each key's state is halved every iteration (same as the core
    /// crate's doc example).
    struct Halve;
    impl IterativeJob for Halve {
        type K = u32;
        type S = f64;
        type T = ();
        fn map(&self, k: &u32, s: StateInput<'_, u32, f64>, _t: &(), out: &mut Emitter<u32, f64>) {
            out.emit(*k, s.one() / 2.0);
        }
        fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
            *acc += v;
        }
        fn distance(&self, _k: &u32, prev: &f64, cur: &f64) -> f64 {
            (prev - cur).abs()
        }
    }

    /// one2all job: every key proposes `mean(all states) + 1`; the
    /// reducers keep the state space at `num_tasks` keys.
    struct MeanPlus;
    impl IterativeJob for MeanPlus {
        type K = u32;
        type S = f64;
        type T = ();
        fn map(&self, k: &u32, s: StateInput<'_, u32, f64>, _t: &(), out: &mut Emitter<u32, f64>) {
            let all = s.all();
            let mean: f64 = all.iter().map(|&(_, v)| v).sum::<f64>() / all.len() as f64;
            out.emit(*k % 4, mean + 1.0);
        }
        /// Every proposal for a key is the same value, so their running
        /// mean is that value.
        fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
            *acc = (*acc + v) / 2.0;
        }
    }

    fn fixtures(nodes: usize) -> (NativeRunner, IterativeRunner) {
        let spec = Arc::new(ClusterSpec::local(nodes));
        let metrics: MetricsHandle = Arc::new(Metrics::default());
        let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 3, 1 << 20);
        let native = NativeRunner::new(dfs, Arc::clone(&metrics));
        let sim_spec = Arc::new(ClusterSpec::local(nodes));
        let sim_metrics: MetricsHandle = Arc::new(Metrics::default());
        let sim_dfs =
            Dfs::with_block_size(Arc::clone(&sim_spec), Arc::clone(&sim_metrics), 3, 1 << 20);
        let sim = IterativeRunner::new(sim_spec, sim_dfs, sim_metrics);
        (native, sim)
    }

    fn load_halve(dfs: &Dfs, n: usize) {
        let job = Halve;
        let mut clock = TaskClock::default();
        let data: Vec<(u32, f64)> = (0..64).map(|k| (k, 1024.0)).collect();
        let statics: Vec<(u32, ())> = (0..64).map(|k| (k, ())).collect();
        load_partitioned(
            dfs,
            "/state",
            data,
            n,
            |k, m| job.partition(k, m),
            &mut clock,
        )
        .unwrap();
        load_partitioned(
            dfs,
            "/static",
            statics,
            n,
            |k, m| job.partition(k, m),
            &mut clock,
        )
        .unwrap();
    }

    fn load_meanplus(dfs: &Dfs) {
        let job = MeanPlus;
        let mut clock = TaskClock::default();
        let state: Vec<(u32, f64)> = (0..4u32).map(|k| (k, f64::from(k))).collect();
        let statics: Vec<(u32, ())> = (0..32u32).map(|k| (k, ())).collect();
        load_partitioned(dfs, "/state", state, 1, |_, _| 0, &mut clock).unwrap();
        load_partitioned(
            dfs,
            "/static",
            statics,
            2,
            |k, m| job.partition(k, m),
            &mut clock,
        )
        .unwrap();
    }

    #[test]
    fn async_one2one_runs_to_max_iterations() {
        let (native, _) = fixtures(2);
        load_halve(native.dfs(), 3);
        let cfg = IterConfig::new("halve", 3, 3);
        let out = native
            .run(&Halve, &cfg, "/state", "/static", "/out", &[])
            .unwrap();
        assert_eq!(out.iterations, 3);
        assert_eq!(out.final_state.len(), 64);
        assert!(out.final_state.iter().all(|&(_, v)| v == 128.0));
        assert_eq!(out.report.iteration_done.len(), 3);
    }

    #[test]
    fn native_matches_simulation_exactly() {
        for &(tasks, sync) in &[(1usize, false), (4, false), (4, true)] {
            let (native, sim) = fixtures(4);
            load_halve(native.dfs(), tasks);
            load_halve(sim.dfs(), tasks);
            let mut cfg = IterConfig::new("halve", tasks, 5).with_distance_threshold(1e-9);
            if sync {
                cfg = cfg.with_sync_maps();
            }
            let a = native
                .run(&Halve, &cfg, "/state", "/static", "/out", &[])
                .unwrap();
            let b = sim
                .run(&Halve, &cfg, "/state", "/static", "/out", &[])
                .unwrap();
            assert_eq!(a.final_state, b.final_state);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.distances, b.distances);
        }
    }

    #[test]
    fn one2all_broadcast_matches_simulation() {
        let (native, sim) = fixtures(2);
        load_meanplus(native.dfs());
        load_meanplus(sim.dfs());
        let cfg = IterConfig::new("mean", 2, 4).with_one2all();
        let a = native
            .run(&MeanPlus, &cfg, "/state", "/static", "/out", &[])
            .unwrap();
        let b = sim
            .run(&MeanPlus, &cfg, "/state", "/static", "/out", &[])
            .unwrap();
        assert_eq!(a.final_state, b.final_state);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.iterations, 4);
    }

    #[test]
    fn one2one_recovery_matches_clean_run() {
        for &(tasks, sync) in &[(1usize, false), (3, false), (3, true)] {
            let (clean_rt, _) = fixtures(4);
            load_halve(clean_rt.dfs(), tasks);
            let mut cfg = IterConfig::new("halve", tasks, 6).with_checkpoint_interval(2);
            if sync {
                cfg = cfg.with_sync_maps();
            }
            let clean = clean_rt
                .run(&Halve, &cfg, "/state", "/static", "/out", &[])
                .unwrap();

            let (failed_rt, _) = fixtures(4);
            load_halve(failed_rt.dfs(), tasks);
            let failed = failed_rt
                .run(
                    &Halve,
                    &cfg,
                    "/state",
                    "/static",
                    "/out",
                    &[FailureEvent {
                        node: NodeId(0),
                        at_iteration: 3,
                    }],
                )
                .unwrap();
            assert_eq!(failed.recoveries, 1, "tasks={tasks} sync={sync}");
            assert_eq!(failed.final_state, clean.final_state);
            assert_eq!(failed.iterations, clean.iterations);
            assert_eq!(failed.distances, clean.distances);
        }
    }

    #[test]
    fn one2all_recovery_matches_clean_run() {
        let cfg = IterConfig::new("mean", 2, 6)
            .with_one2all()
            .with_checkpoint_interval(2);
        let (clean_rt, _) = fixtures(2);
        load_meanplus(clean_rt.dfs());
        let clean = clean_rt
            .run(&MeanPlus, &cfg, "/state", "/static", "/out", &[])
            .unwrap();

        let (failed_rt, _) = fixtures(2);
        load_meanplus(failed_rt.dfs());
        let failed = failed_rt
            .run(
                &MeanPlus,
                &cfg,
                "/state",
                "/static",
                "/out",
                &[FailureEvent {
                    node: NodeId(1),
                    at_iteration: 3,
                }],
            )
            .unwrap();
        assert_eq!(failed.recoveries, 1);
        assert_eq!(failed.final_state, clean.final_state);
        assert_eq!(failed.iterations, clean.iterations);
    }

    #[test]
    fn failures_without_checkpointing_error_instead_of_hanging() {
        let (native, _) = fixtures(2);
        load_halve(native.dfs(), 2);
        let cfg = IterConfig::new("halve", 2, 4).with_checkpoint_interval(0);
        let err = native
            .run(
                &Halve,
                &cfg,
                "/state",
                "/static",
                "/out",
                &[FailureEvent {
                    node: NodeId(0),
                    at_iteration: 1,
                }],
            )
            .unwrap_err();
        match err {
            EngineError::Config(msg) => {
                assert!(msg.contains("checkpoint_interval"), "{msg}");
            }
            other => panic!("expected a configuration error, got {other}"),
        }
    }

    #[test]
    fn mispartitioned_or_key_diverged_inputs_are_config_errors() {
        let expect_config = |native: &NativeRunner, tasks: usize, needle: &str| {
            let cfg = IterConfig::new("halve", tasks, 3);
            match native.run(&Halve, &cfg, "/state", "/static", "/out", &[]) {
                Err(EngineError::Config(msg)) => assert!(msg.contains(needle), "{msg}"),
                Err(other) => panic!("expected a configuration error, got {other}"),
                Ok(_) => panic!("expected a configuration error, got Ok"),
            }
        };
        // Three parts on disk, two pairs requested.
        let (native, _) = fixtures(2);
        load_halve(native.dfs(), 3);
        expect_config(&native, 2, "pre-partitioned into num_tasks = 2");

        // Right part and record counts, but pair 0's last state key is
        // one its static partition does not hold: the worker reports the
        // kernel's typed error instead of panicking.
        let (native, _) = fixtures(2);
        load_halve(native.dfs(), 2);
        let mut clock = TaskClock::default();
        let mut part: Vec<(u32, f64)> =
            imr_mapreduce::io::read_part(native.dfs(), "/state", 0, NodeId(0), &mut clock).unwrap();
        part.last_mut().unwrap().0 += 1000;
        native
            .dfs()
            .put_atomic(
                &part_path("/state", 0),
                imr_records::encode_pairs(&part),
                NodeId(0),
                &mut clock,
            )
            .unwrap();
        expect_config(&native, 2, "keys diverged at pair 0");
    }

    /// Accumulative job whose every applied delta is sent to a key
    /// that `partition` routes to a pair that does not exist.
    struct Stray;
    impl IterativeJob for Stray {
        type K = u32;
        type S = f64;
        type T = ();
        fn map(&self, k: &u32, s: StateInput<'_, u32, f64>, _t: &(), out: &mut Emitter<u32, f64>) {
            out.emit(*k, *s.one());
        }
        fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
            *acc += v;
        }
        fn partition(&self, key: &u32, n: usize) -> usize {
            if *key >= 1000 {
                n
            } else {
                Halve.partition(key, n)
            }
        }
    }
    impl imapreduce::Accumulative for Stray {
        fn identity(&self) -> f64 {
            0.0
        }
        fn seed(&self, _k: &u32, loaded: &f64) -> (f64, f64) {
            (0.0, *loaded)
        }
        fn extract(&self, k: &u32, delta: &f64, _t: &(), out: &mut Emitter<u32, f64>) {
            out.emit(k + 1000, *delta);
        }
        fn progress(&self, _k: &u32, _v: &f64, d: &f64) -> f64 {
            d.abs()
        }
    }

    #[test]
    fn delta_partition_out_of_range_is_a_config_error_on_sim_and_threads() {
        fn check(engine: &impl IterEngine) {
            load_halve(engine.dfs(), 2);
            let cfg = IterConfig::new("stray", 2, 4)
                .with_distance_threshold(1e-9)
                .with_accumulative_mode();
            match engine.run_accumulative(&Stray, &cfg, "/state", "/static", "/out", &[]) {
                Err(EngineError::Config(msg)) => {
                    assert!(msg.contains("returned 2 for 2 parts"), "{msg}")
                }
                Err(other) => panic!("expected a configuration error, got {other}"),
                Ok(_) => panic!("expected a configuration error, got Ok"),
            }
        }
        let (native, sim) = fixtures(2);
        check(&sim);
        check(&native);
    }

    #[test]
    fn delta_key_divergence_is_a_config_error_on_sim_and_threads() {
        fn check(engine: &impl IterEngine) {
            load_halve(engine.dfs(), 2);
            // Same record count, but pair 0's last state key is one its
            // static partition does not hold.
            let mut clock = TaskClock::default();
            let mut part: Vec<(u32, f64)> =
                imr_mapreduce::io::read_part(engine.dfs(), "/state", 0, NodeId(0), &mut clock)
                    .unwrap();
            part.last_mut().unwrap().0 += 1000;
            let bytes = imr_records::encode_pairs(&part);
            let path = part_path("/state", 0);
            engine
                .dfs()
                .put_atomic(&path, bytes, NodeId(0), &mut clock)
                .unwrap();
            let cfg = IterConfig::new("stray", 2, 4)
                .with_distance_threshold(1e-9)
                .with_accumulative_mode();
            match engine.run_accumulative(&Stray, &cfg, "/state", "/static", "/out", &[]) {
                Err(EngineError::Config(msg)) => {
                    assert!(
                        msg.contains("state/static keys diverged at pair 0"),
                        "{msg}"
                    )
                }
                Err(other) => panic!("expected a configuration error, got {other}"),
                Ok(_) => panic!("expected a configuration error, got Ok"),
            }
        }
        let (native, sim) = fixtures(2);
        check(&sim);
        check(&native);
    }

    #[test]
    fn zero_interval_disables_snapshotting() {
        let (native, _) = fixtures(2);
        load_halve(native.dfs(), 2);
        let cfg = IterConfig::new("halve", 2, 6).with_checkpoint_interval(0);
        let out = native
            .run(&Halve, &cfg, "/state", "/static", "/out", &[])
            .unwrap();
        assert_eq!(out.iterations, 6);
        assert!(
            native.dfs().list("/out/_ckpt").is_empty(),
            "interval 0 must write no snapshots"
        );
        assert!(snapshot_epochs(native.dfs(), "/out").is_empty());
    }

    #[test]
    fn checkpoints_land_atomically_on_the_dfs() {
        let (native, _) = fixtures(2);
        load_halve(native.dfs(), 2);
        let cfg = IterConfig::new("halve", 2, 5).with_checkpoint_interval(2);
        native
            .run(&Halve, &cfg, "/state", "/static", "/out", &[])
            .unwrap();
        // Only the newest epoch survives, with one part per pair and no
        // leftover temporaries.
        assert_eq!(snapshot_epochs(native.dfs(), "/out"), vec![4]);
        let dir = snapshot_dir("/out", 4);
        assert_eq!(num_parts(native.dfs(), &dir), 2);
        assert!(native.dfs().list(&format!("{dir}/.")).is_empty());
        assert!(native.metrics().checkpoint_bytes.get() > 0);
    }

    #[test]
    fn back_to_back_failures_recover() {
        let (clean_rt, _) = fixtures(4);
        load_halve(clean_rt.dfs(), 4);
        let cfg = IterConfig::new("halve", 4, 8).with_checkpoint_interval(2);
        let clean = clean_rt
            .run(&Halve, &cfg, "/state", "/static", "/out", &[])
            .unwrap();

        let (failed_rt, _) = fixtures(4);
        load_halve(failed_rt.dfs(), 4);
        // Two failures at the same iteration on different nodes plus a
        // later one, including one on the checkpoint iteration itself.
        let failures = [
            FailureEvent {
                node: NodeId(0),
                at_iteration: 2,
            },
            FailureEvent {
                node: NodeId(1),
                at_iteration: 2,
            },
            FailureEvent {
                node: NodeId(2),
                at_iteration: 4,
            },
        ];
        let failed = failed_rt
            .run(&Halve, &cfg, "/state", "/static", "/out", &failures)
            .unwrap();
        assert_eq!(failed.recoveries, 3);
        assert_eq!(failed.final_state, clean.final_state);
        assert_eq!(failed.iterations, clean.iterations);
    }

    #[test]
    fn failure_at_final_iteration_never_fires() {
        let (native, _) = fixtures(2);
        load_halve(native.dfs(), 2);
        let cfg = IterConfig::new("halve", 2, 4).with_checkpoint_interval(2);
        let out = native
            .run(
                &Halve,
                &cfg,
                "/state",
                "/static",
                "/out",
                &[FailureEvent {
                    node: NodeId(0),
                    at_iteration: 4,
                }],
            )
            .unwrap();
        // Same rule as the simulation engine: the done-check precedes
        // the failure point, so a final-iteration event is inert.
        assert_eq!(out.recoveries, 0);
        assert_eq!(out.iterations, 4);
    }

    #[test]
    fn hang_recovery_via_watchdog_matches_clean_run() {
        let wd = WatchdogConfig {
            poll: Duration::from_millis(5),
            stall_timeout: Duration::from_millis(150),
        };
        let cfg = IterConfig::new("halve", 3, 6)
            .with_checkpoint_interval(2)
            .with_watchdog(wd);
        let (clean_rt, _) = fixtures(4);
        load_halve(clean_rt.dfs(), 3);
        let clean = clean_rt
            .run(&Halve, &cfg, "/state", "/static", "/out", &[])
            .unwrap();

        // No scripted kill anywhere: only the watchdog can turn the
        // hang back into a recoverable failure.
        let (hung_rt, _) = fixtures(4);
        load_halve(hung_rt.dfs(), 3);
        let hung = hung_rt
            .run_faults(
                &Halve,
                &cfg,
                "/state",
                "/static",
                "/out",
                &[FaultEvent::Hang {
                    node: NodeId(0),
                    at_iteration: 3,
                }],
            )
            .unwrap();
        assert_eq!(hung.recoveries, 1);
        assert_eq!(hung_rt.metrics().stalls_detected.get(), 1);
        assert_eq!(hung.final_state, clean.final_state);
        assert_eq!(hung.iterations, clean.iterations);
        assert_eq!(hung.distances, clean.distances);
    }

    #[test]
    fn watchdog_rides_out_scripted_delays() {
        // A slow-but-progressing pair must not be declared stalled:
        // the delays here are well under the stall timeout, so the run
        // completes with zero interventions (and, being delay-only, it
        // does not even need checkpoints).
        let wd = WatchdogConfig {
            poll: Duration::from_millis(5),
            stall_timeout: Duration::from_millis(400),
        };
        let cfg = IterConfig::new("halve", 2, 5).with_watchdog(wd);
        let (clean_rt, _) = fixtures(2);
        load_halve(clean_rt.dfs(), 2);
        let clean = clean_rt
            .run(&Halve, &cfg, "/state", "/static", "/out", &[])
            .unwrap();

        let (slow_rt, _) = fixtures(2);
        load_halve(slow_rt.dfs(), 2);
        let slow = slow_rt
            .run_faults(
                &Halve,
                &cfg,
                "/state",
                "/static",
                "/out",
                &[
                    FaultEvent::Delay {
                        node: NodeId(0),
                        at_iteration: 2,
                        millis: 60,
                    },
                    FaultEvent::Delay {
                        node: NodeId(1),
                        at_iteration: 3,
                        millis: 60,
                    },
                ],
            )
            .unwrap();
        assert_eq!(slow.recoveries, 0);
        assert_eq!(slow_rt.metrics().stalls_detected.get(), 0);
        assert_eq!(slow.final_state, clean.final_state);
        assert_eq!(slow.iterations, clean.iterations);
    }

    /// CPU-heavy variant of Halve: each map burns measurable compute so
    /// the per-pair busy EWMA clearly separates an emulated slow node.
    struct Grind;
    impl IterativeJob for Grind {
        type K = u32;
        type S = f64;
        type T = ();
        fn map(&self, k: &u32, s: StateInput<'_, u32, f64>, _t: &(), out: &mut Emitter<u32, f64>) {
            let mut x = s.one() / 2.0;
            for _ in 0..40_000 {
                x = std::hint::black_box(x);
            }
            out.emit(*k, x);
        }
        fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
            *acc += v;
        }
    }

    fn skewed_runner() -> NativeRunner {
        let mut spec = ClusterSpec::local(5);
        spec.nodes[0].speed = 0.2;
        let spec = Arc::new(spec);
        let metrics: MetricsHandle = Arc::new(Metrics::default());
        let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 3, 1 << 20);
        NativeRunner::new(dfs, metrics)
    }

    #[test]
    fn skewed_cluster_migrates_and_matches_the_unbalanced_run() {
        let base = IterConfig::new("grind", 4, 8)
            .with_checkpoint_interval(1)
            .with_watchdog(WatchdogConfig {
                poll: Duration::from_millis(2),
                stall_timeout: Duration::from_secs(5),
            });
        let plain_rt = skewed_runner();
        load_halve(plain_rt.dfs(), 4);
        let plain = plain_rt
            .run(&Grind, &base, "/state", "/static", "/out", &[])
            .unwrap();
        assert_eq!(plain.migrations, 0);

        let lb_rt = skewed_runner();
        load_halve(lb_rt.dfs(), 4);
        let cfg = base.clone().with_load_balance(LoadBalance {
            deviation: 0.5,
            max_migrations: 4,
        });
        let balanced = lb_rt
            .run(&Grind, &cfg, "/state", "/static", "/out", &[])
            .unwrap();
        assert!(
            balanced.migrations >= 1,
            "the 5x-slower node must trigger at least one migration"
        );
        assert_eq!(lb_rt.metrics().migrations.get(), balanced.migrations);
        assert!(!imr_dfs::migration_epochs(lb_rt.dfs(), "/out").is_empty());
        // Migration is rollback under a new placement: bit-identical.
        assert_eq!(balanced.final_state, plain.final_state);
        assert_eq!(balanced.iterations, plain.iterations);
    }

    #[test]
    fn panic_in_job_code_surfaces_as_error_not_hang() {
        struct Bomb;
        impl IterativeJob for Bomb {
            type K = u32;
            type S = f64;
            type T = ();
            fn map(
                &self,
                k: &u32,
                s: StateInput<'_, u32, f64>,
                _t: &(),
                out: &mut Emitter<u32, f64>,
            ) {
                out.emit(*k, *s.one());
            }
            fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
                *acc += v;
            }
            fn finish(&self, k: &u32, acc: f64) -> f64 {
                assert!(*k != 7, "bomb triggered");
                acc
            }
        }
        let (native, _) = fixtures(2);
        load_halve(native.dfs(), 3);
        let cfg = IterConfig::new("bomb", 3, 3).with_sync_maps();
        let err = native
            .run(&Bomb, &cfg, "/state", "/static", "/out", &[])
            .unwrap_err();
        match err {
            EngineError::Worker(msg) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected a worker error, got {other}"),
        }
    }

    #[test]
    fn a_partition_out_of_range_is_a_config_error_on_sim_and_threads() {
        /// Routes the keys it was loaded with correctly, and the keys it
        /// emits to a pair that does not exist.
        struct Stray;
        impl IterativeJob for Stray {
            type K = u32;
            type S = f64;
            type T = ();
            fn map(
                &self,
                k: &u32,
                s: StateInput<'_, u32, f64>,
                _t: &(),
                out: &mut Emitter<u32, f64>,
            ) {
                out.emit(*k + 1000, *s.one());
            }
            fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
                *acc += v;
            }
            fn partition(&self, k: &u32, n: usize) -> usize {
                if *k >= 1000 {
                    n
                } else {
                    *k as usize % n
                }
            }
        }
        fn load(dfs: &Dfs) {
            let mut clock = TaskClock::default();
            let route = |k: &u32, m: usize| Stray.partition(k, m);
            let state: Vec<(u32, f64)> = (0..64).map(|k| (k, 1.0)).collect();
            let statics: Vec<(u32, ())> = (0..64).map(|k| (k, ())).collect();
            load_partitioned(dfs, "/state", state, 2, route, &mut clock).unwrap();
            load_partitioned(dfs, "/static", statics, 2, route, &mut clock).unwrap();
        }
        let (native, sim) = fixtures(2);
        load(native.dfs());
        load(sim.dfs());
        let cfg = IterConfig::new("stray", 2, 3);
        let on_sim = sim.run(&Stray, &cfg, "/state", "/static", "/out", &[]);
        let on_threads = native.run(&Stray, &cfg, "/state", "/static", "/out", &[]);
        for (engine, result) in [("sim", on_sim), ("threads", on_threads)] {
            match result {
                Err(EngineError::Config(msg)) => assert!(
                    msg.contains("partition function returned 2 for 2 parts"),
                    "{engine}: {msg}"
                ),
                Err(other) => panic!("{engine}: expected a Config error, got {other}"),
                Ok(_) => panic!("{engine}: expected a Config error, got a result"),
            }
        }
    }

    #[test]
    fn eager_handoff_is_refused_on_both_native_fabrics() {
        let (native, _) = fixtures(2);
        load_halve(native.dfs(), 2);
        let refused = |result: Result<IterOutcome<u32, f64>, EngineError>| match result {
            Err(EngineError::Config(msg)) => assert!(msg.contains("sim-only"), "{msg}"),
            Err(other) => panic!("expected a Config error, got {other}"),
            Ok(_) => panic!("eager_handoff ran on a native engine"),
        };
        let cfg = IterConfig::new("halve", 2, 2).with_eager_handoff();
        refused(native.run(&Halve, &cfg, "/state", "/static", "/out", &[]));
        // Validation comes before any worker is spawned.
        let spec = WorkerSpec::new("/nonexistent/imr-worker", vec![]);
        refused(
            native
                .with_workers(spec)
                .run(&Halve, &cfg, "/state", "/static", "/out", &[]),
        );
    }
}
