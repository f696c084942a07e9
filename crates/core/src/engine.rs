//! The iMapReduce runtime (paper §3).
//!
//! One job = `num_tasks` *persistent* map/reduce task pairs. Each pair
//! is launched once, holds its static data partition locally, and loops
//! over iterations: join state with static → map → shuffle state →
//! reduce → hand the new state straight back to the paired map task
//! over a local persistent connection. Map tasks activate
//! asynchronously (as soon as *their* reduce finished) unless the job
//! forces synchronous execution or uses one2all broadcast.
//!
//! The loop also implements the paper's runtime support: per-iteration
//! termination checks merged at the master (§3.1.2), checkpoint-based
//! fault tolerance with rollback (§3.4.1), and migration-based load
//! balancing (§3.4.2). The same loop runs the auxiliary phase of §5.3
//! (`run_with_aux`) as one more step of each iteration, in parallel
//! with the hand-off; it is written nowhere else.
//!
//! The barrier-free delta mode (`run_accumulative`) has no loop here: it
//! runs the native backends' `delta_loop` (`pair.rs`), one thread per
//! pair, on the virtual-clock `SimEnv` (`sim_env.rs`).
//!
//! A checkpoint is the DFS snapshot and nothing else: part `q` is pair
//! `q`'s reduce-side state, in the layout the native pair loop writes
//! (the carried-forward partition under one2one, the pair's own reduce
//! output under one2all). A rollback — a failure or a migration —
//! reloads every pair's state from those bytes, or from the job's input
//! at epoch 0, with the loader the launch uses.

use crate::api::{IterativeJob, Mapping};
use crate::aux::AuxPhase;
use crate::config::{FailureEvent, FaultEvent, IterConfig, TransportKind};
use crate::kernel::{fold_votes, merge_broadcast, reduce_side, MapScratch, MapState};
use crate::observe::Observer;
use crate::sim_env::Turns;
use crate::store::{check_inputs, check_slots};
use bytes::Bytes;
use imr_dfs::Dfs;
use imr_mapreduce::io::{num_parts, part_path, read_part};
use imr_mapreduce::{ClockCharge, EngineError};
use imr_records::{encode_pairs, pairs_encoded_len, sort_run, Codec, Key, Value};
use imr_simcluster::{
    ClusterSpec, MetricsHandle, NodeId, RunReport, TaskClock, VDuration, VInstant,
};
use imr_telemetry::TelemetryHandle;
use imr_trace::{TraceEvent, TraceHandle, TraceKind, COORD};
use std::sync::Arc;

/// The outcome of one iMapReduce run.
#[derive(Debug, Clone)]
pub struct IterOutcome<K, S> {
    /// Virtual-time report (per-iteration completion, total, metrics).
    pub report: RunReport,
    /// Final state, sorted by key (also committed to the output dir).
    pub final_state: Vec<(K, S)>,
    /// Iterations executed (rolled-back iterations not counted twice).
    pub iterations: usize,
    /// Global distance measured after each iteration (`INFINITY` while
    /// no previous snapshot exists or no threshold is set).
    pub distances: Vec<f64>,
    /// Task-pair migrations performed by load balancing.
    pub migrations: u64,
    /// Failure recoveries performed.
    pub recoveries: u64,
}

/// Executes [`IterativeJob`]s over one simulated cluster + DFS.
#[derive(Clone)]
pub struct IterativeRunner {
    pub(crate) cluster: Arc<ClusterSpec>,
    pub(crate) dfs: Dfs,
    pub(crate) metrics: MetricsHandle,
    pub(crate) observer: Observer,
}

/// Trace coordinates of an event: where and when in the run it happened.
#[derive(Clone, Copy)]
struct Tag {
    node: u32,
    /// The pair, or [`COORD`] for master-side events.
    pair: u32,
    iter: u32,
    generation: u32,
}

fn tag(node: NodeId, pair: usize, iter: usize, generation: u32) -> Tag {
    Tag {
        node: node.index() as u32,
        pair: pair as u32,
        iter: iter as u32,
        generation,
    }
}

/// What every pair holds between iterations, as the one loader
/// ([`IterativeRunner::load_states`]) produces it at launch and on every
/// rollback.
struct PairStates<K, S> {
    /// Pair `q`'s reduce-side state, part `q` of a snapshot: its
    /// partition under one2one, its last reduce output under one2all.
    own: Vec<Vec<(K, S)>>,
    /// One2all: the broadcast state every map task reads.
    global: Vec<(K, S)>,
    /// Encoded size of the state each pair's map reads.
    bytes: Vec<u64>,
}

impl IterativeRunner {
    /// A runner over the given substrate handles.
    pub fn new(cluster: Arc<ClusterSpec>, dfs: Dfs, metrics: MetricsHandle) -> Self {
        IterativeRunner {
            cluster,
            dfs,
            observer: Observer::new(Arc::clone(&metrics)),
            metrics,
        }
    }

    /// Attaches a trace ring: subsequent runs record per-task iteration
    /// spans (virtual-time timestamps) and fault-path events into it,
    /// and fault recovery dumps a flight-recorder artifact to the DFS.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.observer.attach_trace(trace);
        self
    }

    /// Attaches a telemetry registry: subsequent runs record each phase
    /// span's latency into its histograms and push one sample per pair
    /// per iteration, stamped with virtual time — so the sampled series
    /// is bit-identical across runs of the same job.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.observer.attach_telemetry(telemetry);
        self
    }

    /// Emits `kind` over `[start, end]` to the run's observer.
    fn event(&self, kind: TraceKind, start: VInstant, end: VInstant, tag: Tag) {
        let event = TraceEvent::new(kind).spanning(start.as_nanos(), end.as_nanos());
        self.observer
            .emit(event.tagged(tag.node, tag.pair, tag.iter, tag.generation));
    }

    /// Dump the trailing trace window to the DFS flight-recorder
    /// artifact `seq` for this run (no-op without a trace ring).
    fn flight_dump(&self, output_dir: &str, seq: usize, node: NodeId) -> Result<(), EngineError> {
        let Some(lines) = self.observer.flight_lines() else {
            return Ok(());
        };
        let mut off_path = TaskClock::default();
        self.dfs.put_atomic(
            &imr_trace::flight_path(output_dir, seq),
            Bytes::from(lines.into_bytes()),
            node,
            &mut off_path,
        )?;
        Ok(())
    }

    /// The cluster this runner schedules on.
    pub fn cluster(&self) -> &Arc<ClusterSpec> {
        &self.cluster
    }

    /// The DFS this runner reads and writes.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Maximum number of persistent task pairs this cluster can host
    /// (every pair needs a map slot and a reduce slot for the whole
    /// run, §3.1.1).
    pub fn pair_capacity(&self) -> usize {
        self.cluster.pair_capacity()
    }

    fn node_pair_capacity(&self, node: NodeId) -> usize {
        self.cluster.node_pair_capacity(node)
    }

    /// Runs `job` to termination.
    ///
    /// * `state_dir` — `mapred.iterjob.statepath`: initial state parts,
    ///   partitioned with the job's partition function;
    /// * `static_dir` — `mapred.iterjob.staticpath`: static data parts,
    ///   co-partitioned with the state;
    /// * `output_dir` — final state parts are committed here;
    /// * `failures` — scripted worker failures (kills) to inject. For
    ///   delay/hang faults use [`IterativeRunner::run_faults`].
    pub fn run<J: IterativeJob>(
        &self,
        job: &J,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        failures: &[FailureEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        let faults: Vec<FaultEvent> = failures.iter().map(|&f| f.into()).collect();
        self.run_faults(job, cfg, state_dir, static_dir, output_dir, &faults)
    }

    /// Runs `job` to termination under a generalized fault schedule
    /// ([`FaultEvent`]): kills recover through checkpoint rollback as in
    /// [`IterativeRunner::run`], delays charge lost processing time on
    /// the affected node's pairs, and hangs model watchdog detection —
    /// the stalled pair is declared failed only after the configured
    /// `stall_timeout` of virtual-time silence, then recovered the same
    /// way a kill is.
    pub fn run_faults<J: IterativeJob>(
        &self,
        job: &J,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        let dirs = [state_dir, static_dir, output_dir];
        Ok(self.drive(job, cfg, dirs, faults, None)?.0)
    }

    /// The one iteration loop behind [`IterativeRunner::run_faults`] and
    /// [`run_with_aux`](crate::run_with_aux). `dirs` are the state,
    /// static and output directories. With `Some(aux)` (one2all only)
    /// the auxiliary phase of §5.3 runs as one more step of each
    /// iteration, off the critical path, and its stop signal ends the
    /// run; the aux totals come back next to the outcome.
    pub(crate) fn drive<J: IterativeJob>(
        &self,
        job: &J,
        cfg: &IterConfig,
        [state_dir, static_dir, output_dir]: [&str; 3],
        faults: &[FaultEvent],
        aux: Option<&dyn AuxPhase<J::K, J::S>>,
    ) -> Result<(IterOutcome<J::K, J::S>, Vec<f64>), EngineError> {
        cfg.validate(faults)?;
        refuse_tcp(cfg)?;
        if cfg.accumulative {
            return Err(EngineError::Config(
                "cfg.accumulative is set: use run_accumulative for barrier-free \
                 delta-accumulative execution"
                    .into(),
            ));
        }
        if cfg.resume {
            return Err(EngineError::Config(
                "resume is native-only: the simulator restarts from iteration 0 \
                 in virtual time and has no durable snapshot to resume from"
                    .into(),
            ));
        }
        let n = cfg.num_tasks;
        // The aux tasks take n more pair slots and 2n more task launches.
        let aux_tasks = if aux.is_some() { n } else { 0 };
        check_slots(n + aux_tasks, self.pair_capacity())?;
        check_inputs(&self.dfs, cfg, state_dir, static_dir)?;
        let cost = &self.cluster.cost;
        let one2all = cfg.mapping == Mapping::One2All;
        self.metrics.jobs_launched.add(1);
        self.metrics.tasks_launched.add(2 * aux_tasks as u64);

        // ---- One-time initialization (persistent task launch + load) --
        let job_start = VInstant::EPOCH + cost.job_setup;
        // Round-robin placement over nodes, shared with the native
        // backend so failure events name the same pairs in both engines.
        let mut assignment: Vec<NodeId> = self.cluster.assign_pairs(n);

        let mut static_store: Vec<Vec<(J::K, J::T)>> = Vec::with_capacity(n);
        let mut static_bytes: Vec<u64> = Vec::with_capacity(n);
        let mut clocks: Vec<TaskClock> = Vec::with_capacity(n);
        for p in 0..n {
            let mut clock = TaskClock::starting_at(job_start);
            // The pair's two persistent tasks launch concurrently.
            clock.advance(cost.task_launch);
            self.metrics.tasks_launched.add(2);
            let (stat, sbytes) = self.load_sorted_part(static_dir, p, assignment[p], &mut clock)?;
            static_store.push(stat);
            static_bytes.push(sbytes);
            clocks.push(clock);
        }
        let state_dirs = [state_dir, output_dir];
        let PairStates {
            own: mut state_store,
            global: mut global_state,
            bytes: mut state_bytes,
        } = self.load_states(state_dirs, 0, one2all, &assignment, &mut clocks)?;
        // The one-time decode of the state, and its sort under one2one.
        for (p, clock) in clocks.iter_mut().enumerate() {
            clock.advance(cost.serde_per_byte * state_bytes[p]);
            if !one2all {
                let speed = self.cluster.speed(assignment[p]);
                clock.advance(cost.sort_time(state_store[p].len() as u64, speed));
            }
        }
        let mut state_ready: Vec<VInstant> = clocks.iter().map(TaskClock::now).collect();

        // With eager hand-off, `state_ready` is when the map may START
        // consuming the chunked stream; `state_complete` is when the
        // last chunk exists — the map cannot finish before it.
        let mut state_complete: Vec<VInstant> = state_ready.clone();

        // The epoch a rollback returns to: the latest checkpoint, or 0
        // (the job's input: the iterative process restarts from scratch).
        let mut epoch = 0usize;

        let mut report = RunReport {
            label: self.label(cfg),
            ..RunReport::default()
        };
        let mut distances: Vec<f64> = Vec::new();
        let mut aux_values: Vec<f64> = Vec::new();
        // Kills and hangs are consumed once recovery handles them;
        // delays stay scripted for the whole run so a rolled-back
        // iteration replays them identically (determinism).
        let (delays, mut pending_failures): (Vec<FaultEvent>, Vec<FaultEvent>) = faults
            .iter()
            .partition(|f| matches!(f, FaultEvent::Delay { .. }));
        pending_failures.sort_by_key(|f| f.at_iteration());
        let mut migrations = 0u64;
        let mut recoveries = 0u64;
        let max_iters = cfg.termination.max_iterations;
        let mut iter = 1usize;
        let mut last_reduce_done: Vec<VInstant> = vec![job_start; n];
        let mut decision_time = job_start;
        // Trace coordinates: the generation bumps on every rollback
        // (failure recovery or migration); flight-recorder dumps are
        // numbered per run.
        let mut generation = 0u32;
        let mut flight_seq = 0usize;
        // Pairs run one after another here, so one set of map-side
        // buffers serves them all for the whole run.
        let mut map_scratch = MapScratch::default();

        while iter <= max_iters {
            // Per-pair busy time this iteration (compute only, no
            // barrier waits) — the "processing time" reduce tasks put
            // in their §3.4.2 iteration completion reports.
            let mut pair_busy = vec![0.0f64; n];
            // ---- Map phase -------------------------------------------
            let sync_gate = state_ready.iter().copied().max().unwrap_or(job_start);
            let mut map_done: Vec<VInstant> = Vec::with_capacity(n);
            let mut segments: Vec<Vec<Bytes>> = Vec::with_capacity(n);
            for p in 0..n {
                let activation = if cfg.effective_sync() {
                    sync_gate
                } else {
                    state_ready[p]
                };
                let node = assignment[p];
                let speed = self.cluster.speed(node);
                let mut clock = TaskClock::starting_at(activation);

                // Eager sorted join of the state stream with the local
                // static store (§3.2.2), map, partition, sort, combine,
                // encode: the shared kernel, charged to this clock.
                let input = if one2all {
                    MapState::Broadcast(&global_state)
                } else {
                    MapState::Own(&state_store[p])
                };
                let out = map_scratch.map_side(
                    job,
                    input,
                    &static_store[p],
                    n,
                    p,
                    &self.metrics,
                    &mut ClockCharge::new(&mut clock, cost, speed),
                )?;
                let in_bytes = state_bytes[p] + static_bytes[p];
                clock.advance(cost.compute_time(out.records_in + out.emitted, in_bytes, speed));
                // iMapReduce keeps intermediate data in files (§6).
                clock.advance(cost.serde_per_byte * out.spill_bytes);
                clock.advance(cost.disk_time(out.spill_bytes));
                // Deterministic straggler slowdown, keyed by iteration
                // and task so sync/async variants face the same pattern.
                let busy = clock.now().duration_since(activation);
                clock.advance(busy * cost.straggler(iter as u64, p as u64, 1));
                pair_busy[p] += clock.now().duration_since(activation).as_secs_f64();
                // Pipelined consumption cannot outrun its producer.
                map_done.push(clock.now().max(state_complete[p]));
                segments.push(out.segments);
                let at = tag(node, p, iter, generation);
                if cfg.effective_sync() {
                    self.event(TraceKind::BarrierWait, state_ready[p], sync_gate, at);
                }
                self.event(TraceKind::IterStart, activation, activation, at);
                self.event(TraceKind::MapPhase, activation, map_done[p], at);
            }

            // ---- Reduce phase ----------------------------------------
            let mut new_states: Vec<Vec<(J::K, J::S)>> = Vec::with_capacity(n);
            let mut new_state_bytes: Vec<u64> = Vec::with_capacity(n);
            let mut reduce_done: Vec<VInstant> = Vec::with_capacity(n);
            let mut reduce_work_start: Vec<VInstant> = Vec::with_capacity(n);
            let mut votes: Vec<(f64, bool)> = Vec::with_capacity(n);

            for q in 0..n {
                let node = assignment[q];
                let speed = self.cluster.speed(node);
                let mut clock = TaskClock::default();
                let (inbound, work_start) =
                    self.fetch_segments(&segments, q, &map_done, &assignment, &mut clock);
                reduce_work_start.push(work_start);

                // Merge, reduce, carry forward keys that received no
                // value (one2one only) and measure the local distance
                // vs the previous snapshot (§3.1.2): the shared kernel.
                // Under one2all the previous snapshot is the pair's last
                // reduce output, which iteration 1 does not have.
                let prev = (!one2all || iter > 1).then_some(state_store[q].as_slice());
                let mut charge = ClockCharge::new(&mut clock, cost, speed);
                let out = reduce_side(
                    job,
                    inbound,
                    prev,
                    one2all,
                    cfg.termination.distance_threshold.is_some(),
                    &self.metrics,
                    &mut charge,
                )?;
                charge.merged(out.records, n);
                let new_state = out.state;
                votes.push((out.distance, out.has_prev));
                if out.has_prev {
                    clock.advance(cost.compute_time(new_state.len() as u64, 0, speed));
                }

                let bytes = pairs_encoded_len(&new_state) as u64;
                clock.advance(cost.serde_per_byte * bytes);
                let busy = clock.now().duration_since(work_start);
                clock.advance(busy * cost.straggler(iter as u64, q as u64, 2));
                pair_busy[q] += clock.now().duration_since(work_start).as_secs_f64();
                // Scripted slowdown (FaultEvent::Delay): the node loses
                // processing time but keeps progressing, so it shows up
                // in the §3.4.2 completion reports without any recovery.
                for d in &delays {
                    if let FaultEvent::Delay {
                        node: slow,
                        at_iteration,
                        millis,
                    } = *d
                    {
                        if at_iteration == iter && slow == node {
                            let extra = VDuration::from_millis(millis);
                            clock.advance(extra);
                            pair_busy[q] += extra.as_secs_f64();
                        }
                    }
                }
                reduce_done.push(clock.now());
                new_states.push(new_state);
                new_state_bytes.push(bytes);
                let at = tag(node, q, iter, generation);
                self.event(TraceKind::ReducePhase, work_start, clock.now(), at);
            }

            let iter_done = reduce_done.iter().copied().max().unwrap_or(job_start);
            report.iteration_done.push(iter_done);
            last_reduce_done.clone_from(&reduce_done);

            // ---- Auxiliary phase (§5.3), in parallel -----------------
            // Aux map q reads reduce q's buffered output locally at
            // reduce_done[q] and ships one partial to the aux reducer on
            // pair 0's node, which sums them and broadcasts the stop
            // signal. From iteration 2 on: iteration 1 has no snapshot.
            let mut stop_signal = None;
            if let Some(aux) = aux.filter(|_| iter > 1) {
                let mut aux_reduce = TaskClock::default();
                let mut total = 0.0;
                for q in 0..n {
                    let mut clock = TaskClock::starting_at(reduce_done[q]);
                    let (prev, cur) = (&state_store[q], &new_states[q]);
                    total += aux.partial(prev, cur);
                    let records = (prev.len() + cur.len()) as u64;
                    let speed = self.cluster.speed(assignment[q]);
                    clock.advance(cost.compute_time(records, new_state_bytes[q], speed));
                    let ship = self.cluster.transfer_time(assignment[q], assignment[0], 16);
                    aux_reduce.merge(clock.now() + ship);
                }
                aux_reduce.advance(cost.compute_time(n as u64, 0, 1.0));
                aux_values.push(total);
                if aux.should_terminate(total) {
                    stop_signal = Some(aux_reduce.now() + cost.net_latency);
                }
            }

            // ---- State hand-off back to the map side -----------------
            if one2all {
                // Broadcast: every reduce ships its output to all map
                // tasks; each map's next activation is the barrier over
                // all broadcasts.
                let gates = self.broadcast_gates(&reduce_done, &new_state_bytes, &assignment);
                let total: u64 = new_state_bytes.iter().sum();
                for p in 0..n {
                    state_ready[p] = gates[p];
                    state_complete[p] = gates[p];
                    state_bytes[p] = total;
                }
                for q in 0..n {
                    let bytes = new_state_bytes[q];
                    let sent = reduce_done[q] + cost.handoff_flush;
                    let at = tag(assignment[q], q, iter, generation);
                    self.end_iteration(TraceKind::Broadcast { bytes }, reduce_done[q], sent, at);
                }
                global_state = merge_broadcast(&new_states);
            } else {
                for q in 0..n {
                    // Persistent local socket to the paired map task.
                    let complete = reduce_done[q]
                        + cost.handoff_flush
                        + cost.local_transfer_time(new_state_bytes[q]);
                    state_complete[q] = complete;
                    state_ready[q] = if cfg.eager_handoff {
                        // First buffer flush: right after the reduce
                        // cleared its shuffle barrier (§3.3's eager
                        // sending; the buffer amortizes the context
                        // switches, modelled by one flush charge).
                        (reduce_work_start[q] + cost.handoff_flush).max(state_ready[q])
                    } else {
                        complete
                    };
                    self.metrics.state_handoff_bytes.add(new_state_bytes[q]);
                    state_bytes[q] = new_state_bytes[q];
                    let bytes = new_state_bytes[q];
                    let at = tag(assignment[q], q, iter, generation);
                    self.end_iteration(
                        TraceKind::StateHandoff { bytes },
                        reduce_done[q],
                        complete,
                        at,
                    );
                }
            }
            state_store = new_states;

            // ---- Master: termination check ---------------------------
            decision_time = stop_signal.unwrap_or(iter_done + cost.net_latency);
            let (iter_distance, any_prev) = fold_votes(votes);
            if cfg.termination.distance_threshold.is_some() {
                distances.push(if any_prev {
                    iter_distance
                } else {
                    f64::INFINITY
                });
            }
            let converged = match cfg.termination.distance_threshold {
                Some(eps) => any_prev && iter_distance < eps,
                None => false,
            };
            let done = converged || stop_signal.is_some() || iter == max_iters;

            // ---- Checkpointing (parallel with computation) -----------
            if !done && cfg.checkpoint_interval > 0 && iter.is_multiple_of(cfg.checkpoint_interval)
            {
                let payloads = state_store.iter().map(|part| encode_pairs(part));
                self.write_checkpoint(
                    output_dir,
                    iter,
                    payloads,
                    epoch,
                    &assignment,
                    iter_done,
                    generation,
                )?;
                epoch = iter;
            }
            if done {
                break;
            }

            // ---- Failure injection + recovery, load balancing --------
            // Either way pairs are relaunched and then every pair rolls
            // back to the latest checkpoint; `rolled_back` carries when
            // the rollback began, when the relaunches are done and which
            // node writes the flight-recorder dump.
            let mut rolled_back: Option<(VInstant, VInstant, NodeId)> = None;
            if let Some(pos) = pending_failures
                .iter()
                .position(|f| f.at_iteration() == iter)
            {
                let fault = pending_failures.remove(pos);
                let detected_at = match fault {
                    // A crash is noticed at the master's next decision
                    // point (lost heartbeat / closed socket).
                    FaultEvent::Kill { .. } => decision_time,
                    // A hung pair never exits: the watchdog declares it
                    // failed only after `stall_timeout` of silence.
                    FaultEvent::Hang { .. } => {
                        self.metrics.stalls_detected.add(1);
                        // unreachable: validate() refuses a Hang fault
                        // when cfg.watchdog is None.
                        let wd = cfg.watchdog.expect("validate: hang requires watchdog");
                        decision_time + VDuration::from_secs_f64(wd.stall_timeout.as_secs_f64())
                    }
                    // unreachable: `partition` above sends every Delay to
                    // `delays`, never to `pending_failures`.
                    FaultEvent::Delay { .. } => unreachable!("delays never pend"),
                };
                recoveries += 1;
                self.metrics.recoveries.add(1);
                // A master-side event about the faulted node, not a pair.
                let at = Tag {
                    pair: COORD,
                    ..tag(fault.node(), 0, iter, generation)
                };
                if matches!(fault, FaultEvent::Hang { .. }) {
                    self.event(TraceKind::StallDetected, decision_time, decision_time, at);
                }
                let rollback = TraceKind::Rollback {
                    epoch: epoch as u64,
                };
                self.event(rollback, detected_at, detected_at, at);
                let relaunched = self.recover_from_failure::<J>(
                    fault.node(),
                    detected_at,
                    &mut assignment,
                    static_dir,
                    &mut static_store,
                    &mut static_bytes,
                )?;
                rolled_back = Some((detected_at, relaunched, assignment[0]));
            } else if let Some(lb) = cfg
                .load_balance
                .filter(|lb| migrations < lb.max_migrations as u64 && n > 1)
            {
                // Load balancing (§3.4.2).
                if let Some((slow_pair, fast_node)) =
                    self.cluster
                        .pick_migration(&assignment, &pair_busy, lb.deviation)
                {
                    migrations += 1;
                    self.metrics.migrations.add(1);
                    // Record the migration epoch next to the snapshots
                    // (post-mortem parity with native).
                    let marker = imr_dfs::migration_marker(output_dir, migrations, epoch);
                    let mut off_path = TaskClock::default();
                    self.dfs.put_atomic(
                        &marker,
                        Bytes::from_static(b"migrated"),
                        fast_node,
                        &mut off_path,
                    )?;
                    let migration = TraceKind::Migration {
                        from: assignment[slow_pair].index() as u32,
                        to: fast_node.index() as u32,
                    };
                    let at = tag(assignment[slow_pair], slow_pair, iter, generation);
                    self.event(migration, decision_time, decision_time, at);
                    let relaunched = self.migrate_pair::<J>(
                        slow_pair,
                        fast_node,
                        decision_time,
                        &mut assignment,
                        static_dir,
                        &mut static_store,
                        &mut static_bytes,
                    )?;
                    rolled_back = Some((decision_time, relaunched, fast_node));
                }
            }
            if let Some((began, relaunched, dump_node)) = rolled_back {
                // Every pair reloads its state as at launch, each on its
                // own clock from when the rollback began; all resume
                // once the last reload and relaunch are done.
                let mut clocks = vec![TaskClock::starting_at(began); n];
                PairStates {
                    own: state_store,
                    global: global_state,
                    bytes: state_bytes,
                } = self.load_states(state_dirs, epoch, one2all, &assignment, &mut clocks)?;
                let resume = clocks
                    .iter()
                    .map(TaskClock::now)
                    .fold(relaunched, VInstant::max);
                state_ready.fill(resume);
                state_complete.fill(resume);
                self.flight_dump(output_dir, flight_seq, dump_node)?;
                flight_seq += 1;
                generation += 1;
                report.iteration_done.truncate(epoch);
                distances.truncate(epoch);
                aux_values.truncate(epoch.saturating_sub(1));
                iter = epoch + 1;
                continue;
            }

            iter += 1;
        }

        let iterations = report.iteration_done.len();

        // ---- Final output dump (once, at termination; Fig. 1b) -------
        let starts: Vec<VInstant> = last_reduce_done
            .iter()
            .map(|done| (*done).max(decision_time))
            .collect();
        let (final_state, finished) =
            self.dump_final(output_dir, state_store, &assignment, &starts)?;
        report.finished = finished;
        report.metrics = self.metrics.snapshot();

        let outcome = IterOutcome {
            report,
            final_state,
            iterations,
            distances,
            migrations,
            recoveries,
        };
        Ok((outcome, aux_values))
    }

    /// Runs an [`Accumulative`](crate::Accumulative) job in the
    /// barrier-free delta-accumulative mode on the simulated cluster.
    ///
    /// The simulator runs the native backends' loop — core's
    /// [`delta_loop`](crate::pair::delta_loop), one thread per pair — on
    /// virtual clocks, the pairs taking turns in a fixed order
    /// (`sim_env.rs`). So `final_state`, `distances` and the canonical
    /// trace-kind sequence match across engines by construction, and
    /// repeated simulated runs are bit-reproducible.
    ///
    /// `iterations` counts termination-check epochs (`cfg.check_every`
    /// rounds each). Fault injection is rejected here — the mode's
    /// recovery path is supervised re-execution, exercised on the
    /// native backends.
    pub fn run_accumulative<J: crate::Accumulative>(
        &self,
        job: &J,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        cfg.validate(faults)?;
        refuse_tcp(cfg)?;
        if !cfg.accumulative {
            return Err(EngineError::Config(
                "run_accumulative needs cfg.with_accumulative_mode()".into(),
            ));
        }
        if !faults.is_empty() {
            return Err(EngineError::Config(
                "fault injection under accumulative mode requires the native backend".into(),
            ));
        }
        check_slots(cfg.num_tasks, self.pair_capacity())?;
        check_inputs(&self.dfs, cfg, state_dir, static_dir)?;
        self.metrics.jobs_launched.add(1);
        Turns::run_delta(self, job, cfg, [state_dir, static_dir, output_dir])
    }

    fn label(&self, cfg: &IterConfig) -> String {
        if cfg.mapping == Mapping::One2One && cfg.sync_maps {
            "iMapReduce (sync.)".to_owned()
        } else {
            "iMapReduce".to_owned()
        }
    }

    /// Launch-time load of a part a pair keeps on its local store: DFS
    /// read, decode and the one-time sort, charged to `clock`. Returns
    /// the records and their encoded size.
    fn load_sorted_part<K: Codec, V: Codec>(
        &self,
        dir: &str,
        p: usize,
        node: NodeId,
        clock: &mut TaskClock,
    ) -> Result<(Vec<(K, V)>, u64), EngineError> {
        let cost = &self.cluster.cost;
        let part: Vec<(K, V)> = read_part(&self.dfs, dir, p, node, clock)?;
        let bytes = self.dfs.len(&part_path(dir, p))?;
        clock.advance(cost.serde_per_byte * bytes);
        clock.advance(cost.sort_time(part.len() as u64, self.cluster.speed(node)));
        Ok((part, bytes))
    }

    /// The one loader of pair state, at launch and on every rollback:
    /// from the job's state directory (`[state_dir, output_dir]`) at
    /// `epoch` 0, from the snapshot of `epoch` after it, pair `p`
    /// reading on `clocks[p]`. Under one2one pair `p` reads part `p`.
    /// Under one2all every pair reads every part and merges them as the
    /// hand-off does, keeping part `p` as its own: in a snapshot that is
    /// its last reduce output, and at epoch 0 the reduce side does not
    /// read it. Only the DFS reads are charged.
    fn load_states<K: Key, S: Value>(
        &self,
        [state_dir, output_dir]: [&str; 2],
        epoch: usize,
        one2all: bool,
        assignment: &[NodeId],
        clocks: &mut [TaskClock],
    ) -> Result<PairStates<K, S>, EngineError> {
        let dir = match epoch {
            0 => state_dir.to_owned(),
            _ => imr_dfs::snapshot_dir(output_dir, epoch),
        };
        let n = assignment.len();
        let mut states = PairStates {
            own: Vec::with_capacity(n),
            global: Vec::new(),
            bytes: Vec::with_capacity(n),
        };
        for (p, clock) in clocks.iter_mut().enumerate() {
            let parts = if one2all {
                0..num_parts(&self.dfs, &dir)
            } else {
                p..p + 1
            };
            let mine = p - parts.start;
            let mut read: Vec<Vec<(K, S)>> = Vec::with_capacity(parts.len());
            let mut bytes = 0u64;
            for i in parts {
                read.push(read_part(&self.dfs, &dir, i, assignment[p], clock)?);
                bytes += self.dfs.len(&part_path(&dir, i))?;
            }
            if one2all {
                states.global = merge_broadcast(&read);
            }
            let own = read.into_iter().nth(mine).unwrap_or_default();
            states.own.push(own);
            states.bytes.push(bytes);
        }
        Ok(states)
    }

    /// The shuffle fetch of task `q`: its segment from every task `p`,
    /// in task order, each sent at `sent_at[p]`. Moves `clock` to the
    /// last arrival (the shuffle barrier), then charges deserialising
    /// what arrived. Returns the segments and the instant the barrier
    /// cleared.
    pub(crate) fn fetch_segments(
        &self,
        segments: &[Vec<Bytes>],
        q: usize,
        sent_at: &[VInstant],
        assignment: &[NodeId],
        clock: &mut TaskClock,
    ) -> (Vec<Bytes>, VInstant) {
        let inbound: Vec<Bytes> = segments.iter().map(|from| from[q].clone()).collect();
        let node = assignment[q];
        let mut fetched = 0u64;
        for (p, seg) in inbound.iter().enumerate() {
            fetched += seg.len() as u64;
            clock.merge(self.arrival(sent_at[p], assignment[p], node, seg.len() as u64));
        }
        let cleared = clock.now();
        clock.advance(self.cluster.cost.serde_per_byte * fetched);
        (inbound, cleared)
    }

    /// When a segment of `bytes` sent at `sent` from node `from` lands on
    /// node `to`; counts it as local or remote shuffle traffic.
    pub(crate) fn arrival(&self, sent: VInstant, from: NodeId, to: NodeId, bytes: u64) -> VInstant {
        let metrics = &self.metrics;
        let traffic = if from == to {
            &metrics.shuffle_local_bytes
        } else {
            &metrics.shuffle_remote_bytes
        };
        traffic.add(bytes);
        sent + self.cluster.transfer_time(from, to, bytes)
    }

    /// One2all hand-off: reduce `q` ships `bytes[q]` to every map task
    /// once done; map `p`'s next activation is the barrier over all the
    /// broadcasts it receives.
    fn broadcast_gates(
        &self,
        reduce_done: &[VInstant],
        bytes: &[u64],
        assignment: &[NodeId],
    ) -> Vec<VInstant> {
        let flush = self.cluster.cost.handoff_flush;
        (0..assignment.len())
            .map(|p| {
                let mut gate = VInstant::EPOCH;
                for q in 0..assignment.len() {
                    let transfer =
                        self.cluster
                            .transfer_time(assignment[q], assignment[p], bytes[q]);
                    gate = gate.max(reduce_done[q] + flush + transfer);
                    if assignment[q] != assignment[p] {
                        self.metrics.broadcast_bytes.add(bytes[q]);
                    }
                }
                gate
            })
            .collect()
    }

    /// The final output dump (once, at termination; Fig. 1b): pair `q`
    /// commits `parts[q]` to `output_dir` starting at `starts[q]`.
    /// Returns the key-sorted union and when the last commit landed.
    pub(crate) fn dump_final<K: Codec + Ord + Clone, S: Codec + Clone>(
        &self,
        output_dir: &str,
        parts: Vec<Vec<(K, S)>>,
        assignment: &[NodeId],
        starts: &[VInstant],
    ) -> Result<(Vec<(K, S)>, VInstant), EngineError> {
        let mut finished = VInstant::EPOCH;
        let mut final_state: Vec<(K, S)> = Vec::new();
        for (q, data) in parts.into_iter().enumerate() {
            let mut clock = TaskClock::starting_at(starts[q]);
            self.dfs.put(
                &part_path(output_dir, q),
                encode_pairs(&data),
                assignment[q],
                &mut clock,
            )?;
            finished = finished.max(clock.now());
            final_state.extend(data);
        }
        sort_run(&mut final_state);
        Ok((final_state, finished))
    }

    /// Writes checkpoint `epoch` — one part per pair, atomically — and
    /// retires the snapshot of the `previous` epoch (0: none). The paper
    /// performs checkpointing in parallel with the iterative process, so
    /// the writes go to throwaway clocks: they cost bytes (counted) but
    /// no critical-path time.
    #[allow(clippy::too_many_arguments)]
    fn write_checkpoint(
        &self,
        output_dir: &str,
        epoch: usize,
        payloads: impl Iterator<Item = Bytes>,
        previous: usize,
        assignment: &[NodeId],
        at: VInstant,
        generation: u32,
    ) -> Result<(), EngineError> {
        let dir = imr_dfs::snapshot_dir(output_dir, epoch);
        let checkpoint = TraceKind::Checkpoint {
            epoch: epoch as u64,
        };
        for (q, payload) in payloads.enumerate() {
            let before = self.metrics.dfs_write_bytes.get();
            let mut off_path = TaskClock::default();
            self.dfs
                .put_atomic(&part_path(&dir, q), payload, assignment[q], &mut off_path)?;
            let written = self.metrics.dfs_write_bytes.get() - before;
            self.metrics.checkpoint_bytes.add(written);
            // The span is what the part's disk write costs; it starts
            // at `at` on every pair because the writes run in parallel.
            let done = at + self.cluster.cost.disk_time(written);
            self.event(
                checkpoint,
                at,
                done,
                tag(assignment[q], q, epoch, generation),
            );
        }
        if previous > 0 {
            imr_mapreduce::io::delete_dir(&self.dfs, &imr_dfs::snapshot_dir(output_dir, previous));
        }
        Ok(())
    }

    /// Ends pair `at.pair`'s iteration: the hand-off span (`handoff`,
    /// from reduce done until the new state left the reduce task), then
    /// IterEnd.
    fn end_iteration(&self, handoff: TraceKind, reduce_done: VInstant, sent: VInstant, at: Tag) {
        self.event(handoff, reduce_done, sent, at);
        self.event(TraceKind::IterEnd, sent, sent, at);
    }

    /// Handles a worker failure: marks the node dead in the DFS,
    /// reassigns its pairs to surviving nodes with spare capacity and
    /// charges the relaunch + static reload. Returns the instant the
    /// relaunched pairs are up; the state reload is the rollback's.
    fn recover_from_failure<J: IterativeJob>(
        &self,
        dead: NodeId,
        detected_at: VInstant,
        assignment: &mut [NodeId],
        static_dir: &str,
        static_store: &mut [Vec<(J::K, J::T)>],
        static_bytes: &mut [u64],
    ) -> Result<VInstant, EngineError> {
        self.dfs.fail_node(dead);
        let n = assignment.len();
        let mut per_node = vec![0usize; self.cluster.len()];
        for node in assignment.iter().filter(|node| **node != dead) {
            per_node[node.index()] += 1;
        }
        let mut resume = detected_at;
        for p in 0..n {
            if assignment[p] != dead {
                continue;
            }
            // Pick the fastest surviving node with spare pair capacity.
            let target = self
                .cluster
                .node_ids()
                .filter(|&nid| nid != dead)
                .filter(|&nid| per_node[nid.index()] < self.node_pair_capacity(nid))
                .max_by(|a, b| {
                    let (sa, sb) = (self.cluster.speed(*a), self.cluster.speed(*b));
                    sa.total_cmp(&sb).then(b.0.cmp(&a.0))
                })
                .ok_or_else(|| {
                    EngineError::Config(format!(
                        "no surviving node has a free pair slot to host pair {p} after {dead:?} failed"
                    ))
                })?;
            per_node[target.index()] += 1;
            let relaunched = self.migrate_pair::<J>(
                p,
                target,
                detected_at,
                assignment,
                static_dir,
                static_store,
                static_bytes,
            )?;
            resume = resume.max(relaunched);
        }
        Ok(resume)
    }

    /// Performs the three-step migration of §3.4.2: kill the pair on
    /// the slow worker, launch a new pair on the fast worker (loading
    /// state *and* static data from DFS), and roll everyone back.
    #[allow(clippy::too_many_arguments)]
    fn migrate_pair<J: IterativeJob>(
        &self,
        pair: usize,
        target: NodeId,
        detected_at: VInstant,
        assignment: &mut [NodeId],
        static_dir: &str,
        static_store: &mut [Vec<(J::K, J::T)>],
        static_bytes: &mut [u64],
    ) -> Result<VInstant, EngineError> {
        assignment[pair] = target;
        self.metrics.tasks_launched.add(2);
        let mut clock = TaskClock::starting_at(detected_at + self.cluster.cost.task_launch);
        let stat: Vec<(J::K, J::T)> = read_part(&self.dfs, static_dir, pair, target, &mut clock)?;
        static_bytes[pair] = self.dfs.len(&part_path(static_dir, pair))?;
        static_store[pair] = stat;
        Ok(clock.now())
    }
}

/// The simulator models its own network: a run configured for the
/// native TCP fabric would silently simulate something else.
fn refuse_tcp(cfg: &IterConfig) -> Result<(), EngineError> {
    if cfg.transport == TransportKind::Tcp {
        return Err(EngineError::Config(
            "the simulation engine models its own network: with_tcp_transport \
             (and chaos, which needs it) applies to the native backend only"
                .into(),
        ));
    }
    Ok(())
}
