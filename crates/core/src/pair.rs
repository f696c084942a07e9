//! The per-iteration loop of one persistent map/reduce pair, written
//! once for every engine: the simulator's `SimEnv` (virtual time), the
//! in-process thread backend and the multi-process TCP backend.
//!
//! What a pair computes each iteration is not written here: the map
//! side and the reduce side are the iteration kernel
//! ([`MapScratch::map_side`] / [`reduce_side`]), and so is the ⊕ delta
//! round of the accumulative mode (`MapScratch::delta_out` /
//! `delta_in`). This module owns the loop around them: spans, the
//! blocking shuffle, heartbeats, checkpoints, scripted faults — and the
//! data-path counters outside the kernel's, except the shuffle's byte
//! counts, which only the fabric can split into local and remote. All
//! interaction with the rest of the job goes through the [`PairEnv`]
//! trait, which carries one of each thing: one clock
//! ([`PairEnv::now_ns`], with the [`PairEnv::cost`] hook the kernel
//! charges its work to), one segment class (the inherited
//! [`Transport`], for shuffle and delta rounds alike), one collective
//! ([`PairEnv::allgather`] — the barrier, the one2all exchange and the
//! termination vote are the same task-ordered all-gather of different
//! payloads), DFS access for loads and checkpoints, one heartbeat, the
//! hang primitive, one event sink, and two phase hooks
//! ([`PairEnv::stretch`] at the end of the map and of the reduce,
//! [`PairEnv::handed_off`] after the hand-off) where an environment
//! charges what a phase costs beyond the kernel: natively a slow node's
//! sleep, on the simulator stragglers, delays and the hand-off's
//! transfer. So the exact same loop runs on a thread over channels and
//! shared slots, in a separate OS process over a TCP connection to the
//! coordinator, or on a virtual clock.
//!
//! The loop reports, it does not record: each iteration's
//! `(distance, had a previous snapshot)` leaves through
//! [`PairEnv::beat`] and each snapshot through
//! [`PairEnv::write_checkpoint`], and the environment keeps the
//! per-iteration history, the completion stamps and the checkpoint
//! progress (natively the generation the supervisor decides from). All
//! the loop hands back itself is its [`PairOutcome`].
//!
//! Not part of the public API: the module is exported for `imr-native`.
//!
//! Determinism note: collective payloads cross [`PairEnv`] as codec
//! bytes. The workspace codec is lossless (f64 travels as its full
//! 8-byte pattern), so decode∘encode is the identity: the broadcast
//! state every engine reassembles and the votes it folds (in task
//! order, with [`fold_votes`]) are bit-identical to a typed
//! shared-memory hand-off.

use crate::accum::{Accumulative, DeltaStore};
use crate::api::{IterativeJob, Mapping};
use crate::aux::AuxPhase;
use crate::config::{IterConfig, Mode};
use crate::kernel::{delta_in, fold_votes, merge_broadcast, reduce_side, MapScratch, MapState};
use crate::static_part::StaticPart;
use bytes::Bytes;
use imr_dfs::{snapshot_dir, Dfs, DfsError};
use imr_mapreduce::io::part_path;
use imr_mapreduce::EngineError;
pub use imr_net::proto::{PairCfg, PairDirs, PairMode, PairOutcome, PairPlan};
use imr_net::{Closed, Transport};
use imr_records::{decode_pairs, encode_pairs, pairs_encoded_len, Codec, CodecError, ShuffleCost};
use imr_simcluster::{MetricsHandle, NodeId, TaskClock};
pub use imr_telemetry::Phase;
use imr_trace::{TraceEvent, TraceKind};
use std::time::Duration;

/// The per-pair slice of a validated `cfg`, the same on both fabrics
/// (the TCP backend ships it in the setup frame). `state_parts` is the
/// number of `part-*` files under the state directory, which a one2all
/// epoch-0 load reads all of.
pub fn pair_cfg(cfg: &IterConfig<dyn Mode>, state_parts: usize) -> PairCfg {
    let threshold = cfg.termination.distance_threshold;
    let mode = match (cfg.mode.iterative(), cfg.mode.delta()) {
        (_, Some(delta)) => PairMode::Delta {
            // `validate` refuses the delta mode without a threshold; a
            // zero one is never undercut, so the run would stop at
            // `max_iters` as an iterative run without a threshold does.
            eps: threshold.unwrap_or(0.0),
            share: delta.share,
            check_every: delta.check_every,
            warm: delta.warm,
        },
        (Some(m), None) if m.mapping == Mapping::One2All => PairMode::One2All {
            threshold,
            state_parts,
        },
        (Some(m), None) if m.sync_maps => PairMode::Sync { threshold },
        _ => PairMode::Async { threshold },
    };
    PairCfg {
        n: cfg.num_tasks,
        max_iters: cfg.termination.max_iterations,
        checkpoint_interval: cfg.checkpoint_interval,
        mode,
    }
}

/// A run's report label: the `engine`'s name, the mode's suffix
/// (" (sync.)" for the paper's synchronous one2one variant, " (delta)"
/// for the delta mode) and the `fabric`'s (" [tcp]" over worker
/// processes, else empty).
pub fn run_label(engine: &str, mode: &PairMode, fabric: &str) -> String {
    let suffix = match mode {
        PairMode::Sync { .. } => " (sync.)",
        PairMode::Delta { .. } => " (delta)",
        PairMode::Async { .. } | PairMode::One2All { .. } => "",
    };
    format!("{engine}{suffix}{fabric}")
}

/// Environment-side failure for DFS-backed operations: either the
/// generation is being torn down (recoverable; the pair aborts), or a
/// real storage/codec failure (fatal; the run errors out).
pub enum EnvFail {
    Closed,
    Error(EngineError),
}

impl From<EngineError> for EnvFail {
    fn from(e: EngineError) -> Self {
        EnvFail::Error(e)
    }
}

impl From<imr_dfs::DfsError> for EnvFail {
    fn from(e: imr_dfs::DfsError) -> Self {
        EnvFail::Error(e.into())
    }
}

impl From<CodecError> for EnvFail {
    fn from(e: CodecError) -> Self {
        EnvFail::Error(e.into())
    }
}

impl From<Closed> for EnvFail {
    fn from(_: Closed) -> Self {
        EnvFail::Closed
    }
}

/// Everything a pair needs from the outside world, beyond the segment
/// [`Transport`] it inherits.
pub trait PairEnv: Transport {
    /// What the kernel charges its work to: `()` on the native fabrics,
    /// the pair's virtual clock on the simulator.
    type Cost<'c>: ShuffleCost
    where
        Self: 'c;
    /// The pair's clock, in nanoseconds since the run started: wall time
    /// natively, virtual time on the simulator. Trace stamps and busy
    /// time read it.
    fn now_ns(&self) -> u64;
    /// The [`ShuffleCost`] hook for the kernel call at hand.
    fn cost(&mut self) -> Self::Cost<'_>;
    /// Has the generation been poisoned for teardown?
    fn is_poisoned(&self) -> bool;
    /// The one collective: contribute `mine`, receive every pair's
    /// contribution of this round in task order. A round that completed
    /// before the generation was poisoned still returns its parts.
    fn allgather(&mut self, mine: Bytes) -> Result<Vec<Bytes>, Closed>;
    /// Read the raw bytes of `<dir>/part-<part>`.
    fn read_part(&mut self, dir: &str, part: usize) -> Result<Bytes, EnvFail>;
    /// Persist the encoded snapshot of `iteration` atomically, next to
    /// the distance history through `iteration` the generation has
    /// recorded from this pair's [`PairEnv::beat`]s (so a freshly
    /// restarted coordinator can rebuild full per-iteration records on
    /// resume). Always follows the beat of the same iteration.
    fn write_checkpoint(&mut self, iteration: usize, payload: Bytes) -> Result<(), EnvFail>;
    /// Report the completion of `iteration`: the heartbeat the
    /// watchdog/balancer keys on, and the iteration's local distance
    /// sample, which the generation appends to this pair's record. The
    /// TCP environment also delivers, in the same frame, what the loop
    /// counted on the worker's registry and the events it emitted since
    /// the previous beat.
    fn beat(&mut self, iteration: usize, busy_secs: f64, d: f64, has_prev: bool);
    /// Go silent until the generation is poisoned (scripted hang).
    fn hang(&mut self);
    /// Emit one event — the loop's only observability output. The loop
    /// fills the task, iteration and timestamps (nanoseconds since the
    /// run's `started` instant); the environment stamps its node and
    /// generation tags and hands the event to the run's
    /// [`Observer`](crate::Observer) (directly, or by way of the coordinator).
    fn emit(&mut self, event: TraceEvent);
    /// The end of `phase` (map or reduce) of iteration `it`, after the
    /// pair computed for `busy` so far this iteration: applies the pair's
    /// emulated slowdown and returns `busy`, stretched — the load the
    /// heartbeat reports, which the balancer and watchdog key on. By
    /// default only the reduce phase sleeps, so the slowdown lands inside
    /// its span: a node speed below 1.0 stretches the iteration's busy
    /// time proportionally (heterogeneous hardware), and a scripted delay
    /// adds its pause.
    fn stretch(&mut self, phase: Phase, it: usize, busy: Duration, plan: &PairPlan) -> Duration {
        if phase != Phase::Reduce {
            return busy;
        }
        let mut stretched = busy;
        if plan.speed < 1.0 {
            let extra = Duration::from_secs_f64(busy.as_secs_f64() * (1.0 / plan.speed - 1.0));
            std::thread::sleep(extra);
            stretched += extra;
        }
        for &(at, millis) in &plan.delays {
            if at == it {
                let pause = Duration::from_millis(millis);
                std::thread::sleep(pause);
                stretched += pause;
            }
        }
        stretched
    }
    /// The reduce side of iteration `it` handed its new state, `bytes`
    /// encoded, back to the map side: returns when the state left the
    /// reduce task ([`PairEnv::now_ns`] time), where the hand-off span
    /// ends. By default, now.
    fn handed_off(&mut self, _it: usize, _bytes: u64) -> u64 {
        self.now_ns()
    }
}

// ---- What both environments do the same way, written once ----------

/// Reads the raw bytes of `<dir>/part-<part>`.
pub fn read_part_raw(dfs: &Dfs, dir: &str, part: usize) -> Result<Bytes, DfsError> {
    dfs.read(&part_path(dir, part), NodeId(0), &mut TaskClock::default())
}

/// What a panic in job code said, for the worker error that replaces it
/// (so peers unwind instead of hanging).
pub fn panic_message(q: usize, payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panicked".to_owned());
    format!("pair {q} panicked: {msg}")
}

/// Everything one generation of one pair's loop runs against: its
/// identity and configuration, and the environment it reports to.
pub struct PairCtx<'a, J: IterativeJob, E> {
    pub q: usize,
    pub job: &'a J,
    pub cfg: &'a PairCfg,
    pub dirs: &'a PairDirs,
    pub plan: &'a PairPlan,
    /// Checkpoint epoch this generation resumes from (0 = job input).
    pub epoch: usize,
    pub metrics: &'a MetricsHandle,
    /// The auxiliary phase of §5.3 (one2all only), a step of every
    /// iteration from the second on.
    pub aux: Option<&'a dyn AuxPhase<J::K, J::S>>,
    pub env: &'a mut E,
}

/// The scaffolding `pair_loop` and `delta_loop` share around their
/// different per-iteration bodies.
impl<J: IterativeJob, E: PairEnv> PairCtx<'_, J, E> {
    fn now_ns(&self) -> u64 {
        self.env.now_ns()
    }

    /// Emits an instantaneous event now; returns its stamp.
    fn mark(&mut self, kind: TraceKind, it: usize) -> u64 {
        let now = self.now_ns();
        self.span(kind, it, now, now);
        now
    }

    fn span(&mut self, kind: TraceKind, it: usize, start_ns: u64, end_ns: u64) {
        // The environment stamps its node and generation tags.
        let event = TraceEvent::new(kind).spanning(start_ns, end_ns);
        self.env.emit(event.tagged(0, self.q as u32, it as u32, 0));
    }

    /// Reads and decodes `<dir>/part-<part>` of a state directory (the
    /// static part is held as read: [`StaticPart`]).
    fn load<K: Codec, V: Codec>(&mut self, dir: &str, part: usize) -> Result<Vec<(K, V)>, EnvFail> {
        Ok(decode_pairs(self.env.read_part(dir, part)?)?)
    }

    /// Starts iteration `it`: bails out if the generation is being torn
    /// down (peer death or a monitor intervention). In async mode no
    /// barrier wait may be reached before the next blocking shuffle op,
    /// so the poison check is explicit: the unwind must cascade even
    /// when this pair's own links are still healthy.
    fn begin_iter(&mut self, it: usize) -> Result<u64, EnvFail> {
        if self.env.is_poisoned() {
            return Err(EnvFail::Closed);
        }
        // The barrier is a gather of nothing; one2all implies it.
        if let PairMode::Sync { .. } | PairMode::One2All { .. } = self.cfg.mode {
            let wait_start_ns = self.now_ns();
            self.env.allgather(Bytes::new())?;
            let released_ns = self.now_ns();
            self.span(TraceKind::BarrierWait, it, wait_start_ns, released_ns);
        }
        Ok(self.mark(TraceKind::IterStart, it))
    }

    /// The termination vote (§3.1.2): gathers every pair's local
    /// `(distance, had a previous snapshot)` and folds them in task
    /// order. Every pair computes the same sum over the same bytes, so
    /// all pairs reach the same verdict without a master round-trip.
    fn vote(&mut self, d: f64, has_prev: bool) -> Result<(f64, bool), EnvFail> {
        let mut votes = Vec::with_capacity(self.cfg.n);
        for mut part in self.env.allgather((d, has_prev).to_bytes())? {
            votes.push(<(f64, bool)>::decode(&mut part)?);
        }
        Ok(fold_votes(votes))
    }

    /// Ends iteration `it` at `end_ns`: IterEnd event (which the
    /// observer samples on), then the completion report.
    fn end_iter(&mut self, it: usize, end_ns: u64, busy: Duration, d: f64, has_prev: bool) {
        self.span(TraceKind::IterEnd, it, end_ns, end_ns);
        self.env.beat(it, busy.as_secs_f64(), d, has_prev);
    }

    /// Checkpointing (§3.4.1): persists `snapshot()` after iteration
    /// `it` when the interval says so — never on the final iteration.
    /// Written atomically, so a crash mid-checkpoint leaves the previous
    /// epoch intact.
    fn checkpoint(
        &mut self,
        it: usize,
        done: bool,
        snapshot: impl FnOnce() -> Bytes,
    ) -> Result<(), EnvFail> {
        let every = self.cfg.checkpoint_interval;
        if done || every == 0 || !it.is_multiple_of(every) {
            return Ok(());
        }
        let payload = snapshot();
        self.metrics.checkpoint_bytes.add(payload.len() as u64);
        let write_start_ns = self.now_ns();
        self.env.write_checkpoint(it, payload)?;
        let written_ns = self.now_ns();
        let checkpoint = TraceKind::Checkpoint { epoch: it as u64 };
        self.span(checkpoint, it, write_start_ns, written_ns);
        Ok(())
    }

    /// Scripted faults, at one decision point on every engine: a pair
    /// dies right after completing iteration `it`, never on the final
    /// iteration (the caller's done-check fires first). A
    /// kill exits immediately; a crash hook exits *abruptly* (no outcome
    /// report — the caller terminates the process); a hang goes silent —
    /// links held open, no heartbeats — until the watchdog poisons the
    /// generation.
    fn scripted_exit(&mut self, it: usize) -> Option<PairOutcome> {
        if self.plan.kills.contains(&it) {
            return Some(PairOutcome::Induced { at_iteration: it });
        }
        if self.plan.crash_after == Some(it) {
            return Some(PairOutcome::Vanish);
        }
        if self.plan.hangs.contains(&it) {
            self.env.hang();
            return Some(PairOutcome::Stalled { at_iteration: it });
        }
        None
    }
}

/// A closed transport or poisoned generation is a recoverable unwind
/// (`Aborted`), not an error; only real failures (DFS, codec, input
/// validation) surface as `Err`.
fn settle(result: Result<PairOutcome, EnvFail>) -> Result<PairOutcome, EngineError> {
    match result {
        Ok(outcome) => Ok(outcome),
        Err(EnvFail::Closed) => Ok(PairOutcome::Aborted),
        Err(EnvFail::Error(e)) => Err(e),
    }
}

/// The per-iteration loop. `Err` carries real failures (DFS, codec);
/// scripted exits and peer-death unwinds come back as `Ok` outcomes.
pub fn pair_loop<J: IterativeJob, E: PairEnv>(
    mut ctx: PairCtx<'_, J, E>,
) -> Result<PairOutcome, EngineError> {
    settle(map_reduce_iterations(&mut ctx))
}

fn map_reduce_iterations<J: IterativeJob, E: PairEnv>(
    ctx: &mut PairCtx<'_, J, E>,
) -> Result<PairOutcome, EnvFail> {
    let (q, job, cfg, dirs) = (ctx.q, ctx.job, ctx.cfg, ctx.dirs);
    let (n, threshold) = (cfg.n, cfg.mode.threshold());
    let one2all = matches!(cfg.mode, PairMode::One2All { .. });
    ctx.metrics.tasks_launched.add(2);

    // ---- One-time load: static partitions + state at this epoch ------
    // Epoch 0 is the job's initial input; epoch e > 0 is the snapshot
    // the pairs wrote at the end of iteration e (one part per pair). A
    // static part stays the bytes it was read as; each record is decoded
    // just before its map call. A job of several phases holds one part
    // per phase: phase p's is part p·n + q.
    let phases = job.phases();
    let mut stats = Vec::with_capacity(phases);
    for phase in 0..phases {
        let stat = StaticPart::load(ctx.env.read_part(&dirs.static_dir, phase * n + q)?)?;
        // The join walks it in key order: sorted once, at load (§3.2.2).
        ctx.env.cost().sorted(stat.len() as u64);
        stats.push(stat);
    }
    let (source, parts) = match cfg.mode {
        _ if ctx.epoch > 0 => (snapshot_dir(&dirs.output_dir, ctx.epoch), n),
        PairMode::One2All { state_parts, .. } => (dirs.state_dir.clone(), state_parts),
        _ => (dirs.state_dir.clone(), n),
    };
    // `state` is the pair's reduce-side state, its part of a snapshot:
    // its partition under one2one, its last reduce output under
    // one2all, where every map task also holds the full (small)
    // broadcast state `global`. In a snapshot part i is pair i's reduce
    // output, and the broadcast state is merged from them exactly as the
    // live hand-off merges it; at epoch 0 part q is input, which the
    // reduce side does not read. `state_bytes` is the encoded size of
    // the state the map reads.
    let mut outs: Vec<Vec<(J::K, J::S)>> = Vec::new();
    let (mut state, mut global) = if one2all {
        for i in 0..parts {
            outs.push(ctx.load(&source, i)?);
        }
        let global = merge_broadcast(&outs);
        (outs.get(q).cloned().unwrap_or_default(), global)
    } else {
        let state = ctx.load(&source, q)?;
        ctx.env.cost().sorted(state.len() as u64);
        (state, Vec::new())
    };
    let mut state_bytes = pairs_encoded_len(if one2all { &global } else { &state }) as u64;
    // The pair is persistent and so are its map-side buffers: sized by
    // the first iteration, emptied — not freed — by every later one,
    // gone with the generation.
    let mut map_scratch = MapScratch::default();

    for it in (ctx.epoch + 1)..=cfg.max_iters {
        let iter_start_ns = ctx.begin_iter(it)?;

        // ---- Map phase -----------------------------------------------
        let input = if one2all {
            MapState::Broadcast(&global)
        } else {
            MapState::Own(&state)
        };
        let (metrics, stat) = (ctx.metrics, &mut stats[(it - 1) % phases]);
        let static_bytes = stat.encoded_len() as u64;
        let mapped = map_scratch.map_side(job, input, stat, n, q, metrics, &mut ctx.env.cost())?;
        let records = mapped.records_in + mapped.emitted;
        let read = state_bytes + static_bytes;
        ctx.env.cost().mapped(records, read, mapped.spill_bytes);
        // Busy time = compute only (map + reduce spans), excluding
        // shuffle blocking — the load signal §3.4.2's balancer keys on.
        let busy = Duration::from_nanos(ctx.now_ns() - iter_start_ns);
        let mut busy = ctx.env.stretch(Phase::Map, it, busy, ctx.plan);
        let map_end_ns = ctx.now_ns();
        ctx.span(TraceKind::MapPhase, it, iter_start_ns, map_end_ns);
        // Sends sit outside the busy span: a blocked send is
        // back-pressure from a slow consumer, not this pair's load.
        for (dest, seg) in mapped.segments.into_iter().enumerate() {
            ctx.env.send(dest, seg)?;
        }

        // ---- Reduce phase --------------------------------------------
        // Drain peers in task order: the kernel's merge breaks key ties
        // by source index. Blocking receives stay outside the busy span.
        let mut inbound: Vec<Bytes> = Vec::with_capacity(n);
        for src in 0..n {
            inbound.push(ctx.env.recv(src)?);
        }
        let reduce_start_ns = ctx.now_ns();
        let fetched = inbound.iter().map(|seg| seg.len() as u64).sum();
        ctx.env.cost().processed(0, fetched);
        // Under one2all the previous snapshot is the pair's last reduce
        // output, which iteration 1 does not have; a phased job's state
        // is only what this phase's reduce produces.
        let prev = (phases == 1 && (!one2all || it > 1)).then_some(state.as_slice());
        let measure = threshold.is_some();
        let reduced = reduce_side(
            job,
            inbound,
            prev,
            one2all,
            measure,
            metrics,
            &mut ctx.env.cost(),
        )?;
        let (d, has_prev) = (reduced.distance, reduced.has_prev);
        let new_state = reduced.state;
        // Encoding it for the hand-off is reduce work too.
        let bytes = pairs_encoded_len(&new_state) as u64;
        ctx.env.cost().processed(0, bytes);
        busy += Duration::from_nanos(ctx.now_ns() - reduce_start_ns);
        let busy = ctx.env.stretch(Phase::Reduce, it, busy, ctx.plan);
        let reduce_end_ns = ctx.now_ns();
        ctx.span(TraceKind::ReducePhase, it, reduce_start_ns, reduce_end_ns);

        // ---- State hand-off back to the map side ---------------------
        let mut stop = false;
        let handoff = if one2all {
            ctx.metrics.broadcast_bytes.add(bytes * (n as u64 - 1));
            let prev_outs = std::mem::take(&mut outs);
            state_bytes = 0;
            for part in ctx.env.allgather(encode_pairs(&new_state))? {
                state_bytes += part.len() as u64;
                outs.push(decode_pairs(part)?);
            }
            global = merge_broadcast(&outs);
            // ---- Auxiliary phase (§5.3): every pair sums the partials
            // of every reduce partition, in task order, so all reach
            // the same verdict. Iteration 1 has no previous output.
            if let Some(aux) = ctx.aux.filter(|_| it > 1) {
                let mut total = 0.0;
                for (prev, cur) in prev_outs.iter().zip(&outs) {
                    total += aux.partial(prev, cur);
                }
                stop = aux.should_terminate(total);
            }
            TraceKind::Broadcast { bytes }
        } else {
            ctx.metrics.state_handoff_bytes.add(bytes);
            state_bytes = bytes;
            TraceKind::StateHandoff { bytes }
        };
        state = new_state;
        let handoff_end_ns = ctx.env.handed_off(it, bytes);
        ctx.span(handoff, it, reduce_end_ns, handoff_end_ns);
        ctx.end_iter(it, handoff_end_ns, busy, d, has_prev);

        // ---- Termination check (§3.1.2) ------------------------------
        let mut converged = false;
        if let Some(eps) = threshold {
            let (total, any_prev) = ctx.vote(d, has_prev)?;
            converged = any_prev && total < eps;
        }
        let done = converged || stop || it == cfg.max_iters;

        // The pair's snapshot is its reduce-side state at the end of
        // iteration `it` (the broadcast state is merged from all parts
        // on reload).
        ctx.checkpoint(it, done, || encode_pairs(&state))?;
        if done {
            return Ok(PairOutcome::Finished {
                final_data: encode_pairs(&state),
                iterations: it,
            });
        }
        if let Some(exit) = ctx.scripted_exit(it) {
            return Ok(exit);
        }
    }

    // Only reachable when the epoch already sits at max_iters (a
    // failure scripted for the final iteration never fires, so the
    // loop above always terminates through the done-check).
    Err(EngineError::Worker(format!(
        "pair {q} left the iteration loop without finishing"
    ))
    .into())
}

/// The barrier-free delta-accumulative loop (Maiter-style), sharing
/// `pair_loop`'s environment contract and supervision surface.
///
/// One "iteration" here is a termination-check epoch of
/// the mode's `check_every` rounds. Each round the pair applies its
/// highest-priority pending deltas, sends exactly one (possibly empty)
/// ⊕-merged delta segment to EVERY peer — the same send-all/recv-all
/// pattern the shuffle uses, so the buffered transport cannot deadlock
/// — and merges the segments received from every peer in source order.
/// With zero in-flight data at each round boundary and commutative ⊕,
/// the whole mode is deterministic: every engine computes bit-identical
/// stores.
///
/// The check epoch is also the unit of supervision: heartbeats,
/// checkpoints (the encoded `(key, (value, delta))` store), scripted
/// faults and the rollback protocol all count checks, which is what
/// lets `supervise` drive this loop unchanged.
pub fn delta_loop<J: Accumulative, E: PairEnv>(
    mut ctx: PairCtx<'_, J, E>,
) -> Result<PairOutcome, EngineError> {
    settle(delta_checks(&mut ctx))
}

fn delta_checks<J: Accumulative, E: PairEnv>(
    ctx: &mut PairCtx<'_, J, E>,
) -> Result<PairOutcome, EnvFail> {
    let (q, job, cfg, dirs) = (ctx.q, ctx.job, ctx.cfg, ctx.dirs);
    let n = cfg.n;
    let PairMode::Delta {
        eps,
        share,
        check_every,
        warm,
    } = cfg.mode
    else {
        // unreachable: every engine hands this loop the slice of an
        // `IterConfig<Delta>`, and a worker picks it by the mode.
        return Err(
            EngineError::Worker(format!("pair {q}: the delta loop needs the delta mode")).into(),
        );
    };
    ctx.metrics.tasks_launched.add(2);

    // ---- One-time load: static partition + delta store ---------------
    // Epoch 0 seeds the store from the initial state part; epoch e > 0
    // restores the full `(key, (value, delta))` snapshot written at
    // check `e`. The static part is read first and walked once the
    // store's keys are known: the walk checks that they line up.
    let static_raw = ctx.env.read_part(&dirs.static_dir, q)?;
    let mut store: DeltaStore<J::K, J::S> = if ctx.epoch > 0 {
        let snap = snapshot_dir(&dirs.output_dir, ctx.epoch);
        DeltaStore::decode(ctx.env.read_part(&snap, q)?)?
    } else if warm {
        // Warm start: the part holds the planner's
        // (key, (value, pending)) entries, read like any other part.
        DeltaStore::restore(ctx.load::<J::K, (J::S, J::S)>(&dirs.state_dir, q)?)?
    } else {
        DeltaStore::seed(job, &ctx.load::<J::K, J::S>(&dirs.state_dir, q)?)?
    };
    let keys = store.entries().iter().map(|(k, _)| k);
    let mut stat = StaticPart::load_aligned(q, static_raw, keys)?;
    // The join walks it in key order: sorted once, at load (§3.2.2).
    ctx.env.cost().sorted(stat.len() as u64);
    let mut scratch = MapScratch::default();

    for check in (ctx.epoch + 1)..=cfg.max_iters {
        ctx.begin_iter(check)?;
        let mut busy = 0;

        for _round in 0..check_every {
            // ---- Round phase A: select, apply, extract, send ---------
            let round_start_ns = ctx.now_ns();
            let metrics = ctx.metrics;
            let out = scratch.delta_out(
                job,
                &mut store,
                &mut stat,
                n,
                share,
                metrics,
                &mut ctx.env.cost(),
            )?;
            let round_end_ns = ctx.now_ns();
            busy += round_end_ns - round_start_ns;
            let round = TraceKind::DeltaRound { deltas: out.sent };
            ctx.span(round, check, round_start_ns, round_end_ns);
            // Sends sit outside the busy span (back-pressure, not load).
            for (dest, seg) in out.segments.into_iter().enumerate() {
                ctx.env.send(dest, seg)?;
            }
            // ---- Round phase B: receive from every peer, merge in
            // source order ---------------------------------------------
            let mut raw_segs: Vec<Bytes> = Vec::with_capacity(n);
            for src in 0..n {
                raw_segs.push(ctx.env.recv(src)?);
            }
            let merge_start_ns = ctx.now_ns();
            let fetched = raw_segs.iter().map(|seg| seg.len() as u64).sum();
            let merged = delta_in(job, &mut store, raw_segs)?;
            // Decoding what arrived and merging it, charged to the hook.
            ctx.env.cost().processed(merged, fetched);
            let merge_end_ns = ctx.now_ns();
            busy += merge_end_ns - merge_start_ns;
            ctx.span(TraceKind::DeltaMerge, check, merge_start_ns, merge_end_ns);
        }

        // ---- Global accumulated-progress termination check -----------
        let local = store.pending_progress(job);
        let busy = Duration::from_nanos(busy);
        let busy = ctx.env.stretch(Phase::Reduce, check, busy, ctx.plan);
        let progress_bits = local.to_bits();
        let check_ns = ctx.mark(TraceKind::TerminationCheck { progress_bits }, check);
        ctx.end_iter(check, check_ns, busy, local, true);
        ctx.metrics.termination_checks.add(1);
        let (total, _any_prev) = ctx.vote(local, true)?;
        let done = total < eps || check == cfg.max_iters;

        // The snapshot is the full (value, delta) store.
        ctx.checkpoint(check, done, || store.encode())?;
        if done {
            return Ok(PairOutcome::Finished {
                final_data: encode_pairs(&store.final_values(job)),
                iterations: check,
            });
        }
        if let Some(exit) = ctx.scripted_exit(check) {
            return Ok(exit);
        }
    }

    Err(EngineError::Worker(format!("pair {q} left the check loop without finishing")).into())
}
