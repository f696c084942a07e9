//! The master (§3.1.2, §3.4), written once for every engine.
//!
//! A *generation* is the span between two rollbacks: [`supervise`]
//! resolves each pair's fault script from its current placement, asks
//! the engine's [`Fleet`] to run the generation — worker threads over
//! channels, OS processes over TCP, or pairs taking turns on virtual
//! clocks — triages the per-pair outcomes, and either stitches the
//! surviving generation onto the committed history or rolls everything
//! back to the last checkpoint epoch completed by all pairs and goes
//! again (§3.4.1), re-placing pairs first when the monitor asked for a
//! migration (§3.4.2).
//!
//! Every fleet hands back the same thing — the [`PairRun`]s recorded
//! from the pairs' reports, each ending in what the pair loop itself
//! returned — so there is one view of an outcome here and one recovery
//! arm: scripted kills and hangs are consumed by one loop, and a
//! generation that died with nothing scripted (a watchdog stall or a
//! vanished worker) goes through one retry path with one no-progress
//! backstop. A scripted fault takes effect in one place on every engine:
//! the failing pair's own `Induced` or `Stalled` exit, which poisons its
//! generation. The master then moves the failed node's pairs by the one
//! relocation rule ([`ClusterSpec::relocate`]) onto nodes still in
//! service, or restarts the node in place when none has a free slot, and
//! tells the next generation which nodes went down ([`GenInput::failed`])
//! and which are down ([`GenInput::down`]) — natively a
//! node is a label, so only the pair's emulated speed and the faults that
//! later hit it change; the simulator fails those nodes' DFS disks. What
//! stays per engine is what its clock needs: when the master acts
//! ([`Fleet::now_ns`]) and how the final parts are committed
//! ([`Fleet::commit`]).
//!
//! Not part of the public API: the module is exported for `imr-native`.

use crate::api::IterativeJob;
use crate::config::{FaultEvent, IterConfig, Mode};
use crate::ctl::RunCtl;
use crate::engine::IterOutcome;
use crate::kernel::fold_votes;
use crate::observe::Observer;
use crate::pair::{PairOutcome, PairPlan};
use bytes::Bytes;
use imr_dfs::{hist_path, migration_marker, resume_epoch, snapshot_dir, snapshot_epochs, Dfs};
use imr_mapreduce::io::{delete_dir, part_path};
use imr_mapreduce::EngineError;
use imr_records::{decode_pairs, sort_run, Codec};
use imr_simcluster::{
    ClusterSpec, MetricsHandle, NodeId, RunReport, TaskClock, VDuration, VInstant,
};
use imr_trace::{flight_path, TraceEvent, TraceKind, COORD};
use std::time::{Duration, Instant};

/// Everything one pair hands back to the master for one generation.
pub struct PairRun {
    /// Per-iteration `(local_distance, had_previous_snapshot)`, one
    /// entry per iteration the pair *completed* this generation.
    pub local_dist: Vec<(f64, bool)>,
    /// When each completed iteration ended, from job start (monotone
    /// across generations): wall time natively, virtual time on the
    /// simulator.
    pub iter_done: Vec<Duration>,
    /// The last iteration whose snapshot this pair fully wrote to the
    /// DFS (the generation's start epoch if it wrote none).
    pub last_ckpt: usize,
    /// What the pair loop returned: how the pair's generation ended, or
    /// a real failure (DFS, codec, a panic inside job code) — typed on
    /// the thread backend and the simulator, flattened to a worker error
    /// by the wire.
    pub outcome: Result<PairOutcome, EngineError>,
}

/// What the master hands the fleet to execute one generation.
#[derive(Clone, Copy)]
pub struct GenInput<'a> {
    /// Checkpoint epoch this generation resumes from.
    pub epoch: usize,
    /// Per-pair fault script + emulated speed under the current
    /// placement.
    pub plans: &'a [PairPlan],
    /// Current pair→node placement.
    pub assignment: &'a [NodeId],
    /// Nodes the rollback before this generation took out of service:
    /// a scripted fault failed them and the master moved all their
    /// pairs elsewhere. The simulator fails their DFS disks; natively a
    /// node is a label and this is ignored.
    pub failed: &'a [NodeId],
    /// Every node out of service: `failed` and those earlier rollbacks
    /// left down. No pair is placed on one, and the balancer moves none
    /// there.
    pub down: &'a [NodeId],
    /// Migrations already performed (bounds the balancer's budget).
    pub migrations_done: u64,
    /// Zero-based generation number (incremented after every rollback);
    /// workers tag their trace events with it.
    pub generation: u32,
    /// Job start instant; native per-iteration completion offsets are
    /// measured against it so the report timeline is monotone across
    /// generations.
    pub started: Instant,
    /// Per-pair committed distance history (iterations `1..=epoch`),
    /// which the generation prepends to the history it records when
    /// persisting a checkpoint sidecar — so the sidecar always holds
    /// the full history from iteration 1.
    pub seed_dist: &'a [Vec<(f64, bool)>],
}

/// What a monitor decided before the generation died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intervention {
    /// The watchdog declared `pair` stalled and poisoned the generation.
    Stall {
        /// The least-advanced active pair at detection time.
        pair: usize,
    },
    /// The balancer decided to migrate `pair` onto node `to` and
    /// poisoned the generation to force a rollback under the new
    /// placement.
    Migrate {
        /// The pair leaving the overloaded node.
        pair: usize,
        /// Its new host.
        to: NodeId,
    },
}

/// What one generation hands back: each pair's run, and the monitor's
/// intervention if it made one.
pub type GenRuns = (Vec<PairRun>, Option<Intervention>);

/// An engine as the master sees it: something that runs generations.
/// The provided hooks are the native engines' — a closure that runs one
/// generation is a fleet — and the simulator overrides them for its
/// virtual clock.
pub trait Fleet {
    /// Runs one generation to the end of every pair.
    fn run_gen(&mut self, gen: GenInput<'_>) -> Result<GenRuns, EngineError>;

    /// When the master acts, in nanoseconds since the job started: its
    /// events are stamped with it. Natively, wall time since `started`.
    fn now_ns(&self, started: Instant) -> u64 {
        started.elapsed().as_nanos() as u64
    }

    /// Commits pair `q`'s final part, `parts[q]`, to `output_dir`;
    /// returns when the last one landed. Natively the parts are written
    /// at node 0 and the job ends now.
    fn commit(
        &mut self,
        dfs: &Dfs,
        output_dir: &str,
        parts: Vec<Bytes>,
        started: Instant,
    ) -> Result<VInstant, EngineError> {
        for (q, data) in parts.into_iter().enumerate() {
            let mut clock = TaskClock::default();
            dfs.put(&part_path(output_dir, q), data, NodeId(0), &mut clock)?;
        }
        Ok(VInstant::EPOCH + VDuration::from_nanos(self.now_ns(started)))
    }
}

impl<F: FnMut(GenInput<'_>) -> Result<GenRuns, EngineError>> Fleet for F {
    fn run_gen(&mut self, gen: GenInput<'_>) -> Result<GenRuns, EngineError> {
        self(gen)
    }
}

/// Runs the generation loop to completion on `fleet`, whose pairs
/// `cluster` places. `recovers_unscripted` is the engine's policy for a
/// pair that aborted with no scripted cause and no monitor intervention:
/// the thread backend and the simulator treat it as a bug (a thread
/// cannot vanish silently), while the TCP backend treats it as a genuine
/// worker loss (process crash / dropped connection) and retries from the
/// last checkpoint — with the same no-progress backstop the watchdog
/// path uses, so a worker that dies every generation at the same epoch
/// fails the run instead of looping forever.
#[allow(clippy::too_many_arguments)]
pub fn supervise<J: IterativeJob>(
    dfs: &Dfs,
    cluster: &ClusterSpec,
    metrics: &MetricsHandle,
    cfg: &IterConfig<dyn Mode>,
    output_dir: &str,
    faults: &[FaultEvent],
    label: String,
    recovers_unscripted: bool,
    observer: &Observer,
    ctl: Option<&RunCtl>,
    fleet: &mut dyn Fleet,
) -> Result<IterOutcome<J::K, J::S>, EngineError> {
    let n = cfg.num_tasks;
    if let Some(fault) = faults.iter().find(|f| f.node().index() >= cluster.len()) {
        return Err(EngineError::Config(format!(
            "a fault names {:?}, but the cluster has {} nodes",
            fault.node(),
            cluster.len()
        )));
    }
    metrics.jobs_launched.add(1);

    // Kills and hangs are consumed once recovery handles them;
    // delays stay scripted for the whole run so a rolled-back
    // iteration replays them identically (determinism).
    let (delays, mut pending): (Vec<FaultEvent>, Vec<FaultEvent>) = faults
        .iter()
        .partition(|f| matches!(f, FaultEvent::Delay { .. }));
    pending.sort_by_key(|f| f.at_iteration());

    // The shared pair→node placement: a fault names a node, and
    // every engine hits the pairs that placement puts there; the
    // balancer migrates pairs between these nodes; node speeds are
    // emulated per pair. Oversubscribed clean runs (more pairs than
    // the spec has slots, e.g. the thread-scaling bench on a
    // single-node spec) fall back to modulo placement.
    let iterative = cfg.mode.iterative();
    let balanced = iterative.is_some_and(|m| m.load_balance.is_some());
    let needs_placement = !pending.is_empty() || !delays.is_empty() || balanced;
    let mut assignment: Vec<NodeId> = if n <= cluster.pair_capacity() {
        cluster.assign_pairs(n)
    } else {
        if needs_placement {
            return Err(EngineError::Config(format!(
                "{n} pairs exceed the cluster's pair capacity {}: fault \
                 injection and load balancing need every pair on a real slot",
                cluster.pair_capacity()
            )));
        }
        let ids: Vec<NodeId> = cluster.node_ids().collect();
        (0..n).map(|p| ids[p % ids.len()]).collect()
    };

    let started = Instant::now();
    // Rollback epoch: iteration 0 is the initial input; epoch e > 0
    // is the DFS snapshot written at the end of iteration e. All
    // iterations up to the epoch are committed; everything after is
    // discarded on rollback and replayed.
    let mut epoch = 0usize;
    let mut committed_dist: Vec<Vec<(f64, bool)>> = vec![Vec::new(); n];
    let mut committed_done: Vec<Vec<Duration>> = vec![Vec::new(); n];
    // Durable resume: pick up from the newest *complete* snapshot a
    // previous process left behind, rebuilding the committed distance
    // history from the sidecars. Wall-clock offsets from the dead
    // process are unknowable, so the resumed timeline restarts at zero.
    if iterative.is_some_and(|m| m.resume) {
        if let Some(resume_at) = resume_epoch(dfs, output_dir, n) {
            for stale in snapshot_epochs(dfs, output_dir) {
                if stale != resume_at {
                    delete_dir(dfs, &snapshot_dir(output_dir, stale));
                }
            }
            let dir = snapshot_dir(output_dir, resume_at);
            for (q, committed) in committed_dist.iter_mut().enumerate() {
                let mut clock = TaskClock::default();
                let mut raw = dfs.read(&hist_path(&dir, q), NodeId(0), &mut clock)?;
                let hist = Vec::<(f64, bool)>::decode(&mut raw)?;
                if hist.len() != resume_at {
                    return Err(EngineError::Worker(format!(
                        "resume sidecar for pair {q} holds {} entries, \
                         expected {resume_at}",
                        hist.len()
                    )));
                }
                *committed = hist;
                committed_done[q] = vec![Duration::ZERO; resume_at];
            }
            epoch = resume_at;
        }
    }
    let mut recoveries = 0u64;
    let mut migrations = 0u64;
    // Trace generation counter and flight-recorder dump sequence; both
    // advance on every rollback (recovery or migration).
    let mut generation: u32 = 0;
    let mut flight_seq = 0usize;
    // Consecutive unscripted recoveries (watchdog stalls or vanished
    // workers) with no checkpoint progress — the backstop against
    // retrying a persistent failure forever.
    let mut stall_retries = 0u32;
    // The nodes the last rollback took out of service, and every node
    // still out of service.
    let (mut failed, mut down): (Vec<NodeId>, Vec<NodeId>) = Default::default();

    // ---- Generation loop: run until a generation survives --------
    let final_runs: Vec<PairRun> = loop {
        // This generation's fault script + emulated speed, resolved
        // per pair from its current placement.
        let plan = |node: NodeId| {
            let pending = pending.iter().filter(|f| f.node() == node);
            let (hangs, kills) = pending.partition(|f| matches!(f, FaultEvent::Hang { .. }));
            let at = |faults: Vec<&FaultEvent>| faults.iter().map(|f| f.at_iteration()).collect();
            let delays = delays.iter().filter_map(|f| match *f {
                FaultEvent::Delay {
                    at_iteration,
                    millis,
                    ..
                } if f.node() == node => Some((at_iteration, millis)),
                _ => None,
            });
            let (kills, hangs, delays) = (at(kills), at(hangs), delays.collect());
            let speed = cluster.speed(node);
            PairPlan {
                kills,
                hangs,
                delays,
                speed,
                crash_after: None,
            }
        };
        let plans: Vec<PairPlan> = assignment.iter().map(|&node| plan(node)).collect();

        let (mut runs, intervention) = fleet.run_gen(GenInput {
            epoch,
            plans: &plans,
            assignment: &assignment,
            failed: &failed,
            down: &down,
            migrations_done: migrations,
            generation,
            started,
            seed_dist: &committed_dist,
        })?;
        // What a backend reports is only as trustworthy as its workers:
        // a malformed generation is a typed error, never a panic.
        if runs.len() != n {
            return Err(EngineError::Worker(format!(
                "backend returned {} pair runs for {n} pairs",
                runs.len()
            )));
        }
        // A service-level abort poisons the generation from outside;
        // surface it as a distinct error before triage would otherwise
        // treat the aborted pairs as vanished workers and retry.
        if ctl.is_some_and(RunCtl::is_aborted) {
            return Err(EngineError::Worker("run aborted by job service".into()));
        }

        // ---- Triage ------------------------------------------------
        // Real errors abort the run even when a failure also fired:
        // replaying a DFS or codec failure would only repeat it.
        if let Some(failed) = runs
            .iter()
            .position(|r| matches!(r.outcome, Err(_) | Ok(PairOutcome::Vanish)))
        {
            return Err(match runs.swap_remove(failed).outcome {
                Err(e) => e,
                // The crash hook ends a worker process without a
                // report; a pair that reports it is still running.
                Ok(_) => EngineError::Worker("crash hook fired on a pair that kept running".into()),
            });
        }
        // Scripted events that fired, as `(hang?, pair, iteration)`:
        // kills first, then hangs, each in pair order.
        let mut fired: Vec<(bool, usize, usize)> = runs
            .iter()
            .enumerate()
            .filter_map(|(q, r)| match r.outcome {
                Ok(PairOutcome::Induced { at_iteration }) => Some((false, q, at_iteration)),
                Ok(PairOutcome::Stalled { at_iteration }) => Some((true, q, at_iteration)),
                _ => None,
            })
            .collect();
        fired.sort_by_key(|&(hang, ..)| hang);
        let any_aborted = runs
            .iter()
            .any(|r| matches!(r.outcome, Ok(PairOutcome::Aborted)));
        if fired.is_empty() && !any_aborted {
            // Every pair finished. A monitor intervention that lost
            // the race against termination is ignored: the job is
            // done, there is nothing to roll back.
            break runs;
        }
        if fired.is_empty() && intervention.is_none() && !recovers_unscripted {
            return Err(EngineError::Worker(
                "a worker aborted with no scripted failure and no error".into(),
            ));
        }

        // ---- Recovery (§3.4.1) -------------------------------------
        // Roll back to the last epoch whose snapshot every pair
        // completed: async skew means a fast pair may have
        // checkpointed an iteration its slowest peer never reached.
        let new_epoch = runs.iter().map(|r| r.last_ckpt).min().unwrap_or(epoch);
        if new_epoch < epoch {
            return Err(EngineError::Worker(format!(
                "a pair reported checkpoint epoch {new_epoch}, below the epoch {epoch} \
                 its generation started from"
            )));
        }
        let now_ns = fleet.now_ns(started);
        let emit = |kind: TraceKind, node: u32, pair: u32, iteration: usize| {
            let event = TraceEvent::new(kind).at(now_ns);
            observer.emit(event.tagged(node, pair, iteration as u32, generation));
        };
        let rollback = TraceKind::Rollback {
            epoch: new_epoch as u64,
        };
        // Consume each scripted event that fired: a node-level event
        // fires through the pairs its node hosts, once per event, and
        // every event that fired is consumed by this one rollback.
        let mut dead = Vec::new();
        for &(hang, q, at) in &fired {
            if let Some(pos) = pending.iter().position(|f| {
                matches!(f, FaultEvent::Hang { .. }) == hang
                    && f.node() == assignment[q]
                    && f.at_iteration() == at
            }) {
                dead.push(pending.remove(pos).node());
                recoveries += 1;
                metrics.recoveries.add(1);
                let node = assignment[q].index() as u32;
                if hang {
                    emit(TraceKind::StallDetected, node, COORD, at);
                }
                emit(rollback, node, COORD, at);
            }
        }
        // A failed node's pairs avoid every node still out of service.
        down.extend(&dead);
        cluster.relocate(&mut assignment, &down);
        // A node still hosting a pair had nowhere to send it and is
        // restarted; the rest stay down.
        down.retain(|node| !assignment.contains(node));
        dead.retain(|node| down.contains(node));
        failed = dead;

        match intervention {
            _ if !fired.is_empty() => stall_retries = 0,
            Some(Intervention::Migrate { pair, to }) => {
                // §3.4.2: migration is a rollback under a new
                // placement. The monitor only fires once every
                // pair checkpointed past `epoch`, so `new_epoch`
                // strictly advances and repeated migrations
                // cannot livelock the job.
                migrations += 1;
                metrics.migrations.add(1);
                let from = assignment[pair].index() as u32;
                let to_node = to.index() as u32;
                let migration = TraceKind::Migration { from, to: to_node };
                emit(migration, from, pair as u32, new_epoch);
                assignment[pair] = to;
                let marker = migration_marker(output_dir, migrations, new_epoch);
                let migrated = Bytes::from_static(b"migrated");
                dfs.put_atomic(&marker, migrated, to, &mut TaskClock::default())?;
                stall_retries = 0;
            }
            unscripted => {
                // Nothing scripted fired: the watchdog declared a pair
                // stalled, or (only with `recovers_unscripted`) a worker
                // process vanished — crash or dropped connection. Retry
                // from the last checkpoint, but give up if it persists
                // with no progress (a wedged pair would stall every
                // generation at the same epoch forever).
                let stalled = match unscripted {
                    Some(Intervention::Stall { pair }) => Some(pair),
                    _ => None,
                };
                if new_epoch > epoch {
                    stall_retries = 0;
                } else {
                    stall_retries += 1;
                    if stall_retries >= cfg.net.retry_budget {
                        metrics.retries_exhausted.add(1);
                        let cause = match stalled {
                            Some(pair) => format!("watchdog declared pair {pair} stalled"),
                            None => "workers kept vanishing".to_owned(),
                        };
                        return Err(EngineError::Worker(format!(
                            "{cause} with no checkpoint progress and the retry budget \
                             ({}) is exhausted; giving up",
                            cfg.net.retry_budget
                        )));
                    }
                }
                recoveries += 1;
                metrics.recoveries.add(1);
                let attempt = stall_retries as u64;
                emit(TraceKind::Retry { attempt }, COORD, COORD, new_epoch);
                let node = stalled.map_or(COORD, |pair| assignment[pair].index() as u32);
                if stalled.is_some() {
                    emit(TraceKind::StallDetected, node, COORD, new_epoch);
                }
                emit(rollback, node, COORD, new_epoch);
            }
        }
        // Flight recorder: on every rollback (recovery or migration),
        // dump the trailing trace window to a DFS artifact so the
        // events leading up to the incident survive the respawn. The
        // Rollback/Migration events above are recorded first, so the
        // artifact always contains the incident itself.
        if let Some(lines) = observer.flight_lines() {
            let (path, lines) = (flight_path(output_dir, flight_seq), lines.into_bytes());
            dfs.put_atomic(&path, lines.into(), NodeId(0), &mut TaskClock::default())?;
            flight_seq += 1;
        }
        generation += 1;
        let keep = new_epoch - epoch;
        for (q, r) in runs.into_iter().enumerate() {
            committed_dist[q].extend(r.local_dist.into_iter().take(keep));
            committed_done[q].extend(r.iter_done.into_iter().take(keep));
        }
        // Snapshots past the rollback epoch are now stale; the next
        // generation rewrites them deterministically.
        for e in snapshot_epochs(dfs, output_dir) {
            if e != new_epoch {
                delete_dir(dfs, &snapshot_dir(output_dir, e));
            }
        }
        epoch = new_epoch;
    };

    // ---- Stitch the surviving generation onto committed history --
    let mut iterations = 0usize;
    let mut final_parts: Vec<Bytes> = Vec::with_capacity(n);
    let mut final_state: Vec<(J::K, J::S)> = Vec::new();
    for (q, r) in final_runs.into_iter().enumerate() {
        match r.outcome {
            Ok(PairOutcome::Finished {
                final_data,
                iterations: it,
            }) => {
                if q == 0 {
                    iterations = it;
                } else if it != iterations {
                    return Err(EngineError::Worker(format!(
                        "workers disagreed on the termination iteration: \
                         pair 0 stopped at {iterations}, pair {q} at {it}"
                    )));
                }
                final_state.extend(decode_pairs::<J::K, J::S>(final_data.clone())?);
                final_parts.push(final_data);
                committed_dist[q].extend(r.local_dist);
                committed_done[q].extend(r.iter_done);
                // The stitch below indexes both by iteration.
                if committed_dist[q].len() != iterations || committed_done[q].len() != iterations {
                    return Err(EngineError::Worker(format!(
                        "pair {q} finished at iteration {iterations} but reported {} \
                         distance and {} completion records",
                        committed_dist[q].len(),
                        committed_done[q].len()
                    )));
                }
            }
            _ => {
                return Err(EngineError::Worker(format!(
                    "pair {q} survived triage without finishing"
                )))
            }
        }
    }

    // Global per-iteration distance: the same task-ordered fold the
    // pairs voted with.
    let mut distances = Vec::new();
    if cfg.termination.distance_threshold.is_some() {
        for i in 0..iterations {
            let (total, any_prev) = fold_votes(committed_dist.iter().map(|dist| dist[i]));
            distances.push(if any_prev { total } else { f64::INFINITY });
        }
    }

    // Keep only the newest snapshot (the simulator already retires
    // each checkpoint when the next one lands).
    let epochs = snapshot_epochs(dfs, output_dir);
    if let Some((_last, stale)) = epochs.split_last() {
        for e in stale {
            delete_dir(dfs, &snapshot_dir(output_dir, *e));
        }
    }

    // Final output dump (once, at termination): the bytes each pair
    // returned.
    let finished = fleet.commit(dfs, output_dir, final_parts, started)?;
    sort_run(&mut final_state);

    // Completion instants in whole nanoseconds, exact on every clock.
    let iteration_done = (0..iterations).map(|i| {
        let done = (0..n).map(|q| committed_done[q][i]).max();
        VInstant::EPOCH + VDuration::from_nanos(done.unwrap_or_default().as_nanos() as u64)
    });
    let report = RunReport {
        label,
        iteration_done: iteration_done.collect(),
        finished,
        metrics: metrics.snapshot(),
    };

    Ok(IterOutcome {
        report,
        final_state,
        iterations,
        distances,
        migrations,
        recoveries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate as imapreduce;
    use imapreduce::{Emitter, StateInput};
    use imr_simcluster::Metrics;
    use std::sync::Arc;

    struct Keep;
    impl IterativeJob for Keep {
        type K = u32;
        type S = f64;
        type T = ();
        fn map(&self, k: &u32, s: StateInput<'_, u32, f64>, _t: &(), out: &mut Emitter<u32, f64>) {
            out.emit(*k, *s.one());
        }
        fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
            *acc += v;
        }
    }

    /// A pair that claims to have finished at `iterations`, backed by
    /// `records` per-iteration distance and completion records.
    fn finished(q: u32, iterations: usize, records: usize) -> PairRun {
        PairRun {
            local_dist: vec![(0.5, true); records],
            iter_done: vec![Duration::from_millis(1); records],
            last_ckpt: 0,
            outcome: Ok(PairOutcome::Finished {
                final_data: imr_records::encode_pairs(&[(q, 1.0f64)]),
                iterations,
            }),
        }
    }

    /// A pair whose worker vanished after checkpointing `last_ckpt`.
    fn vanished(last_ckpt: usize) -> PairRun {
        PairRun {
            local_dist: vec![(0.5, true); last_ckpt],
            iter_done: vec![Duration::from_millis(1); last_ckpt],
            last_ckpt,
            outcome: Ok(PairOutcome::Aborted),
        }
    }

    /// What one scripted run left behind.
    struct Fake {
        result: Result<IterOutcome<u32, f64>, EngineError>,
        /// Generations the backend was asked to run.
        generations_run: usize,
        metrics: imr_simcluster::MetricsSnapshot,
        /// Names of the supervisor's events, in emission order.
        events: Vec<&'static str>,
    }

    /// Drives `supervise` over two pairs with a backend that returns the
    /// scripted generations verbatim, one per call, as a TCP
    /// coordinator relaying whatever its workers reported (and its
    /// monitor decided) would. The retry budget is 3.
    fn supervise_scripted(generations: Vec<(Vec<PairRun>, Option<Intervention>)>) -> Fake {
        let metrics: MetricsHandle = Arc::new(Metrics::default());
        let dfs = Dfs::new(Arc::new(ClusterSpec::local(2)), Arc::clone(&metrics), 1);
        let cfg = IterConfig::new("fake", 2, 3)
            .with_distance_threshold(1e-9)
            .with_net_policy(imapreduce::NetPolicy {
                retry_budget: 3,
                ..Default::default()
            });
        let trace = Arc::new(imr_trace::TraceBuffer::with_capacity(64));
        let mut observer = Observer::new(Arc::clone(&metrics));
        observer.attach_trace(Arc::clone(&trace));
        let mut generations = generations.into_iter();
        let mut generations_run = 0;
        let result = supervise::<Keep>(
            &dfs,
            dfs.cluster(),
            &metrics,
            &cfg,
            "/out",
            &[],
            "fake".to_owned(),
            true,
            &observer,
            None,
            &mut |_gen: GenInput<'_>| {
                generations_run += 1;
                Ok(generations.next().expect("a scripted generation"))
            },
        );
        Fake {
            result,
            generations_run,
            metrics: metrics.snapshot(),
            events: trace.snapshot().iter().map(|e| e.kind.name()).collect(),
        }
    }

    fn supervise_fake(
        generations: Vec<Vec<PairRun>>,
    ) -> Result<IterOutcome<u32, f64>, EngineError> {
        supervise_scripted(generations.into_iter().map(|runs| (runs, None)).collect()).result
    }

    fn worker_error(generations: Vec<Vec<PairRun>>, needle: &str) {
        match supervise_fake(generations) {
            Err(EngineError::Worker(msg)) => assert!(msg.contains(needle), "{msg}"),
            Err(other) => panic!("expected a worker error, got {other}"),
            Ok(_) => panic!("expected a worker error, got Ok"),
        }
    }

    #[test]
    fn well_formed_generation_stitches() {
        let out = supervise_fake(vec![vec![finished(0, 3, 3), finished(1, 3, 3)]]).unwrap();
        assert_eq!(out.iterations, 3);
        assert_eq!(out.distances, vec![1.0; 3]);
        assert_eq!(out.final_state, vec![(0, 1.0), (1, 1.0)]);
    }

    #[test]
    fn malformed_generations_are_worker_errors_not_panics() {
        // A partial generation.
        worker_error(vec![vec![finished(0, 3, 3)]], "1 pair runs for 2 pairs");
        // Outcomes that name different termination iterations.
        worker_error(
            vec![vec![finished(0, 3, 3), finished(1, 2, 2)]],
            "disagreed on the termination iteration",
        );
        // Fewer heartbeats than the reported iteration count: the stitch
        // would index past the end of the pair's records.
        worker_error(
            vec![vec![finished(0, 3, 3), finished(1, 3, 2)]],
            "pair 1 finished at iteration 3 but reported 2",
        );
        let mut short_done = finished(0, 3, 3);
        short_done.iter_done.pop();
        worker_error(
            vec![vec![short_done, finished(1, 3, 3)]],
            "2 completion records",
        );
        // A checkpoint report that moves backwards: the rollback after
        // the second generation would land before its own start epoch.
        worker_error(
            vec![
                vec![vanished(2), vanished(2)],
                vec![vanished(2), vanished(1)],
            ],
            "checkpoint epoch 1, below the epoch 2",
        );
    }

    #[test]
    fn no_progress_retries_stop_at_the_budget_whatever_the_cause() {
        // The same generation over and over, never checkpointing past
        // epoch 0: once because the watchdog keeps declaring pair 1
        // stalled, once because workers keep vanishing.
        let causes = [
            (Some(Intervention::Stall { pair: 1 }), "pair 1 stalled"),
            (None, "workers kept vanishing"),
        ];
        for (intervention, cause) in causes {
            let stuck = || (vec![vanished(0), vanished(0)], intervention);
            let fake = supervise_scripted(vec![stuck(), stuck(), stuck()]);
            match fake.result {
                Err(EngineError::Worker(msg)) => {
                    assert!(
                        msg.contains(cause) && msg.contains("retry budget (3)"),
                        "{msg}"
                    )
                }
                Err(other) => panic!("expected a worker error, got {other}"),
                Ok(_) => panic!("expected a worker error, got Ok"),
            }
            // `retry_budget` generations ran; the first two were retried,
            // the third exhausted the budget.
            assert_eq!(fake.generations_run, 3);
            assert_eq!(fake.metrics.retries_exhausted, 1);
            assert_eq!(fake.metrics.recoveries, 2);
            let retried: &[&str] = match intervention {
                Some(_) => &["Retry", "StallDetected", "Rollback"],
                None => &["Retry", "Rollback"],
            };
            assert_eq!(fake.events, [retried, retried].concat(), "{cause}");
        }
    }

    #[test]
    fn checkpoint_progress_resets_the_no_progress_count() {
        // Workers vanish four generations running, but each generation
        // checkpoints one epoch further than the last: never "no
        // progress", so the budget of 3 is not what ends the run.
        let fake = supervise_scripted(vec![
            (vec![vanished(1), vanished(1)], None),
            (vec![vanished(2), vanished(2)], None),
            (vec![vanished(2), vanished(2)], None),
            (vec![finished(0, 3, 1), finished(1, 3, 1)], None),
        ]);
        assert_eq!(fake.result.unwrap().recoveries, 3);
        assert_eq!(fake.metrics.retries_exhausted, 0);
    }
}
