//! Multiple map-reduce phases per iteration (paper §5.2).
//!
//! Some algorithms need more than one map-reduce pass per iteration —
//! the paper's example is matrix power, where each iteration is a
//! matrix multiplication expressed as two chained map-reduce phases.
//! iMapReduce chains the phases by connecting each phase's reduce tasks
//! one-to-one to the next phase's map tasks (`job1.addSuccessor(job2)`,
//! `job2.addSuccessor(job1)`), partitioning both ends with the same
//! function so the hand-off stays on-worker.
//!
//! This module implements the two-phase cycle the paper evaluates. The
//! same structure generalizes to longer chains by nesting, but two
//! phases is what the paper specifies and measures (Fig. 18).

use crate::api::Emitter;
use crate::engine::IterativeRunner;
use crate::store::{check_parts, check_slots};
use imr_dfs::Dfs;
use imr_mapreduce::io::{part_path, read_part};
use imr_mapreduce::{ClockCharge, EngineError};
use imr_records::{
    encode_pairs, pairs_encoded_len, shuffle_in_groups, sort_run, Key, ShuffleCost, ShuffleScratch,
    Value,
};
use imr_simcluster::{MetricsHandle, NodeId, RunReport, TaskClock, VInstant};

/// One map-reduce phase of a multi-phase iteration.
///
/// The phase maps `(InK, InS)` state records (optionally joined with
/// per-key static data `T`) to intermediate `(MidK, Mid)` pairs, then
/// reduces each `MidK` group to that key's output state `OutS`. The
/// next phase consumes `(MidK, OutS)`.
pub trait PhaseJob: Send + Sync {
    /// Input state key.
    type InK: Key;
    /// Input state value.
    type InS: Value;
    /// Intermediate / output key.
    type MidK: Key;
    /// Intermediate value.
    type Mid: Value;
    /// Output state value (keyed by `MidK`).
    type OutS: Value;
    /// Static value joined at this phase's map (use `()` when the
    /// phase sets no static path).
    type T: Value;

    /// The phase's map function. `stat` is the key's static record when
    /// this phase has a static path and the key has one.
    fn map(
        &self,
        key: &Self::InK,
        state: &Self::InS,
        stat: Option<&Self::T>,
        out: &mut Emitter<Self::MidK, Self::Mid>,
    );

    /// The phase's reduce function.
    fn reduce(&self, key: &Self::MidK, values: Vec<Self::Mid>) -> Self::OutS;

    /// Partitions input keys over the `n` task pairs of this phase.
    fn partition_in(&self, key: &Self::InK, n: usize) -> usize {
        imr_records::Partitioner::partition(&imr_records::HashPartitioner, key, n)
    }

    /// Partitions intermediate keys over the `n` task pairs of the
    /// *next* phase.
    fn partition_mid(&self, key: &Self::MidK, n: usize) -> usize {
        imr_records::Partitioner::partition(&imr_records::HashPartitioner, key, n)
    }
}

/// Configuration of a two-phase iterative job.
#[derive(Debug, Clone)]
pub struct TwoPhaseConfig {
    /// Job name.
    pub name: String,
    /// Task pairs per phase.
    pub num_tasks: usize,
    /// Fixed number of iterations (the paper's multi-phase example
    /// terminates by iteration count).
    pub max_iterations: usize,
}

impl TwoPhaseConfig {
    /// A two-phase config; each map task activates as soon as its own
    /// predecessor reduce task is done. `run_two_phase` refuses zero
    /// tasks or zero iterations.
    pub fn new(name: impl Into<String>, num_tasks: usize, max_iterations: usize) -> Self {
        TwoPhaseConfig {
            name: name.into(),
            num_tasks,
            max_iterations,
        }
    }
}

/// Result of a two-phase run.
#[derive(Debug, Clone)]
pub struct TwoPhaseOutcome<K, S> {
    /// Virtual-time report.
    pub report: RunReport,
    /// Final state (the phase-2 outputs feeding phase 1), sorted.
    pub final_state: Vec<(K, S)>,
    /// Iterations executed.
    pub iterations: usize,
}

/// Loads an optional per-phase static store partitioned by this phase's
/// input key.
fn load_static<K: Key, T: Value>(
    dfs: &Dfs,
    dir: Option<&str>,
    n: usize,
    assignment: &[NodeId],
    clocks: &mut [TaskClock],
) -> Result<Vec<Vec<(K, T)>>, EngineError> {
    let Some(dir) = dir else {
        return Ok(vec![Vec::new(); n]);
    };
    check_parts(dfs, dir, n, "static data")?;
    let mut out = Vec::with_capacity(n);
    for p in 0..n {
        let part: Vec<(K, T)> = read_part(dfs, dir, p, assignment[p], &mut clocks[p])?;
        out.push(part);
    }
    Ok(out)
}

/// Executes one phase across all pairs: maps each pair's state (with
/// optional static join), shuffles by `partition_mid`, reduces, and
/// returns the new `(MidK, OutS)` partitions plus per-pair completion
/// instants.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn run_phase<P: PhaseJob>(
    runner: &IterativeRunner,
    phase: &P,
    iter: u64,
    phase_tag: u64,
    n: usize,
    assignment: &[NodeId],
    activations: &[VInstant],
    state: &[Vec<(P::InK, P::InS)>],
    statics: &[Vec<(P::InK, P::T)>],
    metrics: &MetricsHandle,
) -> Result<(Vec<Vec<(P::MidK, P::OutS)>>, Vec<VInstant>), EngineError> {
    let cost = &runner.cluster().cost;
    let mut map_done = Vec::with_capacity(n);
    let mut segments = Vec::with_capacity(n);
    let mut emitter = Emitter::new();
    let mut scratch = ShuffleScratch::default();
    for p in 0..n {
        let node = assignment[p];
        let speed = runner.cluster().speed(node);
        let start = activations[p];
        let mut clock = TaskClock::starting_at(start);

        for (k, s) in &state[p] {
            let stat = statics[p]
                .binary_search_by(|(sk, _)| sk.cmp(k))
                .ok()
                .map(|i| &statics[p][i].1);
            phase.map(k, s, stat, &mut emitter);
        }
        metrics.map_input_records.add(state[p].len() as u64);
        let in_bytes = pairs_encoded_len(&state[p]) as u64;
        let emitted = emitter.len() as u64;
        clock.advance(cost.compute_time(state[p].len() as u64 + emitted, in_bytes, speed));

        let spilled = scratch.shuffle_out(
            emitter.pairs_mut(),
            n,
            |k, n| phase.partition_mid(k, n),
            &mut ClockCharge::new(&mut clock, cost, speed),
        )?;
        clock.advance(cost.serde_per_byte * spilled.bytes);
        clock.advance(cost.disk_time(spilled.bytes));
        let busy = clock.now().duration_since(start);
        clock.advance(busy * cost.straggler(iter, p as u64, phase_tag));
        map_done.push(clock.now());
        segments.push(spilled.segments);
    }

    let mut outputs = Vec::with_capacity(n);
    let mut reduce_done = Vec::with_capacity(n);
    for q in 0..n {
        let speed = runner.cluster().speed(assignment[q]);
        let mut clock = TaskClock::default();
        let (inbound, work_start) =
            runner.fetch_segments(&segments, q, &map_done, assignment, &mut clock);
        let mut out = Vec::new();
        let mut charge = ClockCharge::new(&mut clock, cost, speed);
        let total = shuffle_in_groups(
            inbound,
            |k, vals| {
                let s = phase.reduce(&k, vals);
                out.push((k, s));
            },
            &mut charge,
        )?;
        charge.merged(total, n);
        metrics.reduce_input_records.add(total);
        let busy = clock.now().duration_since(work_start);
        clock.advance(busy * cost.straggler(iter, q as u64, phase_tag + 1));
        // Local hand-off to the successor phase's paired map task.
        let bytes = pairs_encoded_len(&out) as u64;
        clock.advance(cost.handoff_flush + cost.local_transfer_time(bytes));
        metrics.state_handoff_bytes.add(bytes);
        reduce_done.push(clock.now());
        outputs.push(out);
    }
    Ok((outputs, reduce_done))
}

/// Runs a two-phase iterative job: each iteration executes `phase1`
/// then `phase2`; phase 2's reduce output is phase 1's next input.
///
/// Type constraints encode the paper's cycle: `phase1` produces
/// `(P1::MidK, P1::OutS)` which must equal `phase2`'s input, and vice
/// versa.
#[allow(clippy::too_many_arguments)]
pub fn run_two_phase<P1, P2>(
    runner: &IterativeRunner,
    phase1: &P1,
    phase2: &P2,
    cfg: &TwoPhaseConfig,
    state_dir: &str,
    static1_dir: Option<&str>,
    static2_dir: Option<&str>,
    output_dir: &str,
) -> Result<TwoPhaseOutcome<P1::InK, P1::InS>, EngineError>
where
    P1: PhaseJob,
    P2: PhaseJob<InK = P1::MidK, InS = P1::OutS, MidK = P1::InK, OutS = P1::InS>,
{
    if cfg.num_tasks == 0 || cfg.max_iterations == 0 {
        return Err(EngineError::Config(format!(
            "two-phase job {}: num_tasks ({}) and max_iterations ({}) must be positive",
            cfg.name, cfg.num_tasks, cfg.max_iterations
        )));
    }
    let n = cfg.num_tasks;
    // Two phases need 2 * num_tasks persistent pairs worth of slots.
    check_slots(2 * n, runner.pair_capacity())?;
    check_parts(runner.dfs(), state_dir, n, "state")?;
    let cost = &runner.cluster().cost;
    let metrics = runner.metrics().clone();
    metrics.jobs_launched.add(1);

    let nodes = runner.cluster().len();
    let assignment: Vec<NodeId> = (0..n).map(|p| NodeId((p % nodes) as u32)).collect();

    // ---- One-time init: launch 2n pairs, load state + statics --------
    let job_start = VInstant::EPOCH + cost.job_setup;
    let mut clocks: Vec<TaskClock> = (0..n)
        .map(|_| TaskClock::starting_at(job_start + cost.task_launch))
        .collect();
    metrics.tasks_launched.add(4 * n as u64);

    let mut state1: Vec<Vec<(P1::InK, P1::InS)>> = Vec::with_capacity(n);
    for p in 0..n {
        let part: Vec<(P1::InK, P1::InS)> =
            read_part(runner.dfs(), state_dir, p, assignment[p], &mut clocks[p])?;
        let bytes = runner.dfs().len(&part_path(state_dir, p))?;
        clocks[p].advance(cost.serde_per_byte * bytes);
        state1.push(part);
    }
    let statics1: Vec<Vec<(P1::InK, P1::T)>> =
        load_static(runner.dfs(), static1_dir, n, &assignment, &mut clocks)?;
    let statics2: Vec<Vec<(P2::InK, P2::T)>> =
        load_static(runner.dfs(), static2_dir, n, &assignment, &mut clocks)?;
    let mut activations: Vec<VInstant> = clocks.iter().map(|c| c.now()).collect();

    let mut report = RunReport {
        label: "iMapReduce".into(),
        ..RunReport::default()
    };
    let mut iterations = 0;

    for iter in 1..=cfg.max_iterations {
        let (mid_state, mid_done) = run_phase(
            runner,
            phase1,
            iter as u64,
            1,
            n,
            &assignment,
            &activations,
            &state1,
            &statics1,
            &metrics,
        )?;
        let (next_state, done) = run_phase(
            runner,
            phase2,
            iter as u64,
            3,
            n,
            &assignment,
            &mid_done,
            &mid_state,
            &statics2,
            &metrics,
        )?;
        // Re-partition phase-2 output by phase-1's input partitioner
        // (data only; the hand-off cost was charged in run_phase).
        let mut repart: Vec<Vec<(P1::InK, P1::InS)>> = (0..n).map(|_| Vec::new()).collect();
        for part in next_state {
            for (k, s) in part {
                let t = phase1.partition_in(&k, n);
                repart[t].push((k, s));
            }
        }
        for part in &mut repart {
            sort_run(part);
        }
        state1 = repart;
        activations = done;
        iterations += 1;
        report
            .iteration_done
            .push(activations.iter().copied().max().unwrap_or(job_start));
    }

    // ---- Final dump ---------------------------------------------------
    let parts = state1.iter().map(|part| encode_pairs(part)).collect();
    report.finished = runner.dump_final(output_dir, parts, &assignment, &activations)?;
    let mut final_state: Vec<_> = state1.into_iter().flatten().collect();
    sort_run(&mut final_state);
    report.metrics = metrics.snapshot();
    Ok(TwoPhaseOutcome {
        report,
        final_state,
        iterations,
    })
}
