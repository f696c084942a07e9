//! Auxiliary map-reduce phases (paper §5.3).
//!
//! An auxiliary phase consumes the main phase's per-iteration output
//! and produces auxiliary information — the paper's example is
//! convergence detection for K-means, where a main-phase `distance()`
//! over centroids is not expressive enough. The auxiliary phase runs
//! *in parallel* with the main iteration ("without pausing active
//! computation"), so its cost stays off the critical path; its
//! termination signal takes effect when it reaches the main phase's
//! map tasks.
//!
//! The baseline comparison (Fig. 20) is a Hadoop user running the same
//! detection as an extra synchronous MapReduce job between iterations.

use crate::api::{IterativeJob, Mapping};
use crate::config::IterConfig;
use crate::engine::{merge_broadcast, IterativeRunner};
use crate::kernel::{reduce_side, MapScratch, MapState};
use crate::store::{check_parts, check_slots};
use imr_mapreduce::{ClockCharge, EngineError};
use imr_records::pairs_encoded_len;
use imr_simcluster::{RunReport, TaskClock, VInstant};

/// The auxiliary phase: a distributed check over the main phase's
/// previous and current outputs.
///
/// `partial` plays the role of the paper's auxiliary Map (one partial
/// value per main reduce partition, e.g. `num_stay` per cluster);
/// `should_terminate` plays the auxiliary Reduce collecting all
/// partials under a single key and broadcasting the termination signal.
pub trait AuxPhase<K, S>: Send + Sync {
    /// Partial auxiliary value computed from one reduce partition's
    /// previous and current outputs.
    fn partial(&self, prev: &[(K, S)], cur: &[(K, S)]) -> f64;

    /// Whether the summed partials signal termination.
    fn should_terminate(&self, total: f64) -> bool;
}

/// Result of a run with an auxiliary phase.
#[derive(Debug, Clone)]
pub struct AuxOutcome<K, S> {
    /// Virtual-time report of the main phase.
    pub report: RunReport,
    /// Final state (sorted).
    pub final_state: Vec<(K, S)>,
    /// Iterations executed by the main phase.
    pub iterations: usize,
    /// The auxiliary total observed after each iteration (from
    /// iteration 2 on; iteration 1 has no previous snapshot).
    pub aux_values: Vec<f64>,
}

/// Runs a one2all (broadcast) iterative job with an auxiliary
/// convergence-detection phase (`job1.addAuxiliary(job2)`).
///
/// Restrictions match the paper's usage: the main job uses one2all
/// mapping with synchronous maps (the K-means shape); termination comes
/// from the auxiliary phase or the iteration cap.
pub fn run_with_aux<J, A>(
    runner: &IterativeRunner,
    job: &J,
    aux: &A,
    cfg: &IterConfig,
    state_dir: &str,
    static_dir: &str,
    output_dir: &str,
) -> Result<AuxOutcome<J::K, J::S>, EngineError>
where
    J: IterativeJob,
    A: AuxPhase<J::K, J::S>,
{
    cfg.validate(&[])?;
    if cfg.mapping != Mapping::One2All {
        return Err(EngineError::Config(
            "auxiliary phases are supported for one2all (K-means-like) jobs".into(),
        ));
    }
    if cfg.resume || cfg.load_balance.is_some() {
        return Err(EngineError::Config(
            "the auxiliary-phase runner has no durable snapshot to resume from \
             and never migrates pairs: resume and load_balance do not apply"
                .into(),
        ));
    }
    let n = cfg.num_tasks;
    // Main pairs plus auxiliary tasks need slots.
    check_slots(2 * n, runner.pair_capacity())?;
    check_parts(runner.dfs(), static_dir, n, "static data")?;
    let cost = &runner.cluster().cost;
    let metrics = runner.metrics().clone();
    metrics.jobs_launched.add(1);

    let nodes = runner.cluster().len();
    let assignment: Vec<imr_simcluster::NodeId> = (0..n)
        .map(|p| imr_simcluster::NodeId((p % nodes) as u32))
        .collect();

    // ---- Init: launch persistent pairs (+ aux pairs), load data ------
    let job_start = VInstant::EPOCH + cost.job_setup;
    metrics.tasks_launched.add(4 * n as u64);

    let mut static_store: Vec<Vec<(J::K, J::T)>> = Vec::with_capacity(n);
    let mut static_bytes: Vec<u64> = Vec::with_capacity(n);
    let mut global_state: Vec<(J::K, J::S)> = Vec::new();
    let mut state_total_bytes = 0u64;
    let mut state_ready: Vec<VInstant> = Vec::with_capacity(n);
    for p in 0..n {
        let node = assignment[p];
        let mut clock = TaskClock::starting_at(job_start + cost.task_launch);
        let (stat, sbytes) = runner.load_sorted_part(static_dir, p, node, &mut clock)?;
        static_store.push(stat);
        static_bytes.push(sbytes);
        let (all, total) = runner.load_broadcast_state(state_dir, node, &mut clock)?;
        if p == 0 {
            global_state = all;
            state_total_bytes = total;
        }
        state_ready.push(clock.now());
    }
    let mut state_bytes: Vec<u64> = vec![state_total_bytes; n];

    let mut prev_out: Vec<Option<Vec<(J::K, J::S)>>> = vec![None; n];
    let mut report = RunReport {
        label: "iMapReduce".into(),
        ..RunReport::default()
    };
    let mut aux_values = Vec::new();
    let mut iterations = 0usize;
    // The auxiliary decision in flight: effective once the signal
    // arrives at the main maps. None until iteration 2.
    let mut stop_signal: Option<VInstant> = None;
    let mut last_reduce_done = vec![job_start; n];
    let mut final_out: Vec<Vec<(J::K, J::S)>> = vec![Vec::new(); n];
    let mut map_scratch = MapScratch::default();

    for iter in 1..=cfg.termination.max_iterations {
        // ---- Map phase (synchronous, one2all) -------------------------
        let gate = state_ready.iter().copied().max().unwrap_or(job_start);
        let mut map_done = Vec::with_capacity(n);
        let mut segments = Vec::with_capacity(n);
        for p in 0..n {
            let speed = runner.cluster().speed(assignment[p]);
            let mut clock = TaskClock::starting_at(gate);
            let out = map_scratch.map_side(
                job,
                MapState::Broadcast(&global_state),
                &static_store[p],
                n,
                p,
                &metrics,
                &mut ClockCharge::new(&mut clock, cost, speed),
            )?;
            clock.advance(cost.compute_time(
                out.records_in + out.emitted,
                static_bytes[p] + state_bytes[p],
                speed,
            ));
            clock.advance(cost.serde_per_byte * out.spill_bytes);
            clock.advance(cost.disk_time(out.spill_bytes));
            let busy = clock.now().duration_since(gate);
            clock.advance(busy * cost.straggler(iter as u64, p as u64, 1));
            map_done.push(clock.now());
            segments.push(out.segments);
        }

        // ---- Reduce phase ---------------------------------------------
        let mut outs: Vec<Vec<(J::K, J::S)>> = Vec::with_capacity(n);
        let mut out_bytes = Vec::with_capacity(n);
        let mut reduce_done = Vec::with_capacity(n);
        for q in 0..n {
            let speed = runner.cluster().speed(assignment[q]);
            let mut clock = TaskClock::default();
            let (inbound, work_start) =
                runner.fetch_segments(&segments, q, &map_done, &assignment, &mut clock);
            let out = reduce_side(
                job,
                inbound,
                None,
                true,
                false,
                &metrics,
                &mut ClockCharge::new(&mut clock, cost, speed),
            )?
            .state;
            let bytes = pairs_encoded_len(&out) as u64;
            clock.advance(cost.serde_per_byte * bytes);
            let busy = clock.now().duration_since(work_start);
            clock.advance(busy * cost.straggler(iter as u64, q as u64, 2));
            reduce_done.push(clock.now());
            outs.push(out);
            out_bytes.push(bytes);
        }
        let iter_done = reduce_done.iter().copied().max().unwrap_or(job_start);
        report.iteration_done.push(iter_done);
        iterations += 1;
        last_reduce_done.clone_from(&reduce_done);
        final_out.clone_from(&outs);

        // ---- Auxiliary phase, in parallel -----------------------------
        // Aux map task q reads main reduce q's buffered output locally
        // at reduce_done[q]; the single aux reducer sums the partials
        // and broadcasts the stop signal.
        if prev_out.iter().all(Option::is_some) {
            let mut partial_done = Vec::with_capacity(n);
            let mut total = 0.0;
            for q in 0..n {
                let speed = runner.cluster().speed(assignment[q]);
                let mut clock = TaskClock::starting_at(reduce_done[q]);
                let prev = prev_out[q].as_deref().unwrap_or(&[]);
                total += aux.partial(prev, &outs[q]);
                clock.advance(cost.compute_time(
                    (prev.len() + outs[q].len()) as u64,
                    out_bytes[q],
                    speed,
                ));
                // Ship one float to the aux reducer (worker 0).
                partial_done.push(
                    clock.now()
                        + runner
                            .cluster()
                            .transfer_time(assignment[q], assignment[0], 16),
                );
            }
            let mut aux_reduce = TaskClock::default();
            aux_reduce.barrier(partial_done);
            aux_reduce.advance(cost.compute_time(n as u64, 0, 1.0));
            aux_values.push(total);
            if aux.should_terminate(total) {
                // Broadcast the termination signal to the main maps.
                stop_signal = Some(aux_reduce.now() + cost.net_latency);
            }
        }

        // ---- Broadcast hand-off for the next iteration -----------------
        state_ready = runner.broadcast_gates(&reduce_done, &out_bytes, &assignment);
        state_bytes = vec![out_bytes.iter().sum(); n];
        global_state = merge_broadcast(&outs);
        prev_out = outs.into_iter().map(Some).collect();

        if stop_signal.is_some() {
            break;
        }
    }

    // ---- Final dump ----------------------------------------------------
    let end = stop_signal.unwrap_or_else(|| {
        report.iteration_done.last().copied().unwrap_or(job_start) + cost.net_latency
    });
    let starts: Vec<VInstant> = last_reduce_done.iter().map(|t| (*t).max(end)).collect();
    let (final_state, finished) = runner.dump_final(output_dir, final_out, &assignment, &starts)?;
    report.finished = finished;
    report.metrics = metrics.snapshot();
    Ok(AuxOutcome {
        report,
        final_state,
        iterations,
        aux_values,
    })
}
