//! The iterative driver program (paper §1, §2.2).
//!
//! This is exactly what a Hadoop user writes around an iterative
//! algorithm: a client-side loop that submits one MapReduce job per
//! iteration, feeds each job the previous job's DFS output, and — when
//! a distance-based stop rule is wanted — submits an *additional*
//! termination-check MapReduce job after every iteration. All three
//! limitations the paper lists (repeated job init, static data
//! reshuffling, full-job barriers) are inherent to this loop, which is
//! what makes it the baseline the figures compare against.

use crate::io::{delete_dir, num_parts, part_path, read_all, read_part};
use crate::job::{JobConfig, MrJob};
use crate::runner::{EngineError, JobResult, JobRunner};
use imr_records::sort_run;
use imr_simcluster::{NodeId, RunReport, TaskClock, VInstant};

/// Distance-based termination: a user metric over each key's previous
/// and current value, summed over all keys (the paper's `distance()`
/// API), with a stop threshold.
pub struct CheckSpec<K, V> {
    /// Per-key distance contribution.
    pub distance: Box<dyn Fn(&K, &V, &V) -> f64 + Send + Sync>,
    /// Stop when the summed distance falls below this.
    pub threshold: f64,
}

impl<K, V> CheckSpec<K, V> {
    /// Builds a check from a per-key distance function and threshold.
    pub fn new(
        distance: impl Fn(&K, &V, &V) -> f64 + Send + Sync + 'static,
        threshold: f64,
    ) -> Self {
        CheckSpec {
            distance: Box::new(distance),
            threshold,
        }
    }
}

/// The outcome of an iterative run.
#[derive(Debug, Clone)]
pub struct IterativeOutcome {
    /// Per-iteration completion timeline and metrics.
    pub report: RunReport,
    /// DFS directory holding the final iteration's output.
    pub final_dir: String,
    /// Number of map-reduce iterations executed.
    pub iterations: usize,
    /// Distance measured after each iteration (empty without a check).
    pub distances: Vec<f64>,
}

/// Runs `job` iteratively: output of iteration *k* is the input of
/// iteration *k+1*.
///
/// * `init_dir` — DFS directory with the initial data (state joined
///   with static, as Hadoop implementations bundle them);
/// * `work_dir` — scratch directory for per-iteration outputs;
/// * `max_iters` — hard iteration cap;
/// * `check` — optional distance-based stop rule, executed as a
///   separate MapReduce job per iteration, exactly as the paper
///   describes Hadoop users must.
pub fn run_iterative<J>(
    runner: &JobRunner,
    job: &J,
    conf: &JobConfig,
    init_dir: &str,
    work_dir: &str,
    max_iters: usize,
    check: Option<&CheckSpec<J::OutK, J::OutV>>,
) -> Result<IterativeOutcome, EngineError>
where
    J: MrJob<InK = <J as MrJob>::OutK, InV = <J as MrJob>::OutV>,
{
    if max_iters == 0 {
        return Err(EngineError::Config(
            "an iterative MapReduce run needs at least one iteration, got max_iters = 0".into(),
        ));
    }
    let mut report = RunReport {
        label: if runner.charge_init {
            "MapReduce".into()
        } else {
            "MapReduce (ex. init.)".into()
        },
        ..RunReport::default()
    };
    let mut distances = Vec::new();
    let mut now = VInstant::EPOCH;
    let mut input_dir = init_dir.to_owned();
    let mut iterations = 0;

    for iter in 1..=max_iters {
        let out_dir = format!("{}/iter-{:04}", work_dir.trim_end_matches('/'), iter);
        let res: JobResult = runner.run(job, conf, &input_dir, &out_dir, now)?;
        now = res.finished;
        report.iteration_done.push(now);
        iterations = iter;

        let mut stop = false;
        if let Some(check) = check {
            let (t, dist) = run_check_job(runner, &input_dir, &out_dir, now, check)?;
            now = t;
            distances.push(dist);
            stop = dist < check.threshold;
        }

        // Free the grandparent iteration's data; the parent is still
        // needed as the next check's "previous" snapshot.
        if iter >= 2 {
            let old = format!("{}/iter-{:04}", work_dir.trim_end_matches('/'), iter - 1);
            if old != input_dir {
                delete_dir(runner.dfs(), &old);
            }
        }
        if iter >= 2 && input_dir != *init_dir {
            delete_dir(runner.dfs(), &input_dir);
        }
        input_dir = out_dir;
        if stop {
            break;
        }
    }

    report.finished = now;
    report.metrics = runner.metrics().snapshot();
    Ok(IterativeOutcome {
        report,
        final_dir: input_dir,
        iterations,
        distances,
    })
}

/// The per-iteration termination-check MapReduce job.
///
/// Map tasks read the previous and current outputs part-by-part and
/// emit one partial distance each; a single reduce task sums them. The
/// job pays the full Hadoop job overhead (setup + task launches), which
/// is precisely the overhead iMapReduce's built-in termination check
/// avoids.
fn run_check_job<K, V>(
    runner: &JobRunner,
    prev_dir: &str,
    cur_dir: &str,
    submit: VInstant,
    check: &CheckSpec<K, V>,
) -> Result<(VInstant, f64), EngineError>
where
    K: imr_records::Key,
    V: imr_records::Value,
{
    let cost = &runner.cluster().cost;
    let dfs = runner.dfs();
    runner.metrics().jobs_launched.add(1);
    let job_start = if runner.charge_init {
        submit + cost.job_setup
    } else {
        submit
    };

    let parts = num_parts(dfs, cur_dir);
    let mut pool = crate::schedule::SlotPool::new(runner.cluster(), true, job_start);
    let mut done = Vec::with_capacity(parts);
    let mut partials = Vec::with_capacity(parts);

    // The previous output is decoded once for key lookup; per-part map
    // tasks are charged for reading both snapshots.
    let mut scratch = TaskClock::starting_at(job_start);
    let mut prev_all: Vec<(K, V)> = read_all(dfs, prev_dir, NodeId(0), &mut scratch)?;
    sort_run(&mut prev_all);

    for i in 0..parts {
        let (node, start) = pool.place(job_start, &[]);
        let speed = runner.cluster().speed(node);
        let mut clock = TaskClock::starting_at(start);
        if runner.charge_init {
            clock.advance(cost.task_launch);
        }
        runner.metrics().tasks_launched.add(1);

        let cur: Vec<(K, V)> = read_part(dfs, cur_dir, i, node, &mut clock)?;
        // The map must also fetch the matching slice of the previous
        // snapshot; charge a proportional read.
        let prev_bytes = dfs.len(&part_path(cur_dir, i)).unwrap_or(0);
        clock.advance(cost.disk_time(prev_bytes));

        let mut local = 0.0;
        for (k, v) in &cur {
            if let Ok(idx) = prev_all.binary_search_by(|(pk, _)| pk.cmp(k)) {
                local += (check.distance)(k, &prev_all[idx].1, v);
            }
        }
        clock.advance(cost.compute_time(cur.len() as u64, prev_bytes, speed));
        // Ship one float to the single reducer.
        let arrival = clock.now() + cost.remote_transfer_time(16);
        pool.occupy(node, clock.now());
        done.push(arrival);
        partials.push(local);
    }

    // Single reducer barrier + trivial sum + tiny DFS write.
    let mut reduce = TaskClock::starting_at(job_start);
    if runner.charge_init {
        reduce.advance(cost.task_launch);
    }
    runner.metrics().tasks_launched.add(1);
    reduce.barrier(done);
    reduce.advance(cost.compute_time(parts as u64, 0, 1.0));
    reduce.advance(cost.disk_time(16));
    Ok((reduce.now(), partials.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Emitter;
    use imr_dfs::Dfs;
    use imr_simcluster::{ClusterSpec, Metrics, MetricsHandle};
    use std::sync::Arc;

    /// A toy iterative job: each key's value halves every iteration
    /// (converges to 0). Key space is preserved, so it can chain.
    struct Halver;
    impl MrJob for Halver {
        type InK = u32;
        type InV = f64;
        type MidK = u32;
        type MidV = f64;
        type OutK = u32;
        type OutV = f64;
        fn map(&self, k: &u32, v: &f64, out: &mut Emitter<u32, f64>) {
            out.emit(*k, v / 2.0);
        }
        fn reduce(&self, k: &u32, values: Vec<f64>, out: &mut Emitter<u32, f64>) {
            out.emit(*k, values.into_iter().sum());
        }
    }

    fn runner(nodes: usize) -> JobRunner {
        let spec = Arc::new(ClusterSpec::local(nodes));
        let metrics: MetricsHandle = Arc::new(Metrics::default());
        let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 2, 1 << 20);
        JobRunner::new(spec, dfs, metrics)
    }

    #[test]
    fn fixed_iteration_chain_halves_values() {
        let r = runner(2);
        let mut clock = TaskClock::default();
        let input: Vec<(u32, f64)> = (0..8).map(|i| (i, 64.0)).collect();
        r.load_input("/init", input, 2, &mut clock).unwrap();

        let outcome = run_iterative(
            &r,
            &Halver,
            &JobConfig::new("halver", 2),
            "/init",
            "/work",
            3,
            None,
        )
        .unwrap();
        assert_eq!(outcome.iterations, 3);
        assert_eq!(outcome.report.iterations(), 3);

        let mut rc = TaskClock::default();
        let out: Vec<(u32, f64)> =
            read_all(r.dfs(), &outcome.final_dir, NodeId(0), &mut rc).unwrap();
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|&(_, v)| (v - 8.0).abs() < 1e-12));
    }

    #[test]
    fn iteration_times_strictly_increase() {
        let r = runner(2);
        let mut clock = TaskClock::default();
        r.load_input("/init", vec![(0u32, 1.0f64), (1, 2.0)], 1, &mut clock)
            .unwrap();
        let outcome =
            run_iterative(&r, &Halver, &JobConfig::new("h", 1), "/init", "/w", 4, None).unwrap();
        let times = outcome.report.iteration_done;
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn zero_iterations_is_a_config_error() {
        let r = runner(2);
        let mut clock = TaskClock::default();
        r.load_input("/init", vec![(0u32, 1.0f64)], 1, &mut clock)
            .unwrap();
        let out = run_iterative(&r, &Halver, &JobConfig::new("h", 1), "/init", "/w", 0, None);
        assert!(matches!(out, Err(EngineError::Config(msg)) if msg.contains("max_iters = 0")));
    }

    #[test]
    fn distance_check_stops_early_and_costs_a_job() {
        let r = runner(2);
        let mut clock = TaskClock::default();
        let input: Vec<(u32, f64)> = (0..4).map(|i| (i, 1.0)).collect();
        r.load_input("/init", input, 2, &mut clock).unwrap();

        // Manhattan distance; after iteration k the per-key delta is
        // 2^-k, total 4 * 2^-k. Threshold 0.2 stops at iteration 5
        // (4/32 = 0.125 < 0.2).
        let check = CheckSpec::new(|_k: &u32, prev: &f64, cur: &f64| (prev - cur).abs(), 0.2);
        let outcome = run_iterative(
            &r,
            &Halver,
            &JobConfig::new("h", 2),
            "/init",
            "/w",
            50,
            Some(&check),
        )
        .unwrap();
        assert_eq!(outcome.iterations, 5, "distances: {:?}", outcome.distances);
        assert!(outcome.distances.last().unwrap() < &0.2);
        // One compute job + one check job per iteration.
        assert_eq!(outcome.report.metrics.jobs_launched, 10);
    }

    #[test]
    fn intermediate_directories_are_cleaned() {
        let r = runner(2);
        let mut clock = TaskClock::default();
        r.load_input("/init", vec![(0u32, 4.0f64)], 1, &mut clock)
            .unwrap();
        let outcome =
            run_iterative(&r, &Halver, &JobConfig::new("h", 1), "/init", "/w", 5, None).unwrap();
        // Only the final (and possibly penultimate) outputs survive.
        let survivors = r.dfs().list("/w/");
        assert!(survivors
            .iter()
            .all(|p| p.starts_with(&outcome.final_dir) || p.starts_with("/w/iter-0004")));
    }
}
