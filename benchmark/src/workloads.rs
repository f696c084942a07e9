//! The six workloads: what one rep does, how it is timed and how its
//! result is verified. A rep is always `generate → load → run → verify`
//! on a fresh runner (or service) and a freshly loaded DFS; only
//! `generate + load` (set-up) and `run` are timed.

use crate::adapter::{
    self, Counters, EngineEvent, EngineRun, Fabric, JobAlgo, JobDesc, KmState, Observers,
    PagerankJob, Service,
};
use crate::stats::fnv1a;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A rep that has not returned after this long is a failed rep.
pub const REP_WATCHDOG: Duration = Duration::from_secs(60);

/// Set when a rep timed out: its thread (and perhaps worker processes)
/// may still be running, so the child must stop measuring and leave
/// through `process::exit` after reporting.
pub static REP_TIMED_OUT: AtomicBool = AtomicBool::new(false);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PagerankThreads,
    PagerankTcp,
    PagerankCkptKill,
    PagerankDelta,
    KmeansBroadcast,
    JobsMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "pagerank_threads" => Workload::PagerankThreads,
            "pagerank_tcp" => Workload::PagerankTcp,
            "pagerank_ckpt_kill" => Workload::PagerankCkptKill,
            "pagerank_delta" => Workload::PagerankDelta,
            "kmeans_broadcast" => Workload::KmeansBroadcast,
            "jobs_mixed" => Workload::JobsMixed,
            _ => return None,
        })
    }
}

/// Every size in one place. `full()` is the comparable configuration;
/// `quick()` is the smoke configuration, whose numbers are labelled
/// not-comparable.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `pairs = slots = min(2, nproc)`.
    pub pairs: usize,
    pub pr_nodes: usize,
    pub pr_edges: u64,
    pub pr_iters: usize,
    pub ckpt_every: usize,
    pub kill_after: usize,
    pub delta_eps: f64,
    pub delta_cap: usize,
    /// Power iterations of the delta workload's reference fixpoint.
    pub delta_ref_iters: usize,
    /// Per-node tolerance against the sequential reference.
    pub pr_tol: f64,
    pub delta_tol: f64,
    pub km_points: usize,
    pub km_dim: usize,
    pub km_k: usize,
    pub km_iters: usize,
    pub jobs: usize,
    pub job_scale: usize,
    pub job_iters: usize,
    pub min_reps: usize,
    /// Timed reps stop here even if the measuring window is still open.
    pub max_reps: usize,
    pub probe_batches: usize,
    pub probe_batch_ms: f64,
    pub empty_jobs: usize,
    pub sim_iters: usize,
    pub baseline_iters: usize,
    /// Traced and untraced reps of the traced pass (they alternate).
    pub trace_reps: u32,
    pub plain_reps: u32,
    pub worker_bin: PathBuf,
}

impl Sizes {
    pub fn full(worker_bin: PathBuf) -> Sizes {
        Sizes {
            pairs: std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(2),
            pr_nodes: 100_000,
            pr_edges: 700_000,
            pr_iters: 20,
            ckpt_every: 2,
            kill_after: 11,
            delta_eps: 1e-7,
            delta_cap: 400,
            delta_ref_iters: 20,
            pr_tol: 1e-9,
            delta_tol: 1e-5,
            km_points: 400_000,
            km_dim: 8,
            km_k: 16,
            km_iters: 20,
            jobs: 128,
            job_scale: 5_000,
            job_iters: 6,
            min_reps: 8,
            max_reps: usize::MAX,
            probe_batches: 10,
            probe_batch_ms: 50.0,
            empty_jobs: 200,
            sim_iters: 5,
            baseline_iters: 2,
            trace_reps: 3,
            plain_reps: 5,
            worker_bin,
        }
    }

    pub fn quick(worker_bin: PathBuf) -> Sizes {
        Sizes {
            pr_nodes: 2_000,
            pr_edges: 14_000,
            pr_iters: 6,
            kill_after: 3,
            km_points: 4_000,
            km_iters: 4,
            jobs: 8,
            job_scale: 200,
            min_reps: 1,
            max_reps: 1,
            probe_batches: 2,
            probe_batch_ms: 2.0,
            empty_jobs: 8,
            sim_iters: 2,
            trace_reps: 1,
            plain_reps: 1,
            ..Sizes::full(worker_bin)
        }
    }

    /// The batch `jobs_mixed` submits: algorithms cycle, task widths
    /// alternate 1 and 2 (capped by the slot count) so head-of-line
    /// admission is exercised.
    pub fn job_batch(&self, seed: u64) -> Vec<JobDesc> {
        const CYCLE: [JobAlgo; 4] = [
            JobAlgo::Sssp,
            JobAlgo::PageRank,
            JobAlgo::Kmeans,
            JobAlgo::Halve,
        ];
        (0..self.jobs)
            .map(|i| JobDesc {
                algo: CYCLE[i % 4],
                scale: self.job_scale,
                tasks: 1 + ((i / 4) % 2).min(self.pairs - 1),
                iters: self.job_iters,
                seed: seed.wrapping_mul(1_000_003).wrapping_add(i as u64),
            })
            .collect()
    }
}

/// The sequential reference of a workload, computed once per run outside
/// every timed region.
pub enum Reference {
    Pagerank(Vec<f64>),
    Kmeans(Vec<(u32, KmState)>),
    /// `jobs_mixed`: every job must complete with a readable result.
    Jobs,
}

pub fn build_reference(wl: Workload, sz: &Sizes, seed: u64) -> Reference {
    match wl {
        Workload::JobsMixed => Reference::Jobs,
        Workload::KmeansBroadcast => {
            let points = adapter::generate_points(sz.km_points, sz.km_dim, sz.km_k, seed);
            Reference::Kmeans(adapter::reference_kmeans(&points, sz.km_k, sz.km_iters))
        }
        // The delta workload is checked against the 20-iteration power
        // iteration too (its "fixpoint"), at its own looser tolerance.
        _ => {
            let g = adapter::generate_pagerank_graph(sz.pr_nodes, sz.pr_edges, seed);
            let iters = if wl == Workload::PagerankDelta {
                sz.delta_ref_iters
            } else {
                sz.pr_iters
            };
            Reference::Pagerank(adapter::reference_pagerank(&g, iters))
        }
    }
}

/// What one rep measured. Phase instants let the caller lay spans over
/// the rep afterwards (a rep runs on its own watchdog thread).
pub struct RepOut {
    pub setup_s: f64,
    pub wall_s: f64,
    /// Progress-unit times in ms: successive differences of
    /// `iteration_done` (first from the call start) for engine
    /// workloads, one "ms per completed job" figure for `jobs_mixed`.
    pub unit_ms: Vec<f64>,
    pub jobs_done: usize,
    pub digest: u64,
    /// `(name, start, end)` of generate, load, run, verify.
    pub phases: Vec<(&'static str, Instant, Instant)>,
    pub iterations: usize,
    pub recoveries: u64,
    pub counters: Counters,
    /// Engine events of a traced rep, grouped per run: one group for an
    /// engine workload, stamped since the start of the rep's `run` phase;
    /// one per job for `jobs_mixed`, each on its own job's clock.
    pub events: Vec<Vec<EngineEvent>>,
    pub phase_totals: [(u64, u64); 5],
    pub dropped_samples: u64,
    pub async_overlap: f64,
}

/// Variations of a workload's rep that the traced pass needs for its
/// difference metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variant {
    /// Attach a trace ring and a telemetry registry.
    pub traced: bool,
    /// Run with this many pairs instead of `Sizes::pairs`.
    pub pairs: Option<usize>,
    /// `pagerank_ckpt_kill` without the kill.
    pub no_kill: bool,
    /// A tiny graph and one iteration: what `run_remote` costs before any
    /// work (spawn + handshake + setup + drain).
    pub startup_only: bool,
}

fn iter_diffs_ms(done_ns: &[u64]) -> Vec<f64> {
    let mut prev = 0u64;
    done_ns
        .iter()
        .map(|&t| {
            let d = t.saturating_sub(prev);
            prev = t;
            d as f64 / 1e6
        })
        .collect()
}

fn check_pagerank(state: &[(u32, f64)], reference: &[f64], tol: f64) -> Result<(), String> {
    if state.len() != reference.len() {
        return Err(format!(
            "{} ranks, reference has {}",
            state.len(),
            reference.len()
        ));
    }
    for (i, ((k, v), r)) in state.iter().zip(reference).enumerate() {
        if *k as usize != i || !v.is_finite() || (v - r).abs() > tol {
            return Err(format!(
                "node {i}: key {k} rank {v} vs reference {r} (tolerance {tol})"
            ));
        }
    }
    Ok(())
}

fn check_kmeans(state: &[(u32, KmState)], reference: &[(u32, KmState)]) -> Result<(), String> {
    if state.len() != reference.len() {
        return Err(format!(
            "{} centroids, reference has {}",
            state.len(),
            reference.len()
        ));
    }
    for ((ka, (ca, _)), (kb, (cb, _))) in state.iter().zip(reference) {
        if ka != kb
            || ca.len() != cb.len()
            || ca
                .iter()
                .zip(cb)
                .any(|(x, y)| (x - y).is_nan() || (x - y).abs() > 1e-9)
        {
            return Err(format!(
                "centroid {ka} differs from reference centroid {kb}"
            ));
        }
    }
    Ok(())
}

fn finish_engine<S>(
    run: EngineRun<S>,
    obs: Option<&Observers>,
    marks: [Instant; 5],
    digest: u64,
) -> RepOut {
    let [t0, t1, t2, t3, t4] = marks;
    RepOut {
        setup_s: (t2 - t0).as_secs_f64(),
        wall_s: (t3 - t2).as_secs_f64(),
        unit_ms: iter_diffs_ms(&run.iter_done_ns),
        jobs_done: 1,
        digest,
        phases: vec![
            ("generate", t0, t1),
            ("load", t1, t2),
            ("run", t2, t3),
            ("verify", t3, t4),
        ],
        iterations: run.iterations,
        recoveries: run.recoveries,
        counters: run.counters,
        events: obs.map(|o| vec![o.events()]).unwrap_or_default(),
        phase_totals: obs.map(|o| o.phase_totals()).unwrap_or_default(),
        dropped_samples: obs.map_or(0, |o| o.dropped_samples()),
        async_overlap: obs.map_or(0.0, |o| o.async_overlap()),
    }
}

/// One rep of `wl`. Any error string is a failed rep.
pub fn rep(
    wl: Workload,
    sz: &Sizes,
    seed: u64,
    reference: &Reference,
    v: Variant,
) -> Result<RepOut, String> {
    let pairs = v.pairs.unwrap_or(sz.pairs);
    let obs = v.traced.then(Observers::new);
    let t0 = Instant::now();
    match (wl, reference) {
        (Workload::JobsMixed, _) => {
            let svc = Service::new(pairs);
            let batch = sz.job_batch(seed);
            let ids = batch
                .iter()
                .map(|j| svc.submit(j))
                .collect::<Result<Vec<u64>, String>>()?;
            let t2 = Instant::now();
            svc.drain()?;
            let t3 = Instant::now();
            let unfinished = svc.unfinished();
            if !unfinished.is_empty() {
                return Err(format!("jobs not Completed: {unfinished:?}"));
            }
            let mut journal = Vec::new();
            for (id, job) in ids.iter().zip(&batch) {
                let (iterations, state) =
                    svc.result(*id)?.ok_or(format!("job {id} has no result"))?;
                if iterations != job.iters as u64 || state.is_empty() {
                    return Err(format!(
                        "job {id}: {iterations} iterations, {} state bytes",
                        state.len()
                    ));
                }
                journal.extend_from_slice(&iterations.to_le_bytes());
                journal.extend_from_slice(&state);
            }
            let t4 = Instant::now();
            let wall_s = (t3 - t2).as_secs_f64();
            Ok(RepOut {
                setup_s: (t2 - t0).as_secs_f64(),
                wall_s,
                unit_ms: vec![wall_s * 1e3 / ids.len() as f64],
                jobs_done: ids.len(),
                digest: fnv1a(&journal),
                phases: vec![("submit", t0, t2), ("run", t2, t3), ("verify", t3, t4)],
                iterations: ids.len() * sz.job_iters,
                recoveries: 0,
                counters: Counters::default(),
                events: svc.events().into_iter().map(|(_, e)| e).collect(),
                phase_totals: svc.phase_totals(),
                dropped_samples: svc.dropped_samples(),
                async_overlap: 0.0,
            })
        }
        (Workload::KmeansBroadcast, Reference::Kmeans(reference)) => {
            let points = adapter::generate_points(sz.km_points, sz.km_dim, sz.km_k, seed);
            let t1 = Instant::now();
            let runner = adapter::fresh_runner(pairs, obs.as_ref());
            adapter::load_kmeans(&runner, &points, sz.km_k, pairs)?;
            drop(points);
            let t2 = Instant::now();
            let run = adapter::run_kmeans(&runner, pairs, sz.km_iters)?;
            let t3 = Instant::now();
            check_kmeans(&run.final_state, reference)?;
            let digest = fnv1a(&adapter::encode_state(&run.final_state));
            Ok(finish_engine(
                run,
                obs.as_ref(),
                [t0, t1, t2, t3, Instant::now()],
                digest,
            ))
        }
        (_, Reference::Pagerank(reference)) => {
            let (nodes, edges, iters) = if v.startup_only {
                (1_000, 7_000, 1)
            } else {
                (sz.pr_nodes, sz.pr_edges, sz.pr_iters)
            };
            let g = adapter::generate_pagerank_graph(nodes, edges, seed);
            let t1 = Instant::now();
            let runner = adapter::fresh_runner(pairs, obs.as_ref());
            adapter::load_pagerank(&runner, &g, pairs)?;
            drop(g);
            let t2 = Instant::now();
            let job = PagerankJob {
                nodes,
                pairs,
                iters,
                fabric: match wl {
                    Workload::PagerankTcp => Fabric::Tcp {
                        worker_bin: &sz.worker_bin,
                    },
                    _ => Fabric::Channels,
                },
                checkpoint_every: (wl == Workload::PagerankCkptKill).then_some(sz.ckpt_every),
                kill_after: (wl == Workload::PagerankCkptKill && !v.no_kill)
                    .then_some(sz.kill_after),
            };
            let (run, tol) = if wl == Workload::PagerankDelta {
                (
                    adapter::run_pagerank_delta(&runner, nodes, pairs, sz.delta_eps, sz.delta_cap)?,
                    sz.delta_tol,
                )
            } else {
                (adapter::run_pagerank(&runner, &job)?, sz.pr_tol)
            };
            let t3 = Instant::now();
            if !v.startup_only {
                check_pagerank(&run.final_state, reference, tol)?;
                if wl == Workload::PagerankDelta && run.iterations >= sz.delta_cap {
                    return Err(format!("delta mode hit the {}-epoch cap", sz.delta_cap));
                }
                let expect = u64::from(job.kill_after.is_some());
                if run.recoveries != expect {
                    return Err(format!("{} recoveries, expected {expect}", run.recoveries));
                }
            }
            let digest = fnv1a(&adapter::encode_state(&run.final_state));
            Ok(finish_engine(
                run,
                obs.as_ref(),
                [t0, t1, t2, t3, Instant::now()],
                digest,
            ))
        }
        _ => Err("reference does not match the workload".to_owned()),
    }
}

/// Runs `f` on its own thread under the per-rep watchdog: a panic, a
/// typed error or a timeout comes back as `Err`, never as an abort.
pub fn guarded<T: Send + 'static>(
    f: impl FnOnce() -> Result<T, String> + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(REP_WATCHDOG) {
        Ok(result) => {
            let _ = handle.join();
            result
        }
        // The sender was dropped without a value: the rep panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let panic = handle.join().err();
            let msg = panic.as_ref().and_then(|p| {
                p.downcast_ref::<String>()
                    .cloned()
                    .or(p.downcast_ref::<&str>().map(|s| s.to_string()))
            });
            Err(format!("rep panicked: {}", msg.unwrap_or_default()))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            REP_TIMED_OUT.store(true, Ordering::SeqCst);
            Err(format!(
                "rep exceeded the {} s watchdog",
                REP_WATCHDOG.as_secs()
            ))
        }
    }
}

/// [`rep`] under the watchdog.
pub fn guarded_rep(
    wl: Workload,
    sz: &Arc<Sizes>,
    seed: u64,
    reference: &Arc<Reference>,
    v: Variant,
) -> Result<RepOut, String> {
    let (sz, reference) = (Arc::clone(sz), Arc::clone(reference));
    guarded(move || rep(wl, &sz, seed, &reference, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_diffs_start_at_the_call() {
        assert_eq!(
            iter_diffs_ms(&[2_000_000, 5_000_000, 5_500_000]),
            [2.0, 3.0, 0.5]
        );
    }

    #[test]
    fn guarded_turns_panics_and_errors_into_failed_reps() {
        assert_eq!(guarded(|| Ok(7)), Ok(7));
        assert_eq!(
            guarded(|| Err::<u8, _>("typed".to_owned())),
            Err("typed".to_owned())
        );
        let panicked = guarded(|| -> Result<u8, String> { panic!("boom") });
        assert_eq!(panicked, Err("rep panicked: boom".to_owned()));
        assert!(!REP_TIMED_OUT.load(Ordering::SeqCst));
    }

    #[test]
    fn reference_checks_catch_wrong_answers() {
        let reference = vec![0.25, 0.75];
        assert!(check_pagerank(&[(0, 0.25), (1, 0.75)], &reference, 1e-9).is_ok());
        assert!(check_pagerank(&[(0, 0.25), (1, 0.7501)], &reference, 1e-9).is_err());
        assert!(check_pagerank(&[(0, 0.25), (1, f64::NAN)], &reference, 1e-9).is_err());
        assert!(check_pagerank(&[(0, 0.25)], &reference, 1e-9).is_err());
        let c = |x: f64| vec![(0u32, (vec![x, 1.0], 1u64))];
        assert!(check_kmeans(&c(2.0), &c(2.0)).is_ok());
        assert!(check_kmeans(&c(2.0), &c(2.1)).is_err());
    }

    #[test]
    fn job_batch_cycles_algorithms_and_widths() {
        let sz = Sizes {
            pairs: 2,
            ..Sizes::quick(PathBuf::new())
        };
        let batch = sz.job_batch(11);
        assert_eq!(batch.len(), sz.jobs);
        assert!(matches!(batch[0].algo, JobAlgo::Sssp) && matches!(batch[3].algo, JobAlgo::Halve));
        assert_eq!((batch[0].tasks, batch[4].tasks), (1, 2));
        let single = Sizes { pairs: 1, ..sz };
        assert!(single.job_batch(11).iter().all(|j| j.tasks == 1));
    }
}
