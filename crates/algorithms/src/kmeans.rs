//! K-means clustering (paper §5.1) — the one2all broadcast workload —
//! on both engines, with optional Combiner and the §5.3 auxiliary
//! convergence-detection phase.
//!
//! State values carry `(vector, count)`: the map emits a point with
//! count 1, `fold` adds vectors and counts (on the map side too, with
//! the combiner), and `finish` divides the sum into the centroid.

use imapreduce::{
    load_partitioned, run_with_aux, AuxOutcome, AuxPhase, Emitter, IterConfig, IterEngine,
    IterOutcome, IterativeJob, IterativeRunner, StateInput,
};
use imr_mapreduce::io::num_parts;
use imr_mapreduce::{EngineError, JobConfig, JobRunner, MrJob};
use imr_records::pairs_encoded_len;
use imr_simcluster::{NodeId, RunReport, TaskClock, VInstant};

/// A centroid or partial sum: `(vector, count)`.
pub type KmState = (Vec<f64>, u64);

/// Squared Euclidean distance between two vectors.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Index of the nearest centroid (ties broken by lower centroid id).
/// Distances order by `total_cmp`: a point with a NaN coordinate is the
/// same NaN away from every centroid and joins the lowest id.
fn nearest(point: &[f64], centroids: &[(u32, KmState)]) -> u32 {
    centroids
        .iter()
        .map(|(cid, (c, _))| (*cid, dist2(point, c)))
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .expect("at least one centroid")
        .0
}

// ---------------------------------------------------------------------
// iMapReduce implementation
// ---------------------------------------------------------------------

/// The iMapReduce K-means job: one2all mapping, synchronous maps.
#[derive(Debug, Clone, Copy)]
pub struct KmeansIter {
    /// Whether the map side runs the partial-sum Combiner.
    pub combiner: bool,
}

impl IterativeJob for KmeansIter {
    type K = u32; // centroid id
    type S = KmState;
    type T = Vec<f64>; // point coordinates (static, keyed by point id)

    fn map(
        &self,
        _pid: &u32,
        state: StateInput<'_, u32, KmState>,
        point: &Vec<f64>,
        out: &mut Emitter<u32, KmState>,
    ) {
        let cid = nearest(point, state.all());
        out.emit(cid, (point.clone(), 1));
    }

    fn fold(&self, _cid: &u32, (sum, total): &mut KmState, (v, c): KmState) {
        for (s, x) in sum.iter_mut().zip(&v) {
            *s += x;
        }
        *total += c;
    }

    fn finish(&self, _cid: &u32, (mut sum, total): KmState) -> KmState {
        sum.iter_mut().for_each(|s| *s /= total as f64);
        (sum, 1)
    }

    fn distance(&self, _k: &u32, prev: &KmState, cur: &KmState) -> f64 {
        prev.0.iter().zip(&cur.0).map(|(a, b)| (a - b).abs()).sum()
    }

    fn has_combiner(&self) -> bool {
        self.combiner
    }
}

/// `k` centroids need `k` points to start from, and at least one.
fn check_k(points: &[(u32, Vec<f64>)], k: usize) -> Result<(), EngineError> {
    if k == 0 || k > points.len() {
        return Err(EngineError::Config(format!(
            "k-means needs 1 <= k <= {} (the number of points), got k = {k}",
            points.len()
        )));
    }
    Ok(())
}

/// Initial centroids: the first `k` points, exactly reproducible by
/// the sequential reference.
///
/// # Panics
/// Unless `1 <= k <= points.len()`; the loaders check that first.
pub fn initial_centroids(points: &[(u32, Vec<f64>)], k: usize) -> Vec<(u32, KmState)> {
    assert!(k >= 1 && k <= points.len());
    (0..k as u32)
        .map(|i| (i, (points[i as usize].1.clone(), 1)))
        .collect()
}

/// Loads points (static) and initial centroids (state) for the
/// iMapReduce job. A `k` of 0 or above the number of points is a
/// [`EngineError::Config`].
pub fn load_kmeans_imr(
    runner: &impl IterEngine,
    points: &[(u32, Vec<f64>)],
    k: usize,
    num_tasks: usize,
    state_dir: &str,
    static_dir: &str,
) -> Result<(), EngineError> {
    check_k(points, k)?;
    let mut clock = TaskClock::default();
    let centroids = initial_centroids(points, k);
    load_partitioned(runner.dfs(), state_dir, centroids, 1, |_, _| 0, &mut clock)?;
    let job = KmeansIter { combiner: false };
    load_partitioned(
        runner.dfs(),
        static_dir,
        points,
        num_tasks,
        |key, n| job.partition(key, n),
        &mut clock,
    )?;
    Ok(())
}

/// Runs K-means under iMapReduce (one2all broadcast, sync maps).
pub fn run_kmeans_imr(
    runner: &impl IterEngine,
    points: &[(u32, Vec<f64>)],
    k: usize,
    cfg: &IterConfig,
    combiner: bool,
) -> Result<IterOutcome<u32, KmState>, EngineError> {
    crate::check_one2all(cfg, "K-means")?;
    load_kmeans_imr(runner, points, k, cfg.num_tasks, "/km/state", "/km/static")?;
    let job = KmeansIter { combiner };
    runner.run(&job, cfg, "/km/state", "/km/static", "/km/out", &[])
}

// ---------------------------------------------------------------------
// Auxiliary convergence detection (paper §5.3)
// ---------------------------------------------------------------------

/// Auxiliary phase counting how far centroids moved; terminates when
/// the total movement falls below `threshold`. This mirrors the
/// paper's `num_move` rule at centroid granularity: a centroid whose
/// member set changed necessarily moves.
#[derive(Debug, Clone, Copy)]
pub struct CentroidStability {
    /// Stop when the summed per-centroid movement is below this.
    pub threshold: f64,
}

impl AuxPhase<u32, KmState> for CentroidStability {
    fn partial(&self, prev: &[(u32, KmState)], cur: &[(u32, KmState)]) -> f64 {
        let mut moved = 0.0;
        for (cid, (c, _)) in cur {
            match prev.binary_search_by(|(p, _)| p.cmp(cid)) {
                Ok(i) => {
                    moved += c
                        .iter()
                        .zip(&prev[i].1 .0)
                        .map(|(a, b)| (a - b).abs())
                        .sum::<f64>()
                }
                Err(_) => moved += 1.0,
            }
        }
        moved
    }

    fn should_terminate(&self, total: f64) -> bool {
        total < self.threshold
    }
}

/// Runs K-means with the auxiliary convergence-detection phase.
pub fn run_kmeans_imr_aux(
    runner: &IterativeRunner,
    points: &[(u32, Vec<f64>)],
    k: usize,
    cfg: &IterConfig,
    threshold: f64,
) -> Result<AuxOutcome<u32, KmState>, EngineError> {
    crate::check_one2all(cfg, "K-means")?;
    load_kmeans_imr(runner, points, k, cfg.num_tasks, "/km/state", "/km/static")?;
    let job = KmeansIter { combiner: false };
    let aux = CentroidStability { threshold };
    run_with_aux(
        runner,
        &job,
        &aux,
        cfg,
        "/km/state",
        "/km/static",
        "/km/out",
    )
}

// ---------------------------------------------------------------------
// Baseline Hadoop implementation
// ---------------------------------------------------------------------

/// One iteration's baseline job: the current centroids ride along as
/// job configuration (Hadoop distributed cache), points are the input.
#[derive(Debug, Clone)]
pub struct KmeansMr {
    /// Current centroids.
    pub centroids: Vec<(u32, KmState)>,
    /// Whether the combiner runs.
    pub combiner: bool,
}

impl MrJob for KmeansMr {
    type InK = u32; // point id
    type InV = Vec<f64>; // point coordinates
    type MidK = u32; // centroid id
    type MidV = KmState;
    type OutK = u32;
    type OutV = KmState;

    fn map(&self, _pid: &u32, point: &Vec<f64>, out: &mut Emitter<u32, KmState>) {
        let cid = nearest(point, &self.centroids);
        out.emit(cid, (point.clone(), 1));
    }

    fn reduce(&self, cid: &u32, values: Vec<KmState>, out: &mut Emitter<u32, KmState>) {
        let job = KmeansIter {
            combiner: self.combiner,
        };
        let mut values = values.into_iter();
        if let Some(mut acc) = values.next() {
            values.for_each(|v| job.fold(cid, &mut acc, v));
            out.emit(*cid, job.finish(cid, acc));
        }
    }

    fn has_combiner(&self) -> bool {
        self.combiner
    }

    fn combine(&self, cid: &u32, acc: &mut KmState, v: KmState) {
        KmeansIter { combiner: true }.fold(cid, acc, v)
    }
}

/// Outcome of the baseline K-means driver.
#[derive(Debug, Clone)]
pub struct KmeansMrOutcome {
    /// Per-iteration completion timeline.
    pub report: RunReport,
    /// Final centroids, sorted by id.
    pub centroids: Vec<(u32, KmState)>,
    /// Iterations executed.
    pub iterations: usize,
}

/// The baseline K-means driver: one MapReduce job per iteration over
/// the (reloaded) point set, centroids distributed via side input, and
/// — when `convergence_threshold` is set — an additional MapReduce job
/// per iteration that re-reads the points to measure movement, exactly
/// the §5.3 baseline.
pub fn run_kmeans_mr(
    runner: &JobRunner,
    points: &[(u32, Vec<f64>)],
    k: usize,
    num_tasks: usize,
    max_iterations: usize,
    combiner: bool,
    convergence_threshold: Option<f64>,
) -> Result<KmeansMrOutcome, EngineError> {
    check_k(points, k)?;
    let points_dir = "/km-mr/points";
    let mut clock = TaskClock::default();
    runner.load_input(points_dir, points, num_tasks, &mut clock)?;
    let mut centroids = initial_centroids(points, k);
    let mut now = VInstant::EPOCH;
    let mut report = RunReport {
        label: "MapReduce".into(),
        ..RunReport::default()
    };
    let mut iterations = 0;

    for iter in 1..=max_iterations {
        let side_bytes = pairs_encoded_len(&centroids) as u64;
        let job = KmeansMr {
            centroids: centroids.clone(),
            combiner,
        };
        let conf =
            JobConfig::new(format!("kmeans-{iter}"), num_tasks).with_side_input_bytes(side_bytes);
        let out_dir = format!("/km-mr/iter-{iter:04}");
        let res = runner.run(&job, &conf, points_dir, &out_dir, now)?;
        now = res.finished;

        // The driver fetches the (tiny) new centroids from DFS.
        let mut dclock = TaskClock::starting_at(now);
        let mut new_centroids: Vec<(u32, KmState)> =
            imr_mapreduce::io::read_all(runner.dfs(), &out_dir, NodeId(0), &mut dclock)?;
        new_centroids.sort_by_key(|(cid, _)| *cid);
        now = dclock.now();
        report.iteration_done.push(now);
        iterations = iter;

        let mut stop = false;
        if let Some(eps) = convergence_threshold {
            // Separate convergence-detection MapReduce job: full job
            // overhead plus a pass over the points.
            let cost = &runner.cluster().cost;
            runner.metrics().jobs_launched.add(1);
            let job_start = if runner.charge_init {
                now + cost.job_setup
            } else {
                now
            };
            let mut done = Vec::new();
            for p in 0..num_parts(runner.dfs(), points_dir) {
                let mut c = TaskClock::starting_at(job_start);
                if runner.charge_init {
                    c.advance(cost.task_launch);
                }
                runner.metrics().tasks_launched.add(1);
                // Reads the split plus both centroid files.
                let bytes = runner
                    .dfs()
                    .len(&imr_mapreduce::io::part_path(points_dir, p))
                    .unwrap_or(0);
                c.advance(cost.disk_time(bytes));
                c.advance(cost.remote_transfer_time(2 * side_bytes));
                c.advance(cost.compute_time(
                    points.len() as u64 / num_tasks.max(1) as u64,
                    bytes,
                    1.0,
                ));
                done.push(c.now() + cost.remote_transfer_time(16));
            }
            let mut agg = TaskClock::starting_at(job_start);
            if runner.charge_init {
                agg.advance(cost.task_launch);
            }
            runner.metrics().tasks_launched.add(1);
            agg.barrier(done);
            agg.advance(cost.disk_time(16));
            now = agg.now();

            let moved: f64 = new_centroids
                .iter()
                .map(|(cid, (c, _))| {
                    centroids
                        .binary_search_by(|(p, _)| p.cmp(cid))
                        .ok()
                        .map_or(1.0, |i| {
                            c.iter()
                                .zip(&centroids[i].1 .0)
                                .map(|(a, b)| (a - b).abs())
                                .sum()
                        })
                })
                .sum();
            stop = moved < eps;
        }

        centroids = new_centroids;
        if stop {
            break;
        }
    }

    report.finished = now;
    report.metrics = runner.metrics().snapshot();
    Ok(KmeansMrOutcome {
        report,
        centroids,
        iterations,
    })
}

// ---------------------------------------------------------------------
// Sequential reference
// ---------------------------------------------------------------------

/// Lloyd iterations matching the engines exactly: same initial
/// centroids, same nearest-centroid tie-break, empty clusters dropped.
pub fn reference_kmeans(
    points: &[(u32, Vec<f64>)],
    k: usize,
    iterations: usize,
) -> Vec<(u32, KmState)> {
    let mut centroids = initial_centroids(points, k);
    for _ in 0..iterations {
        let dim = points[0].1.len();
        let mut sums: std::collections::BTreeMap<u32, (Vec<f64>, u64)> =
            std::collections::BTreeMap::new();
        for (_, p) in points {
            let cid = nearest(p, &centroids);
            let entry = sums.entry(cid).or_insert_with(|| (vec![0.0; dim], 0));
            for (s, x) in entry.0.iter_mut().zip(p) {
                *s += x;
            }
            entry.1 += 1;
        }
        centroids = sums
            .into_iter()
            .map(|(cid, (sum, n))| (cid, (sum.iter().map(|s| s / n as f64).collect(), 1)))
            .collect();
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{imr_runner, mr_runner};
    use imr_graph::generate_points;

    fn data() -> Vec<(u32, Vec<f64>)> {
        generate_points(300, 3, 4, 5)
    }

    fn assert_centroids_close(a: &[(u32, KmState)], b: &[(u32, KmState)]) {
        assert_eq!(a.len(), b.len());
        for ((ka, (ca, _)), (kb, (cb, _))) in a.iter().zip(b) {
            assert_eq!(ka, kb);
            for (x, y) in ca.iter().zip(cb) {
                assert!((x - y).abs() < 1e-9, "centroid {ka}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn imr_matches_reference() {
        let pts = data();
        let r = imr_runner(4);
        let cfg = IterConfig::new("km", 4, 5).with_one2all();
        let out = run_kmeans_imr(&r, &pts, 4, &cfg, false).unwrap();
        let expect = reference_kmeans(&pts, 4, 5);
        assert_centroids_close(&out.final_state, &expect);
    }

    #[test]
    fn combiner_does_not_change_results_but_cuts_shuffle() {
        let pts = data();
        let r1 = imr_runner(4);
        let cfg = IterConfig::new("km", 4, 5).with_one2all();
        let plain = run_kmeans_imr(&r1, &pts, 4, &cfg, false).unwrap();
        let r2 = imr_runner(4);
        let combined = run_kmeans_imr(&r2, &pts, 4, &cfg, true).unwrap();
        assert_centroids_close(&plain.final_state, &combined.final_state);
        assert!(
            combined.report.metrics.shuffle_remote_bytes
                < plain.report.metrics.shuffle_remote_bytes
        );
        assert!(combined.report.finished < plain.report.finished);
    }

    #[test]
    fn baseline_matches_reference_and_is_slower() {
        let pts = data();
        let mr = mr_runner(4);
        let out = run_kmeans_mr(&mr, &pts, 4, 4, 5, false, None).unwrap();
        let expect = reference_kmeans(&pts, 4, 5);
        assert_centroids_close(&out.centroids, &expect);

        let imr = imr_runner(4);
        let cfg = IterConfig::new("km", 4, 5).with_one2all();
        let fast = run_kmeans_imr(&imr, &pts, 4, &cfg, false).unwrap();
        assert!(fast.report.finished < out.report.finished);
    }

    #[test]
    fn aux_detection_terminates_early_and_matches_reference() {
        let pts = data();
        let r = imr_runner(4);
        let cfg = IterConfig::new("km", 4, 30).with_one2all();
        let out = run_kmeans_imr_aux(&r, &pts, 4, &cfg, 1e-9).unwrap();
        assert!(out.iterations < 30);
        let expect = reference_kmeans(&pts, 4, out.iterations);
        assert_centroids_close(&out.final_state, &expect);
    }

    #[test]
    fn a_nan_coordinate_joins_the_lowest_centroid_instead_of_panicking() {
        let centroids = vec![(0, (vec![0.0, 0.0], 1)), (1, (vec![5.0, 5.0], 1))];
        assert_eq!(nearest(&[f64::NAN, 4.0], &centroids), 0);
        assert_eq!(nearest(&[4.0, 4.0], &centroids), 1);
        let mut pts = data();
        pts[7].1[1] = f64::NAN;
        let cfg = IterConfig::new("km", 2, 3).with_one2all();
        let out = run_kmeans_imr(&imr_runner(2), &pts, 4, &cfg, true).unwrap();
        assert_eq!(out.iterations, 3);
    }

    #[test]
    fn a_k_the_points_cannot_seed_is_a_config_error() {
        let pts = data();
        for k in [0, pts.len() + 1] {
            let load = load_kmeans_imr(&imr_runner(2), &pts, k, 2, "/s", "/t");
            assert!(
                matches!(load, Err(EngineError::Config(_))),
                "k = {k}: {load:?}"
            );
            let baseline = run_kmeans_mr(&mr_runner(2), &pts, k, 2, 1, false, None);
            assert!(matches!(baseline, Err(EngineError::Config(_))), "k = {k}");
        }
    }

    #[test]
    fn a_one2one_config_is_a_config_error() {
        let pts = data();
        let cfg = IterConfig::new("km", 2, 3);
        let run = run_kmeans_imr(&imr_runner(2), &pts, 4, &cfg, false);
        assert!(matches!(run, Err(EngineError::Config(_))), "{run:?}");
        let aux = run_kmeans_imr_aux(&imr_runner(2), &pts, 4, &cfg, 1e-9);
        assert!(matches!(aux, Err(EngineError::Config(_))), "{aux:?}");
    }

    #[test]
    fn baseline_convergence_job_costs_extra_time() {
        let pts = data();
        let a = run_kmeans_mr(&mr_runner(4), &pts, 4, 4, 4, false, None).unwrap();
        let b = run_kmeans_mr(&mr_runner(4), &pts, 4, 4, 4, false, Some(-1.0)).unwrap();
        assert_eq!(a.iterations, b.iterations);
        assert!(b.report.finished > a.report.finished);
        assert_centroids_close(&a.centroids, &b.centroids);
    }
}
