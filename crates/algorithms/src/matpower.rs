//! Matrix power computation (paper §5.2) — the two-phase-per-iteration
//! workload. Each multiplication multiplies the static matrix `M` into
//! the iterated matrix `N` (`N ← M·N`), expressed as two chained
//! map-reduce phases exactly as the paper describes:
//!
//! * phase 0 groups `N`'s cells into rows keyed by the join index `j`;
//! * phase 1 joins row `j` of `N` with the static column `j` of `M`,
//!   emits all partial products keyed `(i, k)`, and sums them.
//!
//! Under iMapReduce the two phases are one phased [`IterativeJob`]
//! ([`MatPowerIter`], two phases), so a multiplication is two iterations
//! of the pair loop every engine runs, with its checkpoints, faults and
//! migrations.
//!
//! The baseline is the textbook Hadoop two-job matrix multiply [29],
//! re-reading and re-shuffling the tagged cells of *both* matrices in
//! every iteration.

use imapreduce::{
    load_partitioned, Emitter, FaultEvent, IterConfig, IterEngine, IterOutcome, IterativeJob,
    StateInput,
};
use imr_mapreduce::{EngineError, JobConfig, JobRunner, MrJob};
use imr_records::{HashPartitioner, PairPartitioner, Partitioner};
use imr_simcluster::{NodeId, RunReport, TaskClock, VInstant};

/// A dense matrix as nested rows.
pub type Dense = Vec<Vec<f64>>;

/// Cell key: `(row, col)`.
pub type Cell = (u32, u32);

// ---------------------------------------------------------------------
// iMapReduce implementation: one job of two phases
// ---------------------------------------------------------------------

/// A key of [`MatPowerIter`]: cell `(i, Some(k))` of `N`, or row
/// `(j, None)` of it.
pub type MpKey = (u32, Option<u32>);

/// A key's state: a cell's value, or a row's `(column, value)` entries.
/// A cell's entries stay empty and a row's value zero.
pub type MpState = (f64, Vec<(u32, f64)>);

/// `N ← M·N` as one job of two phases. Phase 0 maps each cell `(j, k)`
/// of `N` to row `j`, whose reduce folds the pieces into the row and
/// sorts it; phase 1 joins row `j` with its static column `j` of `M`
/// and emits every partial product to its cell, whose reduce sums them.
/// The static record of a cell (phase 0) is an empty list.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatPowerIter;

impl IterativeJob for MatPowerIter {
    type K = MpKey;
    type S = MpState;
    type T = Vec<(u32, f64)>;

    fn map(
        &self,
        key: &MpKey,
        state: StateInput<'_, MpKey, MpState>,
        col: &Vec<(u32, f64)>,
        out: &mut Emitter<MpKey, MpState>,
    ) {
        let (value, row) = state.one();
        match *key {
            (j, Some(k)) => out.emit((j, None), (0.0, vec![(k, *value)])),
            (_, None) => {
                for &(i, mij) in col {
                    for &(k, njk) in row {
                        out.emit((i, Some(k)), (mij * njk, Vec::new()));
                    }
                }
            }
        }
    }

    fn fold(&self, _key: &MpKey, acc: &mut MpState, (value, entries): MpState) {
        acc.0 += value;
        acc.1.extend(entries);
    }

    fn finish(&self, _key: &MpKey, mut acc: MpState) -> MpState {
        acc.1.sort_by_key(|&(k, _)| k);
        acc
    }

    fn partition(&self, key: &MpKey, n: usize) -> usize {
        match *key {
            (i, Some(k)) => PairPartitioner.partition(&(i, k), n),
            (j, None) => HashPartitioner.partition(&j, n),
        }
    }

    fn phases(&self) -> usize {
        2
    }
}

/// Writes [`MatPowerIter`]'s input for `num_tasks` pairs, with `N = M`:
/// the cells of `N` to `state_dir`, and to `static_dir` an empty list
/// per cell for phase 0 (parts `0..n`) and column `j` of `M` per row
/// `j` for phase 1 (parts `n..2n`).
pub fn load_matpower_imr(
    runner: &impl IterEngine,
    m: &Dense,
    num_tasks: usize,
    state_dir: &str,
    static_dir: &str,
) -> Result<(), EngineError> {
    let job = MatPowerIter;
    let mut clock = TaskClock::default();
    let state: Vec<(MpKey, MpState)> = cells(m)
        .into_iter()
        .map(|((i, k), v)| ((i, Some(k)), (v, Vec::new())))
        .collect();
    let statics: Vec<(MpKey, Vec<(u32, f64)>)> = (state.iter())
        .map(|(cell, _)| (*cell, Vec::new()))
        .chain(columns(m).into_iter().map(|(j, col)| ((j, None), col)))
        .collect();
    let part = |k: &MpKey, n| job.partition(k, n);
    load_partitioned(runner.dfs(), state_dir, state, num_tasks, part, &mut clock)?;
    let phase_part = |k: &MpKey, _| usize::from(k.1.is_none()) * num_tasks + part(k, num_tasks);
    load_partitioned(
        runner.dfs(),
        static_dir,
        statics,
        2 * num_tasks,
        phase_part,
        &mut clock,
    )
}

/// Cells of a dense matrix.
pub fn cells(m: &Dense) -> Vec<(Cell, f64)> {
    m.iter()
        .enumerate()
        .flat_map(|(i, row)| {
            row.iter()
                .enumerate()
                .map(move |(j, &v)| ((i as u32, j as u32), v))
        })
        .collect()
}

/// Columns of a dense matrix, keyed by column index.
pub fn columns(m: &Dense) -> Vec<(u32, Vec<(u32, f64)>)> {
    let n = m.len();
    (0..n as u32)
        .map(|j| {
            (
                j,
                (0..n as u32)
                    .map(|i| (i, m[i as usize][j as usize]))
                    .collect(),
            )
        })
        .collect()
}

/// Runs `iterations` matrix multiplications under iMapReduce on
/// `runner`, computing `M^(iterations+1)` (the state starts at `N = M`):
/// [`run_matpower_faults`] with a plain configuration and no fault.
pub fn run_matpower_imr(
    runner: &impl IterEngine,
    m: &Dense,
    num_tasks: usize,
    iterations: usize,
) -> Result<IterOutcome<Cell, f64>, EngineError> {
    let cfg = IterConfig::new("matpower", num_tasks, iterations);
    run_matpower_faults(runner, m, &cfg, &[])
}

/// Runs `cfg.termination.max_iterations` matrix multiplications under
/// iMapReduce on `runner`, computing `M^(multiplications+1)` (the state
/// starts at `N = M`). Each multiplication is two iterations of the
/// pair loop, so `cfg`'s checkpoint interval and the iterations
/// `faults` name count phases: a fault at an odd iteration lands
/// mid-multiplication. The outcome counts multiplications — its
/// iterations, distances and timeline keep every second iteration —
/// and holds the cells of the result, sorted.
pub fn run_matpower_faults(
    runner: &impl IterEngine,
    m: &Dense,
    cfg: &IterConfig,
    faults: &[FaultEvent],
) -> Result<IterOutcome<Cell, f64>, EngineError> {
    let job = MatPowerIter;
    load_matpower_imr(runner, m, cfg.num_tasks, "/mp/state", "/mp/static")?;
    let mut phased = cfg.clone();
    phased.termination.max_iterations *= job.phases();
    let out = runner.run_faults(&job, &phased, "/mp/state", "/mp/static", "/mp/out", faults)?;
    // A multiplication ends with its second phase.
    fn rounds<T>(every: Vec<T>) -> Vec<T> {
        every.into_iter().skip(1).step_by(2).collect()
    }
    let report = RunReport {
        iteration_done: rounds(out.report.iteration_done),
        ..out.report
    };
    let final_state = (out.final_state.into_iter())
        .filter_map(|((i, k), (v, _))| Some(((i, k?), v)))
        .collect();
    Ok(IterOutcome {
        report,
        final_state,
        iterations: out.iterations / job.phases(),
        distances: rounds(out.distances),
        migrations: out.migrations,
        recoveries: out.recoveries,
    })
}

// ---------------------------------------------------------------------
// Baseline Hadoop implementation: two chained jobs per iteration
// ---------------------------------------------------------------------

/// Tagged cell value: `(tag, value)` where tag 0 = `M`, tag 1 = `N`.
pub type Tagged = (u8, f64);

/// Job A: route `M` cells and `N` cells to their join key `j`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatJoinMr;

impl MrJob for MatJoinMr {
    type InK = Cell;
    type InV = Tagged;
    type MidK = u32;
    type MidV = (u8, u32, f64);
    type OutK = u32;
    type OutV = Vec<(u8, u32, f64)>;

    fn map(&self, key: &Cell, value: &Tagged, out: &mut Emitter<u32, (u8, u32, f64)>) {
        let (tag, v) = *value;
        if tag == 0 {
            // M cell (i, j): join key j, remember i.
            out.emit(key.1, (0, key.0, v));
        } else {
            // N cell (j, k): join key j, remember k.
            out.emit(key.0, (1, key.1, v));
        }
    }

    fn reduce(
        &self,
        j: &u32,
        values: Vec<(u8, u32, f64)>,
        out: &mut Emitter<u32, Vec<(u8, u32, f64)>>,
    ) {
        out.emit(*j, values);
    }
}

/// Job B: cross-multiply the joined lists and sum per `(i, k)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatMulMr;

impl MrJob for MatMulMr {
    type InK = u32;
    type InV = Vec<(u8, u32, f64)>;
    type MidK = Cell;
    type MidV = f64;
    type OutK = Cell;
    type OutV = Tagged;

    fn map(&self, _j: &u32, joined: &Vec<(u8, u32, f64)>, out: &mut Emitter<Cell, f64>) {
        let ms: Vec<(u32, f64)> = joined
            .iter()
            .filter(|(t, _, _)| *t == 0)
            .map(|&(_, i, v)| (i, v))
            .collect();
        let ns: Vec<(u32, f64)> = joined
            .iter()
            .filter(|(t, _, _)| *t == 1)
            .map(|&(_, k, v)| (k, v))
            .collect();
        for &(i, mij) in &ms {
            for &(k, njk) in &ns {
                out.emit((i, k), mij * njk);
            }
        }
    }

    fn reduce(&self, ik: &Cell, values: Vec<f64>, out: &mut Emitter<Cell, Tagged>) {
        // Tag 1 so the output can feed the next iteration's Job A as N.
        out.emit(*ik, (1, values.into_iter().sum()));
    }

    fn partition(&self, key: &Cell, n: usize) -> usize {
        PairPartitioner.partition(key, n)
    }
}

/// Outcome of the baseline matrix-power driver.
#[derive(Debug, Clone)]
pub struct MatPowerMrOutcome {
    /// Per-iteration completion timeline.
    pub report: RunReport,
    /// Final matrix cells, sorted by `(row, col)`.
    pub result: Vec<(Cell, f64)>,
    /// Iterations executed.
    pub iterations: usize,
}

/// The baseline driver: per iteration, Job A joins the tagged cells of
/// `M` (reloaded every time) and `N`, then Job B multiplies and sums.
pub fn run_matpower_mr(
    runner: &JobRunner,
    m: &Dense,
    num_tasks: usize,
    iterations: usize,
) -> Result<MatPowerMrOutcome, EngineError> {
    let mut clock = TaskClock::default();
    // Split each matrix into half the task count so Job A sees the
    // same total map granularity as the iMapReduce phases.
    let half = num_tasks.div_ceil(2);
    let m_cells: Vec<(Cell, Tagged)> = cells(m).into_iter().map(|(k, v)| (k, (0, v))).collect();
    let n_cells: Vec<(Cell, Tagged)> = cells(m).into_iter().map(|(k, v)| (k, (1, v))).collect();
    runner.load_input("/mp-mr/m", m_cells, half, &mut clock)?;
    runner.load_input("/mp-mr/n-0000", n_cells, half, &mut clock)?;

    let mut now = VInstant::EPOCH;
    let mut report = RunReport {
        label: "MapReduce".into(),
        ..RunReport::default()
    };
    let mut n_dir = "/mp-mr/n-0000".to_owned();
    for iter in 1..=iterations {
        let join_dir = format!("/mp-mr/join-{iter:04}");
        let res_a = runner.run_multi(
            &MatJoinMr,
            &JobConfig::new(format!("mat-join-{iter}"), num_tasks),
            &["/mp-mr/m", &n_dir],
            &join_dir,
            now,
        )?;
        let next_dir = format!("/mp-mr/n-{iter:04}");
        let res_b = runner.run(
            &MatMulMr,
            &JobConfig::new(format!("mat-mul-{iter}"), num_tasks),
            &join_dir,
            &next_dir,
            res_a.finished,
        )?;
        now = res_b.finished;
        report.iteration_done.push(now);
        imr_mapreduce::io::delete_dir(runner.dfs(), &join_dir);
        if n_dir != "/mp-mr/n-0000" {
            imr_mapreduce::io::delete_dir(runner.dfs(), &n_dir);
        }
        n_dir = next_dir;
    }

    let mut rc = TaskClock::starting_at(now);
    let mut result: Vec<(Cell, f64)> =
        imr_mapreduce::io::read_all::<Cell, Tagged>(runner.dfs(), &n_dir, NodeId(0), &mut rc)?
            .into_iter()
            .map(|(k, (_, v))| (k, v))
            .collect();
    result.sort_by_key(|&(k, _)| k);
    report.finished = now;
    report.metrics = runner.metrics().snapshot();
    Ok(MatPowerMrOutcome {
        report,
        result,
        iterations,
    })
}

// ---------------------------------------------------------------------
// Sequential reference
// ---------------------------------------------------------------------

/// Dense multiply: `a · b`.
pub fn matmul(a: &Dense, b: &Dense) -> Dense {
    let n = a.len();
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            let aij = a[i][j];
            if aij != 0.0 {
                for k in 0..n {
                    out[i][k] += aij * b[j][k];
                }
            }
        }
    }
    out
}

/// `M^(iterations+1)` by repeated multiplication (matching the engines'
/// starting point `N = M`).
pub fn reference_matpower(m: &Dense, iterations: usize) -> Dense {
    let mut n = m.clone();
    for _ in 0..iterations {
        n = matmul(m, &n);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{imr_runner, mr_runner};
    use imr_graph::generate_matrix;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn imr_two_phase_matches_reference() {
        let m = generate_matrix(12, 3);
        let r = imr_runner(4);
        let out = run_matpower_imr(&r, &m, 2, 3).unwrap();
        let expect = reference_matpower(&m, 3);
        assert_eq!(out.final_state.len(), 144);
        for ((i, k), v) in &out.final_state {
            assert!(
                close(*v, expect[*i as usize][*k as usize]),
                "({i},{k}): {v} vs {}",
                expect[*i as usize][*k as usize]
            );
        }
    }

    #[test]
    fn baseline_two_jobs_match_reference() {
        let m = generate_matrix(10, 4);
        let r = mr_runner(4);
        let out = run_matpower_mr(&r, &m, 2, 2).unwrap();
        let expect = reference_matpower(&m, 2);
        assert_eq!(out.result.len(), 100);
        for ((i, k), v) in &out.result {
            assert!(close(*v, expect[*i as usize][*k as usize]));
        }
    }

    #[test]
    fn engines_agree_and_imr_is_faster() {
        let m = generate_matrix(14, 9);
        let imr = imr_runner(4);
        let a = run_matpower_imr(&imr, &m, 2, 2).unwrap();
        let mr = mr_runner(4);
        let b = run_matpower_mr(&mr, &m, 2, 2).unwrap();
        for (x, y) in a.final_state.iter().zip(&b.result) {
            assert_eq!(x.0, y.0);
            assert!(close(x.1, y.1));
        }
        assert!(a.report.finished < b.report.finished);
    }
}
