//! Jacobi iteration (paper §5.1) — the other one2all broadcast example:
//! `x^(k+1) = D^{-1}(b − R·x^(k))`. Every mapper needs the whole
//! iterated vector `x`, so reduce output is broadcast to all maps.

use imapreduce::{
    load_partitioned, Emitter, IterConfig, IterEngine, IterOutcome, IterativeJob, StateInput,
};
use imr_mapreduce::EngineError;
use imr_records::{ModPartitioner, Partitioner};
use imr_simcluster::TaskClock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Static per-row data: `(off-diagonal entries, diagonal a_ii, b_i)`.
pub type Row = (Vec<(u32, f64)>, f64, f64);

/// The iMapReduce Jacobi job.
#[derive(Debug, Clone, Copy, Default)]
pub struct JacobiIter;

impl IterativeJob for JacobiIter {
    type K = u32;
    type S = f64;
    type T = Row;

    fn map(
        &self,
        i: &u32,
        state: StateInput<'_, u32, f64>,
        row: &Row,
        out: &mut Emitter<u32, f64>,
    ) {
        let x = state.all();
        let (off, aii, b) = row;
        let mut acc = 0.0;
        for &(j, aij) in off {
            // x is sorted by key and dense 0..n, so index directly.
            acc += aij * x[j as usize].1;
        }
        out.emit(*i, (b - acc) / aii);
    }

    /// Each unknown receives exactly one value, its update: the first
    /// value is the state, and a second one is never folded in.
    fn fold(&self, _i: &u32, _acc: &mut f64, _v: f64) {
        debug_assert!(false, "one value per unknown");
    }

    fn distance(&self, _k: &u32, prev: &f64, cur: &f64) -> f64 {
        (prev - cur).abs()
    }

    fn partition(&self, key: &u32, n: usize) -> usize {
        ModPartitioner.partition(key, n)
    }
}

/// A random sparse, strictly diagonally dominant system of `n`
/// unknowns with ~`per_row` off-diagonal entries per row, plus its
/// right-hand side.
pub fn generate_system(n: usize, per_row: usize, seed: u64) -> (Vec<(u32, Row)>, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rows = Vec::with_capacity(n);
    let mut b_all = Vec::with_capacity(n);
    for i in 0..n as u32 {
        let mut off: Vec<(u32, f64)> = Vec::new();
        for _ in 0..per_row {
            let j = rng.gen_range(0..n as u32);
            if j != i && !off.iter().any(|(t, _)| *t == j) {
                off.push((j, rng.gen_range(-1.0..1.0)));
            }
        }
        off.sort_by_key(|&(j, _)| j);
        let dominance: f64 = off.iter().map(|(_, a)| a.abs()).sum::<f64>() + 1.0;
        let b = rng.gen_range(-10.0..10.0);
        rows.push((i, (off, dominance, b)));
        b_all.push(b);
    }
    (rows, b_all)
}

/// Loads the system and the zero initial guess, then runs Jacobi under
/// iMapReduce.
pub fn run_jacobi_imr(
    runner: &impl IterEngine,
    system: &[(u32, Row)],
    cfg: &IterConfig,
) -> Result<IterOutcome<u32, f64>, EngineError> {
    assert_eq!(
        cfg.mode.mapping,
        imapreduce::Mapping::One2All,
        "Jacobi needs one2all"
    );
    let mut clock = TaskClock::default();
    let job = JacobiIter;
    let state: Vec<(u32, f64)> = (0..system.len() as u32).map(|i| (i, 0.0)).collect();
    load_partitioned(runner.dfs(), "/jac/state", state, 1, |_, _| 0, &mut clock)?;
    load_partitioned(
        runner.dfs(),
        "/jac/static",
        system,
        cfg.num_tasks,
        |k, n| job.partition(k, n),
        &mut clock,
    )?;
    runner.run(&job, cfg, "/jac/state", "/jac/static", "/jac/out", &[])
}

/// Sequential Jacobi iterations matching the engine exactly.
pub fn reference_jacobi(system: &[(u32, Row)], iterations: usize) -> Vec<f64> {
    let n = system.len();
    let mut x = vec![0.0f64; n];
    for _ in 0..iterations {
        let mut next = vec![0.0f64; n];
        for (i, (off, aii, b)) in system {
            let mut acc = 0.0;
            for &(j, aij) in off {
                acc += aij * x[j as usize];
            }
            next[*i as usize] = (b - acc) / aii;
        }
        x = next;
    }
    x
}

/// Residual `‖Ax − b‖∞` of a candidate solution.
pub fn residual(system: &[(u32, Row)], x: &[f64]) -> f64 {
    system
        .iter()
        .map(|(i, (off, aii, b))| {
            let mut lhs = aii * x[*i as usize];
            for &(j, aij) in off {
                lhs += aij * x[j as usize];
            }
            (lhs - b).abs()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::imr_runner;

    #[test]
    fn jacobi_matches_reference_per_iteration() {
        let (system, _) = generate_system(40, 5, 12);
        let r = imr_runner(4);
        let cfg = IterConfig::new("jacobi", 4, 7).with_one2all();
        let out = run_jacobi_imr(&r, &system, &cfg).unwrap();
        let expect = reference_jacobi(&system, 7);
        assert_eq!(out.final_state.len(), 40);
        for (i, v) in &out.final_state {
            assert!((v - expect[*i as usize]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn jacobi_converges_to_a_solution() {
        let (system, _) = generate_system(60, 4, 3);
        let r = imr_runner(4);
        let cfg = IterConfig::new("jacobi", 4, 200)
            .with_one2all()
            .with_distance_threshold(1e-12);
        let out = run_jacobi_imr(&r, &system, &cfg).unwrap();
        assert!(out.iterations < 200, "diagonally dominant systems converge");
        let x: Vec<f64> = out.final_state.iter().map(|&(_, v)| v).collect();
        assert!(
            residual(&system, &x) < 1e-8,
            "residual {}",
            residual(&system, &x)
        );
    }

    #[test]
    fn generated_systems_are_diagonally_dominant() {
        let (system, _) = generate_system(100, 8, 9);
        for (_, (off, aii, _)) in &system {
            let sum: f64 = off.iter().map(|(_, a)| a.abs()).sum();
            assert!(*aii > sum);
        }
    }
}
