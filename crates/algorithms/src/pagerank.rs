//! PageRank (paper §2.1.2) on both engines, plus a sequential power
//! iteration reference.
//!
//! The update rule is Eq. (1) of the paper:
//! `R'(v) = (1-d)/|V| + d * Σ_{u→v} R(u)/|N+(u)|`,
//! with the retained share `(1-d)/|V|` emitted by each node to itself.
//! Dangling nodes lose their rank mass, exactly as in the paper's
//! formulation (no dangling redistribution).

use imapreduce::{
    load_partitioned, Accumulative, Delta, Emitter, GraphDeltaOp, Incremental, IterConfig,
    IterEngine, IterOutcome, IterativeJob, StateInput,
};
use imr_graph::Graph;
use imr_mapreduce::{
    run_iterative, CheckSpec, EngineError, IterativeOutcome, JobConfig, JobRunner, MrJob,
};
use imr_records::{ModPartitioner, Partitioner};
use imr_simcluster::TaskClock;

/// Baseline value type: `(rank, out-neighbors)` bundled together and
/// reshuffled every iteration.
pub type RankAdj = (f64, Vec<u32>);

// ---------------------------------------------------------------------
// iMapReduce implementation (the paper's Fig. 3 program)
// ---------------------------------------------------------------------

/// The iMapReduce PageRank job.
#[derive(Debug, Clone, Copy)]
pub struct PageRankIter {
    /// Damping factor `d` (the paper uses the classic 0.85).
    pub damping: f64,
    /// Total number of nodes `|V|`.
    pub num_nodes: u64,
}

impl PageRankIter {
    /// A job with damping 0.85 over `num_nodes` pages.
    pub fn new(num_nodes: u64) -> Self {
        PageRankIter {
            damping: 0.85,
            num_nodes,
        }
    }
}

impl IterativeJob for PageRankIter {
    type K = u32;
    type S = f64;
    type T = Vec<u32>;

    fn map(
        &self,
        k: &u32,
        state: StateInput<'_, u32, f64>,
        adj: &Vec<u32>,
        out: &mut Emitter<u32, f64>,
    ) {
        let r = *state.one();
        // Retained share to self (Fig. 3 line 2).
        out.emit(*k, (1.0 - self.damping) / self.num_nodes as f64);
        if !adj.is_empty() {
            let share = self.damping * r / adj.len() as f64;
            for &v in adj {
                out.emit(v, share);
            }
        }
    }

    fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
        *acc += v;
    }

    /// Manhattan distance (Fig. 3 line 6).
    fn distance(&self, _k: &u32, prev: &f64, cur: &f64) -> f64 {
        (prev - cur).abs()
    }

    fn partition(&self, key: &u32, n: usize) -> usize {
        ModPartitioner.partition(key, n)
    }
}

/// Delta-accumulative PageRank (Maiter's formulation): ⊕ is `+` with
/// identity `0`, every key starts at `(0, (1-d)/|V|)`, and applying a
/// delta forwards `d·Δ/|N+(u)|` to each out-neighbour. The accumulated
/// value converges to the same fixpoint as the synchronous Eq. (1)
/// iteration — `R(v) = (1-d)/|V| · Σ_k Σ_paths (d/deg)^k` — and when
/// the global pending-delta sum drops below `ε` the final values are
/// within `ε · d/(1-d)` of that fixpoint in L1.
impl Accumulative for PageRankIter {
    fn identity(&self) -> f64 {
        0.0
    }

    fn seed(&self, _k: &u32, _loaded: &f64) -> (f64, f64) {
        (0.0, (1.0 - self.damping) / self.num_nodes as f64)
    }

    fn extract(&self, _k: &u32, delta: &f64, adj: &Vec<u32>, out: &mut Emitter<u32, f64>) {
        if !adj.is_empty() {
            let share = self.damping * delta / adj.len() as f64;
            for &v in adj {
                out.emit(v, share);
            }
        }
    }

    fn progress(&self, _k: &u32, _v: &f64, d: &f64) -> f64 {
        d.abs()
    }
}

/// Incremental PageRank (DESIGN.md §13): `⊕ = +` is a group, so the
/// planner retracts a changed row's old emissions with their negations
/// and injects the new ones — no key is ever reseeded except freshly
/// inserted nodes.
///
/// `num_nodes` is a **fixed job parameter** (the id-namespace size used
/// for the `(1-d)/|V|` prior), not the live node count: a delta that
/// inserts or removes nodes keeps the same job, so the per-key source
/// term — and therefore the previous fixpoint — stays valid. Cold
/// recomputes being compared against an incremental run must use the
/// same `num_nodes`.
impl Incremental for PageRankIter {
    fn initial_state(&self, _key: u32) -> f64 {
        1.0 / self.num_nodes as f64
    }

    fn patch_static(&self, _key: u32, adj: &mut Vec<u32>, op: &GraphDeltaOp) {
        match *op {
            GraphDeltaOp::InsertEdge { dst, .. } if !adj.contains(&dst) => adj.push(dst),
            GraphDeltaOp::RemoveEdge { dst, .. } => adj.retain(|&v| v != dst),
            // An edge already present stays single; reweight is a no-op
            // on an unweighted graph; apply_delta resolves node ops into
            // edge ops.
            _ => {}
        }
    }

    fn targets(&self, adj: &Vec<u32>) -> Vec<u32> {
        adj.clone()
    }

    fn invert(&self, delta: &f64) -> Option<f64> {
        Some(-delta)
    }
}

/// Loads rank state (uniform `1/|V|`) and adjacency parts for the
/// iMapReduce job.
pub fn load_pagerank_imr(
    runner: &impl IterEngine,
    graph: &Graph,
    num_tasks: usize,
    state_dir: &str,
    static_dir: &str,
) -> Result<(), EngineError> {
    let job = PageRankIter::new(graph.num_nodes() as u64);
    let mut clock = TaskClock::default();
    let init = 1.0 / graph.num_nodes() as f64;
    let state: Vec<(u32, f64)> = (0..graph.num_nodes() as u32).map(|u| (u, init)).collect();
    let statics: Vec<(u32, Vec<u32>)> = graph.adjacency_records();
    load_partitioned(
        runner.dfs(),
        state_dir,
        state,
        num_tasks,
        |k, n| job.partition(k, n),
        &mut clock,
    )?;
    load_partitioned(
        runner.dfs(),
        static_dir,
        statics,
        num_tasks,
        |k, n| job.partition(k, n),
        &mut clock,
    )?;
    Ok(())
}

/// Runs PageRank under iMapReduce.
pub fn run_pagerank_imr(
    runner: &impl IterEngine,
    graph: &Graph,
    cfg: &IterConfig,
) -> Result<IterOutcome<u32, f64>, EngineError> {
    load_pagerank_imr(runner, graph, cfg.num_tasks, "/pr/state", "/pr/static")?;
    let job = PageRankIter::new(graph.num_nodes() as u64);
    runner.run(&job, cfg, "/pr/state", "/pr/static", "/pr/out", &[])
}

/// Runs PageRank in barrier-free delta-accumulative mode
/// (`cfg` must carry `with_accumulative_mode()` and a distance
/// threshold).
pub fn run_pagerank_delta(
    runner: &impl IterEngine,
    graph: &Graph,
    cfg: &IterConfig<Delta>,
) -> Result<IterOutcome<u32, f64>, EngineError> {
    load_pagerank_imr(runner, graph, cfg.num_tasks, "/prd/state", "/prd/static")?;
    let job = PageRankIter::new(graph.num_nodes() as u64);
    runner.run_accumulative(&job, cfg, "/prd/state", "/prd/static", "/prd/out", &[])
}

// ---------------------------------------------------------------------
// Baseline Hadoop implementation
// ---------------------------------------------------------------------

/// The baseline MapReduce PageRank job, shuffling `(rank, adjacency)`
/// bundles every iteration.
#[derive(Debug, Clone, Copy)]
pub struct PageRankMr {
    /// Damping factor `d`.
    pub damping: f64,
    /// Total number of nodes `|V|`.
    pub num_nodes: u64,
}

impl MrJob for PageRankMr {
    type InK = u32;
    type InV = RankAdj;
    type MidK = u32;
    type MidV = RankAdj;
    type OutK = u32;
    type OutV = RankAdj;

    fn map(&self, u: &u32, value: &RankAdj, out: &mut Emitter<u32, RankAdj>) {
        let (r, adj) = value;
        if !adj.is_empty() {
            let share = self.damping * r / adj.len() as f64;
            for &v in adj {
                out.emit(v, (share, Vec::new()));
            }
        }
        // Retained share plus the adjacency list, shuffled to self.
        out.emit(
            *u,
            ((1.0 - self.damping) / self.num_nodes as f64, adj.clone()),
        );
    }

    fn reduce(&self, v: &u32, values: Vec<RankAdj>, out: &mut Emitter<u32, RankAdj>) {
        let mut rank = 0.0;
        let mut adj = Vec::new();
        for (r, a) in values {
            rank += r;
            if !a.is_empty() {
                adj = a;
            }
        }
        out.emit(*v, (rank, adj));
    }

    fn partition(&self, key: &u32, n: usize) -> usize {
        ModPartitioner.partition(key, n)
    }
}

/// Loads the bundled baseline records.
pub fn load_pagerank_mr(
    runner: &JobRunner,
    graph: &Graph,
    num_parts: usize,
    input_dir: &str,
) -> Result<(), EngineError> {
    let mut clock = TaskClock::default();
    let init = 1.0 / graph.num_nodes() as f64;
    let records: Vec<(u32, RankAdj)> = (0..graph.num_nodes() as u32)
        .map(|u| (u, (init, graph.neighbors(u).to_vec())))
        .collect();
    runner.load_input(input_dir, records, num_parts, &mut clock)
}

/// Runs the baseline PageRank chain.
pub fn run_pagerank_mr(
    runner: &JobRunner,
    graph: &Graph,
    num_tasks: usize,
    iterations: usize,
    check: Option<&CheckSpec<u32, RankAdj>>,
) -> Result<IterativeOutcome, EngineError> {
    load_pagerank_mr(runner, graph, num_tasks, "/pr-mr/in")?;
    let job = PageRankMr {
        damping: 0.85,
        num_nodes: graph.num_nodes() as u64,
    };
    run_iterative(
        runner,
        &job,
        &JobConfig::new("pagerank", num_tasks),
        "/pr-mr/in",
        "/pr-mr/work",
        iterations,
        check,
    )
}

// ---------------------------------------------------------------------
// Sequential reference
// ---------------------------------------------------------------------

/// `iterations` rounds of the paper's Eq. (1), matching the engines'
/// semantics (dangling mass lost).
pub fn reference_pagerank(graph: &Graph, damping: f64, iterations: usize) -> Vec<f64> {
    let n = graph.num_nodes();
    let mut rank = vec![1.0 / n as f64; n];
    for _ in 0..iterations {
        let mut next = vec![(1.0 - damping) / n as f64; n];
        for u in 0..n as u32 {
            let out = graph.neighbors(u);
            if !out.is_empty() {
                let share = damping * rank[u as usize] / out.len() as f64;
                for &v in out {
                    next[v as usize] += share;
                }
            }
        }
        rank = next;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{imr_runner, mr_runner};
    use imr_graph::{generate_graph, pagerank_degree_dist};

    fn small_graph() -> Graph {
        generate_graph(150, 900, pagerank_degree_dist(), 33)
    }

    #[test]
    fn imr_matches_reference() {
        let g = small_graph();
        let r = imr_runner(4);
        let cfg = IterConfig::new("pr", 4, 8);
        let out = run_pagerank_imr(&r, &g, &cfg).unwrap();
        let expect = reference_pagerank(&g, 0.85, 8);
        assert_eq!(out.final_state.len(), g.num_nodes());
        for (k, v) in &out.final_state {
            assert!((v - expect[*k as usize]).abs() < 1e-12, "node {k}");
        }
    }

    #[test]
    fn mapreduce_matches_reference() {
        let g = small_graph();
        let r = mr_runner(4);
        let out = run_pagerank_mr(&r, &g, 4, 8, None).unwrap();
        let expect = reference_pagerank(&g, 0.85, 8);
        let mut clock = TaskClock::default();
        let got: Vec<(u32, RankAdj)> = imr_mapreduce::io::read_all(
            r.dfs(),
            &out.final_dir,
            imr_simcluster::NodeId(0),
            &mut clock,
        )
        .unwrap();
        for (k, (v, _)) in &got {
            assert!((v - expect[*k as usize]).abs() < 1e-12, "node {k}");
        }
    }

    #[test]
    fn ranks_sum_below_one_with_dangling_mass_lost() {
        let g = small_graph();
        let expect = reference_pagerank(&g, 0.85, 10);
        let total: f64 = expect.iter().sum();
        assert!(total <= 1.0 + 1e-9);
        assert!(total > 0.1);
    }

    #[test]
    fn imr_beats_mapreduce_on_running_time() {
        let g = small_graph();
        let r = imr_runner(4);
        let cfg = IterConfig::new("pr", 4, 10);
        let a = run_pagerank_imr(&r, &g, &cfg).unwrap();
        let mr = mr_runner(4);
        let b = run_pagerank_mr(&mr, &g, 4, 10, None).unwrap();
        assert!(a.report.finished < b.report.finished);
        // It also moves far fewer bytes in total: no adjacency
        // reshuffling, no per-iteration DFS round trips (Fig. 11).
        let a_total = a.report.metrics.shuffle_remote_bytes + a.report.metrics.shuffle_local_bytes;
        let b_total = b.report.metrics.shuffle_remote_bytes + b.report.metrics.shuffle_local_bytes;
        assert!(a_total < b_total, "shuffle totals: {a_total} vs {b_total}");
        assert!(
            a.report.metrics.total_network_bytes() < b.report.metrics.total_network_bytes(),
            "network totals: {} vs {}",
            a.report.metrics.total_network_bytes(),
            b.report.metrics.total_network_bytes()
        );
    }

    #[test]
    fn accumulative_reaches_the_sync_fixpoint() {
        let g = small_graph();
        let eps = 1e-10;

        let sync = imr_runner(4);
        let sync_cfg = IterConfig::new("pr", 4, 400).with_distance_threshold(eps);
        let a = run_pagerank_imr(&sync, &g, &sync_cfg).unwrap();
        assert!(a.iterations < 400);

        let delta = imr_runner(4);
        let delta_cfg = IterConfig::new("prd", 4, 400)
            .with_accumulative_mode()
            .with_distance_threshold(eps);
        let b = run_pagerank_delta(&delta, &g, &delta_cfg).unwrap();
        assert!(b.iterations < 400, "accumulative mode should terminate");

        // Both runs stop within ε of the same fixpoint; the residual
        // tails bound the gap by ~ε/(1-d) each.
        assert_eq!(a.final_state.len(), b.final_state.len());
        for ((k1, v1), (k2, v2)) in a.final_state.iter().zip(&b.final_state) {
            assert_eq!(k1, k2);
            assert!((v1 - v2).abs() < 1e-8, "node {k1}: {v1} vs {v2}");
        }

        // The detector's recorded global progress dips below ε.
        let last = b.distances.last().unwrap();
        assert!(*last < eps, "final pending progress {last} >= {eps}");
    }

    #[test]
    fn accumulative_counts_deltas_and_checks() {
        let g = small_graph();
        let r = imr_runner(2);
        let cfg = IterConfig::new("prd", 2, 400)
            .with_accumulative_mode()
            .with_distance_threshold(1e-6)
            .with_delta_share(2)
            .with_check_every(2);
        let out = run_pagerank_delta(&r, &g, &cfg).unwrap();
        let m = &out.report.metrics;
        assert!(m.deltas_sent > 0, "no deltas recorded");
        assert!(
            m.priority_preemptions > 0,
            "half the pending keys of 150 nodes per round must defer keys"
        );
        // One detector round per task per check epoch.
        assert_eq!(m.termination_checks, 2 * out.iterations as u64);
    }

    #[test]
    fn distance_threshold_terminates_pagerank() {
        let g = small_graph();
        let r = imr_runner(2);
        let cfg = IterConfig::new("pr", 2, 100).with_distance_threshold(1e-4);
        let out = run_pagerank_imr(&r, &g, &cfg).unwrap();
        assert!(out.iterations < 100);
        let last = out.distances.iter().rev().find(|d| d.is_finite()).unwrap();
        assert!(*last < 1e-4);
    }
}
