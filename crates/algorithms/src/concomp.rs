//! Connected components by label propagation (HashMin) — one of the
//! "large class of graph-based iterative algorithms" the paper's §2.2
//! observations cover: node-keyed state, one-to-one reduce→map
//! correspondence, one MapReduce pass per iteration.
//!
//! Each node's state is the smallest node id it has heard of; every
//! iteration it propagates its label along outgoing edges and keeps the
//! minimum. On a (weakly) connected component whose edges are
//! symmetric, all labels converge to the component's minimum id.

use imapreduce::{
    load_partitioned, Accumulative, Delta, Emitter, GraphDeltaOp, Incremental, IterConfig,
    IterEngine, IterOutcome, IterativeJob, StateInput,
};
use imr_graph::Graph;
use imr_mapreduce::EngineError;
use imr_records::{ModPartitioner, Partitioner};
use imr_simcluster::TaskClock;

/// The iMapReduce HashMin label-propagation job.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConCompIter;

impl IterativeJob for ConCompIter {
    type K = u32;
    type S = u32; // current component label
    type T = Vec<u32>; // out-neighbors

    fn map(
        &self,
        k: &u32,
        state: StateInput<'_, u32, u32>,
        adj: &Vec<u32>,
        out: &mut Emitter<u32, u32>,
    ) {
        let label = *state.one();
        out.emit(*k, label);
        for &v in adj {
            out.emit(v, label);
        }
    }

    fn fold(&self, _k: &u32, acc: &mut u32, v: u32) {
        *acc = (*acc).min(v);
    }

    fn distance(&self, _k: &u32, prev: &u32, cur: &u32) -> f64 {
        f64::from(prev != cur)
    }

    fn partition(&self, key: &u32, n: usize) -> usize {
        ModPartitioner.partition(key, n)
    }
}

/// Delta-accumulative HashMin: ⊕ is `min` over labels with identity
/// `u32::MAX`, every key starts at `(u32::MAX, own-id)`, and applying a
/// delta forwards the improved label along the out-edges. Progress is
/// Maiter's priority for a min-propagation, `u32::MAX − pending` for a
/// pending label below the value and zero otherwise (exactly at the
/// propagation fixpoint): a round applies the smallest pending labels,
/// whether or not the key has applied one before. Ranking by the
/// improvement `value − pending` would put every key still at
/// `u32::MAX` first, whatever label it carries, and send large labels
/// that a smaller one soon overwrites.
impl Accumulative for ConCompIter {
    fn identity(&self) -> u32 {
        u32::MAX
    }

    fn seed(&self, _k: &u32, loaded: &u32) -> (u32, u32) {
        (u32::MAX, *loaded)
    }

    fn extract(&self, _k: &u32, delta: &u32, adj: &Vec<u32>, out: &mut Emitter<u32, u32>) {
        for &v in adj {
            out.emit(v, *delta);
        }
    }

    fn progress(&self, _k: &u32, v: &u32, d: &u32) -> f64 {
        if d < v {
            f64::from(u32::MAX - d)
        } else {
            0.0
        }
    }
}

/// Incremental connected components: `⊕ = min` over labels, so the
/// planner uses the same witness-reset strategy as SSSP. Removing an
/// edge inside a component resets every key whose label was witnessed
/// through it (often the whole component — label propagation carries no
/// path information to localize the damage), while inserting an edge
/// only propagates improvements and resets nothing.
impl Incremental for ConCompIter {
    fn initial_state(&self, key: u32) -> u32 {
        key
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

    fn invert(&self, _delta: &u32) -> Option<u32> {
        None
    }
}

/// Loads label state (each node its own id) and adjacency parts for
/// the HashMin job under `state_dir`/`static_dir`.
pub fn load_concomp_imr(
    runner: &impl IterEngine,
    graph: &Graph,
    num_tasks: usize,
    state_dir: &str,
    static_dir: &str,
) -> Result<(), EngineError> {
    let job = ConCompIter;
    let mut clock = TaskClock::default();
    let state: Vec<(u32, u32)> = (0..graph.num_nodes() as u32).map(|u| (u, u)).collect();
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
        graph.adjacency_records(),
        num_tasks,
        |k, n| job.partition(k, n),
        &mut clock,
    )?;
    Ok(())
}

/// Runs connected components under iMapReduce; with a distance
/// threshold below one label flip (0.5) it stops once no label changes.
pub fn run_concomp_imr(
    runner: &impl IterEngine,
    graph: &Graph,
    cfg: &IterConfig,
) -> Result<IterOutcome<u32, u32>, EngineError> {
    load_concomp_imr(runner, graph, cfg.num_tasks, "/cc/state", "/cc/static")?;
    runner.run(&ConCompIter, cfg, "/cc/state", "/cc/static", "/cc/out", &[])
}

/// Runs connected components in barrier-free delta-accumulative mode
/// (`cfg` must carry `with_accumulative_mode()` and a distance
/// threshold): labels propagate as `min` deltas and, below one label
/// flip (0.5), the detector stops when no pending label improvement
/// remains anywhere.
pub fn run_concomp_delta(
    runner: &impl IterEngine,
    graph: &Graph,
    cfg: &IterConfig<Delta>,
) -> Result<IterOutcome<u32, u32>, EngineError> {
    load_concomp_imr(runner, graph, cfg.num_tasks, "/ccd/state", "/ccd/static")?;
    runner.run_accumulative(
        &ConCompIter,
        cfg,
        "/ccd/state",
        "/ccd/static",
        "/ccd/out",
        &[],
    )
}

/// Sequential reference: BFS over the *undirected* closure of the
/// directed propagation (labels flow along out-edges each round), run
/// to the same fixed point via synchronous rounds.
pub fn reference_concomp(graph: &Graph, rounds: usize) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut label: Vec<u32> = (0..n as u32).collect();
    for _ in 0..rounds {
        let mut next = label.clone();
        for u in 0..n as u32 {
            for &v in graph.neighbors(u) {
                if label[u as usize] < next[v as usize] {
                    next[v as usize] = label[u as usize];
                }
            }
        }
        if next == label {
            break;
        }
        label = next;
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::imr_runner;
    use imr_graph::{generate_graph, pagerank_degree_dist, Graph};

    /// `tasks` pairs, up to `iters` iterations, stopping once no label
    /// changes.
    fn cfg(tasks: usize, iters: usize) -> IterConfig {
        IterConfig::new("concomp", tasks, iters).with_distance_threshold(0.5)
    }

    #[test]
    fn labels_converge_to_min_reachable_ancestor() {
        let g = generate_graph(200, 900, pagerank_degree_dist(), 15);
        let r = imr_runner(4);
        let out = run_concomp_imr(&r, &g, &cfg(4, 100)).unwrap();
        assert!(out.iterations < 100, "should reach a fixed point");
        let expect = reference_concomp(&g, 200);
        for (k, l) in &out.final_state {
            assert_eq!(*l, expect[*k as usize], "node {k}");
        }
    }

    #[test]
    fn accumulative_labels_match_the_sync_fixpoint() {
        let g = generate_graph(200, 900, pagerank_degree_dist(), 15);
        let r = imr_runner(4);
        let sync = run_concomp_imr(&r, &g, &cfg(4, 100)).unwrap();
        let rd = imr_runner(4);
        let delta = run_concomp_delta(&rd, &g, &cfg(4, 100).with_accumulative_mode()).unwrap();
        assert!(delta.iterations < 100, "should reach a fixed point");
        assert_eq!(sync.final_state, delta.final_state);
    }

    #[test]
    fn symmetric_chain_collapses_to_zero() {
        // 0 <-> 1 <-> 2 <-> 3: one component, min label 0.
        let g = Graph::from_adjacency(vec![vec![1], vec![0, 2], vec![1, 3], vec![2]]);
        let r = imr_runner(2);
        let out = run_concomp_imr(&r, &g, &cfg(2, 20)).unwrap();
        assert!(
            out.final_state.iter().all(|&(_, l)| l == 0),
            "{:?}",
            out.final_state
        );
    }

    #[test]
    fn disconnected_components_keep_distinct_labels() {
        // {0,1} and {2,3} disconnected.
        let g = Graph::from_adjacency(vec![vec![1], vec![0], vec![3], vec![2]]);
        let r = imr_runner(2);
        let out = run_concomp_imr(&r, &g, &cfg(2, 20)).unwrap();
        assert_eq!(out.final_state, vec![(0, 0), (1, 0), (2, 2), (3, 2)]);
    }
}
