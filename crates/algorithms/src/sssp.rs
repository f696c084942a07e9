//! Single-Source Shortest Path (paper §2.1.1) on both engines, plus
//! sequential references.
//!
//! The iterative scheme is synchronous Bellman–Ford relaxation: in each
//! iteration every node re-emits its current distance plus each
//! outgoing edge weight; every node keeps the minimum it has seen.

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

/// Adjacency value type: `(target, weight)` list.
pub type Adj = Vec<(u32, f32)>;

/// SSSP distance state bundled with adjacency — the baseline Hadoop
/// value that gets reshuffled every iteration (`[d(u), W(u,*)]`).
pub type DistAdj = (f64, Adj);

// ---------------------------------------------------------------------
// iMapReduce implementation
// ---------------------------------------------------------------------

/// The iMapReduce SSSP job: state = current shortest distance, static =
/// outgoing weighted edges.
#[derive(Debug, Clone, Copy, Default)]
pub struct SsspIter;

impl IterativeJob for SsspIter {
    type K = u32;
    type S = f64;
    type T = Adj;

    fn map(
        &self,
        k: &u32,
        state: StateInput<'_, u32, f64>,
        adj: &Adj,
        out: &mut Emitter<u32, f64>,
    ) {
        let d = *state.one();
        // Retain own distance.
        out.emit(*k, d);
        if d.is_finite() {
            for &(v, w) in adj {
                out.emit(v, d + f64::from(w));
            }
        }
    }

    fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
        *acc = acc.min(v);
    }

    fn distance(&self, _k: &u32, prev: &f64, cur: &f64) -> f64 {
        match (prev.is_finite(), cur.is_finite()) {
            (true, true) => (prev - cur).abs(),
            (false, false) => 0.0,
            _ => 1.0, // a node just became reachable
        }
    }

    fn partition(&self, key: &u32, n: usize) -> usize {
        ModPartitioner.partition(key, n)
    }
}

/// Cap used by the accumulative progress measure so a node switching
/// from unreachable (+∞) to reachable contributes a large-but-finite
/// amount (an infinite term would wedge the global detector sum at +∞
/// forever).
const SSSP_BIG: f64 = 1e15;

/// Delta-accumulative SSSP: ⊕ is `min` with identity `+∞`, every key
/// starts at `(+∞, d₀)` where `d₀` is the loaded initial distance (0
/// for the source, +∞ otherwise), and applying a delta relaxes each
/// outgoing edge. `progress` measures the pending improvement, so the
/// detector sum reaches zero exactly at the shortest-path fixpoint.
impl Accumulative for SsspIter {
    fn identity(&self) -> f64 {
        f64::INFINITY
    }

    fn seed(&self, _k: &u32, loaded: &f64) -> (f64, f64) {
        (f64::INFINITY, *loaded)
    }

    fn extract(&self, _k: &u32, delta: &f64, adj: &Adj, out: &mut Emitter<u32, f64>) {
        if delta.is_finite() {
            for &(v, w) in adj {
                out.emit(v, delta + f64::from(w));
            }
        }
    }

    fn progress(&self, _k: &u32, v: &f64, d: &f64) -> f64 {
        (v.min(SSSP_BIG) - v.min(*d).min(SSSP_BIG)).max(0.0)
    }
}

/// Incremental-capable SSSP: [`SsspIter`] plus the source id, which the
/// planner needs to reseed keys (`0` at the source, `+∞` elsewhere).
/// The map/reduce/extract behavior is byte-for-byte [`SsspIter`]'s, so
/// TCP workers keep serving `SsspIter` while the coordinator plans with
/// `SsspInc`.
///
/// `⊕ = min` is idempotent (no inverse), so a delta that removes or
/// worsens an edge reseeds the keys whose converged distance was
/// *witnessed* by an affected emission — plus everything transitively
/// downstream of them — and lets relaxation rebuild the region from
/// surviving paths.
#[derive(Debug, Clone, Copy)]
pub struct SsspInc {
    /// Source node (distance 0).
    pub source: u32,
}

impl IterativeJob for SsspInc {
    type K = u32;
    type S = f64;
    type T = Adj;

    fn map(
        &self,
        k: &u32,
        state: StateInput<'_, u32, f64>,
        adj: &Adj,
        out: &mut Emitter<u32, f64>,
    ) {
        SsspIter.map(k, state, adj, out)
    }

    fn fold(&self, k: &u32, acc: &mut f64, v: f64) {
        SsspIter.fold(k, acc, v)
    }

    fn distance(&self, k: &u32, prev: &f64, cur: &f64) -> f64 {
        SsspIter.distance(k, prev, cur)
    }

    fn partition(&self, key: &u32, n: usize) -> usize {
        SsspIter.partition(key, n)
    }
}

impl Accumulative for SsspInc {
    fn identity(&self) -> f64 {
        SsspIter.identity()
    }

    fn seed(&self, k: &u32, loaded: &f64) -> (f64, f64) {
        SsspIter.seed(k, loaded)
    }

    fn extract(&self, k: &u32, delta: &f64, adj: &Adj, out: &mut Emitter<u32, f64>) {
        SsspIter.extract(k, delta, adj, out)
    }

    fn progress(&self, k: &u32, v: &f64, d: &f64) -> f64 {
        SsspIter.progress(k, v, d)
    }
}

impl Incremental for SsspInc {
    fn initial_state(&self, key: u32) -> f64 {
        if key == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn patch_static(&self, _key: u32, adj: &mut Adj, op: &GraphDeltaOp) {
        // Invariant kept across all workloads: at most one edge per
        // (src, dst). Inserting over an existing edge updates its
        // weight, like a reweight.
        match *op {
            GraphDeltaOp::InsertEdge { dst, weight, .. } if !adj.iter().any(|e| e.0 == dst) => {
                adj.push((dst, weight));
            }
            GraphDeltaOp::InsertEdge { dst, weight, .. }
            | GraphDeltaOp::ReweightEdge { dst, weight, .. } => {
                for e in adj.iter_mut().filter(|e| e.0 == dst) {
                    e.1 = weight;
                }
            }
            GraphDeltaOp::RemoveEdge { dst, .. } => adj.retain(|e| e.0 != dst),
            GraphDeltaOp::InsertNode { .. } | GraphDeltaOp::RemoveNode { .. } => {}
        }
    }

    fn targets(&self, adj: &Adj) -> Vec<u32> {
        adj.iter().map(|&(v, _)| v).collect()
    }

    fn invert(&self, _delta: &f64) -> Option<f64> {
        None
    }
}

/// Loads a weighted graph for the iMapReduce job: distance state parts
/// under `state_dir` (source at 0.0, all else +∞) and adjacency parts
/// under `static_dir`.
pub fn load_sssp_imr(
    runner: &impl IterEngine,
    graph: &Graph,
    source: u32,
    num_tasks: usize,
    state_dir: &str,
    static_dir: &str,
) -> Result<(), EngineError> {
    let job = SsspIter;
    let mut clock = TaskClock::default();
    let state: Vec<(u32, f64)> = (0..graph.num_nodes() as u32)
        .map(|u| (u, if u == source { 0.0 } else { f64::INFINITY }))
        .collect();
    let statics: Vec<(u32, Adj)> = graph.weighted_records();
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

/// Runs SSSP under iMapReduce for a fixed number of iterations.
pub fn run_sssp_imr(
    runner: &impl IterEngine,
    graph: &Graph,
    source: u32,
    cfg: &IterConfig,
) -> Result<IterOutcome<u32, f64>, EngineError> {
    load_sssp_imr(
        runner,
        graph,
        source,
        cfg.num_tasks,
        "/sssp/state",
        "/sssp/static",
    )?;
    runner.run(
        &SsspIter,
        cfg,
        "/sssp/state",
        "/sssp/static",
        "/sssp/out",
        &[],
    )
}

/// Runs SSSP in barrier-free delta-accumulative mode (`cfg` must carry
/// `with_accumulative_mode()` and a distance threshold).
pub fn run_sssp_delta(
    runner: &impl IterEngine,
    graph: &Graph,
    source: u32,
    cfg: &IterConfig<Delta>,
) -> Result<IterOutcome<u32, f64>, EngineError> {
    load_sssp_imr(
        runner,
        graph,
        source,
        cfg.num_tasks,
        "/ssspd/state",
        "/ssspd/static",
    )?;
    runner.run_accumulative(
        &SsspIter,
        cfg,
        "/ssspd/state",
        "/ssspd/static",
        "/ssspd/out",
        &[],
    )
}

// ---------------------------------------------------------------------
// Baseline Hadoop implementation
// ---------------------------------------------------------------------

/// The baseline MapReduce SSSP job. Each record's value carries *both*
/// the iterated distance and the static adjacency list, so the
/// adjacency is shuffled between map and reduce in every iteration —
/// limitation 2 of §2.2.
#[derive(Debug, Clone, Copy, Default)]
pub struct SsspMr;

impl MrJob for SsspMr {
    type InK = u32;
    type InV = DistAdj;
    type MidK = u32;
    type MidV = DistAdj;
    type OutK = u32;
    type OutV = DistAdj;

    fn map(&self, u: &u32, value: &DistAdj, out: &mut Emitter<u32, DistAdj>) {
        let (d, adj) = value;
        if d.is_finite() {
            for &(v, w) in adj {
                out.emit(v, (d + f64::from(w), Vec::new()));
            }
        }
        // Carry own distance and adjacency forward.
        out.emit(*u, (*d, adj.clone()));
    }

    fn reduce(&self, v: &u32, values: Vec<DistAdj>, out: &mut Emitter<u32, DistAdj>) {
        let mut best = f64::INFINITY;
        let mut adj = Vec::new();
        for (d, a) in values {
            if d < best {
                best = d;
            }
            if !a.is_empty() {
                adj = a;
            }
        }
        out.emit(*v, (best, adj));
    }

    fn partition(&self, key: &u32, n: usize) -> usize {
        ModPartitioner.partition(key, n)
    }
}

/// Loads the bundled `(distance, adjacency)` records for the baseline.
pub fn load_sssp_mr(
    runner: &JobRunner,
    graph: &Graph,
    source: u32,
    num_parts: usize,
    input_dir: &str,
) -> Result<(), EngineError> {
    let mut clock = TaskClock::default();
    let records: Vec<(u32, DistAdj)> = (0..graph.num_nodes() as u32)
        .map(|u| {
            let d = if u == source { 0.0 } else { f64::INFINITY };
            (u, (d, graph.weighted_neighbors(u).collect()))
        })
        .collect();
    runner.load_input(input_dir, records, num_parts, &mut clock)
}

/// Runs the baseline SSSP job chain for `iterations` iterations.
pub fn run_sssp_mr(
    runner: &JobRunner,
    graph: &Graph,
    source: u32,
    num_tasks: usize,
    iterations: usize,
    check: Option<&CheckSpec<u32, DistAdj>>,
) -> Result<IterativeOutcome, EngineError> {
    load_sssp_mr(runner, graph, source, num_tasks, "/sssp-mr/in")?;
    run_iterative(
        runner,
        &SsspMr,
        &JobConfig::new("sssp", num_tasks),
        "/sssp-mr/in",
        "/sssp-mr/work",
        iterations,
        check,
    )
}

// ---------------------------------------------------------------------
// Sequential references
// ---------------------------------------------------------------------

/// Exactly `rounds` synchronous Bellman–Ford relaxation rounds — the
/// reference for engine outputs after a fixed iteration count.
pub fn reference_sssp_rounds(graph: &Graph, source: u32, rounds: usize) -> Vec<f64> {
    let n = graph.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    dist[source as usize] = 0.0;
    for _ in 0..rounds {
        let mut next = dist.clone();
        for u in 0..n as u32 {
            let d = dist[u as usize];
            if d.is_finite() {
                for (v, w) in graph.weighted_neighbors(u) {
                    let cand = d + f64::from(w);
                    if cand < next[v as usize] {
                        next[v as usize] = cand;
                    }
                }
            }
        }
        dist = next;
    }
    dist
}

/// Converged shortest distances via Dijkstra — the ground truth.
pub fn reference_sssp(graph: &Graph, source: u32) -> Vec<f64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(PartialEq)]
    struct Cand(f64, u32);
    impl Eq for Cand {}
    impl PartialOrd for Cand {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Cand {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0
                .partial_cmp(&other.0)
                .unwrap()
                .then(self.1.cmp(&other.1))
        }
    }

    let n = graph.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    dist[source as usize] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse(Cand(0.0, source)));
    while let Some(Reverse(Cand(d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for (v, w) in graph.weighted_neighbors(u) {
            let cand = d + f64::from(w);
            if cand < dist[v as usize] {
                dist[v as usize] = cand;
                heap.push(Reverse(Cand(cand, v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{imr_runner, mr_runner};
    use imr_graph::{generate_weighted_graph, sssp_degree_dist, sssp_weight_dist};

    fn small_graph() -> Graph {
        generate_weighted_graph(120, 600, sssp_degree_dist(), sssp_weight_dist(), 77)
    }

    #[test]
    fn imr_matches_reference_rounds() {
        let g = small_graph();
        let r = imr_runner(4);
        let cfg = IterConfig::new("sssp", 4, 6);
        let out = run_sssp_imr(&r, &g, 0, &cfg).unwrap();
        let expect = reference_sssp_rounds(&g, 0, 6);
        assert_eq!(out.final_state.len(), g.num_nodes());
        for (k, d) in &out.final_state {
            let e = expect[*k as usize];
            assert!(
                (d - e).abs() < 1e-9 || (d.is_infinite() && e.is_infinite()),
                "node {k}: {d} vs {e}"
            );
        }
    }

    #[test]
    fn mapreduce_matches_reference_rounds() {
        let g = small_graph();
        let r = mr_runner(4);
        let out = run_sssp_mr(&r, &g, 0, 4, 5, None).unwrap();
        let expect = reference_sssp_rounds(&g, 0, 5);
        let mut clock = TaskClock::default();
        let got: Vec<(u32, DistAdj)> = imr_mapreduce::io::read_all(
            r.dfs(),
            &out.final_dir,
            imr_simcluster::NodeId(0),
            &mut clock,
        )
        .unwrap();
        assert_eq!(got.len(), g.num_nodes());
        for (k, (d, adj)) in &got {
            let e = expect[*k as usize];
            assert!(
                (d - e).abs() < 1e-9 || (d.is_infinite() && e.is_infinite()),
                "node {k}: {d} vs {e}"
            );
            // Adjacency survives the round trips.
            assert_eq!(adj.len(), g.out_degree(*k));
        }
    }

    #[test]
    fn both_engines_agree_and_imr_is_faster() {
        let g = small_graph();
        let iters = 6;

        let imr = imr_runner(4);
        let cfg = IterConfig::new("sssp", 4, iters);
        let a = run_sssp_imr(&imr, &g, 0, &cfg).unwrap();

        let mr = mr_runner(4);
        let b = run_sssp_mr(&mr, &g, 0, 4, iters, None).unwrap();

        assert_eq!(a.iterations, iters);
        assert_eq!(b.iterations, iters);
        assert!(
            a.report.finished < b.report.finished,
            "iMapReduce {} not faster than MapReduce {}",
            a.report.finished,
            b.report.finished
        );
    }

    #[test]
    fn accumulative_reaches_dijkstra_distances() {
        let g = small_graph();
        let r = imr_runner(4);
        let cfg = IterConfig::new("ssspd", 4, 200)
            .with_accumulative_mode()
            .with_distance_threshold(1e-9);
        let out = run_sssp_delta(&r, &g, 0, &cfg).unwrap();
        assert!(out.iterations < 200);
        let truth = reference_sssp(&g, 0);
        assert_eq!(out.final_state.len(), g.num_nodes());
        for (k, d) in &out.final_state {
            let e = truth[*k as usize];
            assert!(
                (d - e).abs() < 1e-9 || (d.is_infinite() && e.is_infinite()),
                "node {k}: {d} vs {e}"
            );
        }
    }

    #[test]
    fn enough_rounds_reach_dijkstra_distances() {
        let g = small_graph();
        let r = imr_runner(4);
        let cfg = IterConfig::new("sssp", 4, 60).with_distance_threshold(1e-12);
        let out = run_sssp_imr(&r, &g, 0, &cfg).unwrap();
        let truth = reference_sssp(&g, 0);
        for (k, d) in &out.final_state {
            let e = truth[*k as usize];
            assert!(
                (d - e).abs() < 1e-9 || (d.is_infinite() && e.is_infinite()),
                "node {k}: {d} vs {e}"
            );
        }
        assert!(out.iterations < 60, "distance threshold should stop early");
    }
}
