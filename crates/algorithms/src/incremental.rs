//! Shared harness for incremental (i2MapReduce-style) runs of the
//! graph workloads: cold convergence from adjacency maps, fixpoint
//! preservation, and warm re-convergence after a [`GraphDelta`].
//!
//! The CSR [`Graph`] cannot drop nodes, so everything incremental
//! operates on **adjacency maps** (`BTreeMap<u32, T>`): the base map is
//! built once from a `Graph`, deltas are applied through the core's
//! [`apply_delta`] (shared with the planner, so cold and incremental
//! paths see bit-identical static bytes), and cold recomputes load
//! their inputs straight from the mutated map.
//!
//! Directory convention (one namespace string per experiment):
//!
//! ```text
//! {ns}/state, {ns}/static, {ns}/out   — cold converge on the base map
//! {ns}/fix                            — preserved fixpoint store root
//! {ns}/inc-state, {ns}/inc-static,
//! {ns}/inc-out                        — warm re-convergence after a delta
//! ```

use std::collections::BTreeMap;

use imapreduce::{
    apply_delta, load_partitioned, Delta, FixpointStore, GraphDelta, Incremental,
    IncrementalOutcome, IterConfig, IterEngine, IterOutcome,
};
use imr_graph::Graph;
use imr_mapreduce::EngineError;
use imr_simcluster::TaskClock;

use crate::sssp::Adj;

/// The DFS directories used by one incremental experiment namespace.
#[derive(Debug, Clone)]
pub struct IncDirs {
    /// Cold-converge state parts.
    pub state: String,
    /// Cold-converge static parts (the pre-delta graph — what
    /// `run_incremental` reads back as `prev_static_dir`).
    pub static_: String,
    /// Cold-converge output parts (what the fixpoint store preserves).
    pub out: String,
    /// Fixpoint store root.
    pub fix: String,
    /// Warm-start state parts written by the incremental planner.
    pub inc_state: String,
    /// Patched static parts written by the incremental planner.
    pub inc_static: String,
    /// Incremental run output parts.
    pub inc_out: String,
}

/// The directory layout for namespace `ns`.
pub fn inc_dirs(ns: &str) -> IncDirs {
    IncDirs {
        state: format!("{ns}/state"),
        static_: format!("{ns}/static"),
        out: format!("{ns}/out"),
        fix: format!("{ns}/fix"),
        inc_state: format!("{ns}/inc-state"),
        inc_static: format!("{ns}/inc-static"),
        inc_out: format!("{ns}/inc-out"),
    }
}

/// Unweighted adjacency map of `graph` (PageRank, connected
/// components).
pub fn unweighted_statics(graph: &Graph) -> BTreeMap<u32, Vec<u32>> {
    graph.adjacency_records().into_iter().collect()
}

/// Weighted adjacency map of `graph` (SSSP).
pub fn weighted_statics(graph: &Graph) -> BTreeMap<u32, Adj> {
    graph.weighted_records().into_iter().collect()
}

/// Apply `delta` to a copy of `base`, via the same [`apply_delta`] the
/// planner uses — the returned map is exactly the static store an
/// incremental run converges on, ready for a cold recompute.
pub fn patched_statics<J: Incremental>(
    job: &J,
    base: &BTreeMap<u32, J::T>,
    delta: &GraphDelta,
) -> Result<BTreeMap<u32, J::T>, EngineError> {
    let mut statics = base.clone();
    apply_delta(job, &mut statics, delta).map_err(EngineError::Config)?;
    Ok(statics)
}

/// Load initial state ([`Incremental::initial_state`] per live key) and
/// static parts from an adjacency map, co-partitioned with the job's
/// partition function.
pub fn load_incremental<J: Incremental>(
    runner: &impl IterEngine,
    job: &J,
    statics: &BTreeMap<u32, J::T>,
    num_tasks: usize,
    state_dir: &str,
    static_dir: &str,
) -> Result<(), EngineError> {
    let mut clock = TaskClock::default();
    let state: Vec<(u32, J::S)> = statics.keys().map(|&k| (k, job.initial_state(k))).collect();
    let stat: Vec<(u32, J::T)> = statics.iter().map(|(&k, t)| (k, t.clone())).collect();
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
        stat,
        num_tasks,
        |k, n| job.partition(k, n),
        &mut clock,
    )?;
    Ok(())
}

/// Cold accumulative convergence on an adjacency map: load under
/// `{ns}/state` / `{ns}/static`, run to the fixpoint, output under
/// `{ns}/out`, in the delta mode (cold inputs are plain per-key values).
pub fn converge_cold<J: Incremental>(
    runner: &impl IterEngine,
    job: &J,
    statics: &BTreeMap<u32, J::T>,
    cfg: &IterConfig<Delta>,
    ns: &str,
) -> Result<IterOutcome<u32, J::S>, EngineError> {
    let d = inc_dirs(ns);
    load_incremental(runner, job, statics, cfg.num_tasks, &d.state, &d.static_)?;
    runner.run_accumulative(job, cfg, &d.state, &d.static_, &d.out, &[])
}

/// [`converge_cold`], then preserve the converged output in the
/// namespace's [`FixpointStore`]. Returns the outcome and the store
/// handle a later [`run_incremental_ns`] warm-starts from.
pub fn converge_and_preserve<J: Incremental>(
    runner: &impl IterEngine,
    job: &J,
    statics: &BTreeMap<u32, J::T>,
    cfg: &IterConfig<Delta>,
    ns: &str,
) -> Result<(IterOutcome<u32, J::S>, FixpointStore), EngineError> {
    let outcome = converge_cold(runner, job, statics, cfg, ns)?;
    let d = inc_dirs(ns);
    let fix = FixpointStore::new(d.fix);
    let mut clock = TaskClock::default();
    fix.preserve(runner.dfs(), outcome.iterations, &d.out, &mut clock)?;
    Ok((outcome, fix))
}

/// Re-converge from the namespace's preserved fixpoint after `delta`
/// mutates the graph. `cfg` is the same delta-mode config used for the
/// cold converge; `run_incremental` turns the warm start on.
pub fn run_incremental_ns<J: Incremental>(
    runner: &impl IterEngine,
    job: &J,
    cfg: &IterConfig<Delta>,
    fix: &FixpointStore,
    ns: &str,
    delta: &GraphDelta,
) -> Result<IncrementalOutcome<J::S>, EngineError> {
    let d = inc_dirs(ns);
    runner.run_incremental(
        job,
        cfg,
        fix,
        &d.static_,
        delta,
        &d.inc_state,
        &d.inc_static,
        &d.inc_out,
        &[],
    )
}

/// Largest absolute difference between two co-keyed f64 states, with
/// matching infinities counting as zero. Panics if the key sets
/// differ — an incremental run must cover exactly the live node set.
pub fn max_abs_diff(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    assert_eq!(
        a.len(),
        b.len(),
        "state sizes differ: {} vs {}",
        a.len(),
        b.len()
    );
    let mut worst = 0.0f64;
    for ((ka, va), (kb, vb)) in a.iter().zip(b) {
        assert_eq!(ka, kb, "key sets differ");
        if va.is_infinite() && vb.is_infinite() {
            continue;
        }
        worst = worst.max((va - vb).abs());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concomp::ConCompIter;
    use crate::pagerank::PageRankIter;
    use crate::sssp::SsspInc;
    use crate::testutil::{imr_runner, native_runner};
    use bytes::Bytes;
    use imr_graph::{
        generate_graph, generate_weighted_graph, pagerank_degree_dist, sssp_degree_dist,
        sssp_weight_dist,
    };
    use imr_simcluster::NodeId;

    fn sssp_cfg() -> IterConfig<Delta> {
        IterConfig::new("inc-sssp", 3, 300)
            .with_accumulative_mode()
            .with_distance_threshold(1e-9)
    }

    #[test]
    fn sssp_incremental_matches_cold_recompute_exactly() {
        let g = generate_weighted_graph(80, 400, sssp_degree_dist(), sssp_weight_dist(), 11);
        let job = SsspInc { source: 0 };
        let base = weighted_statics(&g);
        let cfg = sssp_cfg();

        let r = imr_runner(3);
        let (_, fix) = converge_and_preserve(&r, &job, &base, &cfg, "/i/s").unwrap();

        // First two nodes that still have out-edges.
        let mut srcs = (0..80u32).filter(|&u| !g.neighbors(u).is_empty());
        let (a, b) = (srcs.next().unwrap(), srcs.next().unwrap());
        let mut delta = GraphDelta::new();
        delta
            .insert_edge(3, 40, 0.01)
            .remove_edge(a, g.neighbors(a)[0])
            .reweight_edge(b, g.neighbors(b)[0], 9.5);
        let inc = run_incremental_ns(&r, &job, &cfg, &fix, "/i/s", &delta).unwrap();
        assert!(inc.stats.reset > 0 || inc.stats.corrections > 0);

        let patched = patched_statics(&job, &base, &delta).unwrap();
        let cold = converge_cold(&imr_runner(3), &job, &patched, &cfg, "/c/s").unwrap();
        assert_eq!(inc.outcome.final_state, cold.final_state);
    }

    #[test]
    fn pagerank_incremental_matches_cold_within_detector_residual() {
        let g = generate_graph(70, 350, pagerank_degree_dist(), 5);
        let job = PageRankIter::new(g.num_nodes() as u64);
        let base = unweighted_statics(&g);
        let cfg = IterConfig::new("inc-pr", 3, 600)
            .with_accumulative_mode()
            .with_distance_threshold(1e-10);

        let r = imr_runner(3);
        let (_, fix) = converge_and_preserve(&r, &job, &base, &cfg, "/i/p").unwrap();

        let rm = (0..70u32).find(|&u| !g.neighbors(u).is_empty()).unwrap();
        let mut delta = GraphDelta::new();
        delta
            .insert_node(70)
            .insert_edge(2, 70, 1.0)
            .insert_edge(70, 5, 1.0)
            .remove_edge(rm, g.neighbors(rm)[0]);
        let inc = run_incremental_ns(&r, &job, &cfg, &fix, "/i/p", &delta).unwrap();
        assert!(
            inc.stats.corrections > 0,
            "invertible plan must inject corrections"
        );
        assert_eq!(inc.stats.inserted, 1);

        let patched = patched_statics(&job, &base, &delta).unwrap();
        let cold = converge_cold(&imr_runner(3), &job, &patched, &cfg, "/c/p").unwrap();
        let gap = max_abs_diff(&inc.outcome.final_state, &cold.final_state);
        assert!(gap < 1e-8, "incremental vs cold gap {gap}");
    }

    #[test]
    fn concomp_incremental_matches_cold_after_component_split() {
        // Two chains joined by a bridge; removing the bridge splits the
        // component and must reset the orphaned side.
        let g = Graph::from_adjacency(vec![
            vec![1],
            vec![0, 2],
            vec![1, 3],
            vec![2, 4],
            vec![3],
            vec![6],
            vec![5],
        ]);
        let job = ConCompIter;
        let base = unweighted_statics(&g);
        let cfg = IterConfig::new("inc-cc", 2, 100)
            .with_accumulative_mode()
            .with_distance_threshold(0.5);

        let r = imr_runner(2);
        let (prev, fix) = converge_and_preserve(&r, &job, &base, &cfg, "/i/c").unwrap();
        assert!(prev.final_state[4].1 == 0);

        let mut delta = GraphDelta::new();
        delta
            .remove_edge(2, 3)
            .remove_edge(3, 2)
            .insert_edge(4, 5, 1.0);
        let inc = run_incremental_ns(&r, &job, &cfg, &fix, "/i/c", &delta).unwrap();

        let patched = patched_statics(&job, &base, &delta).unwrap();
        let cold = converge_cold(&imr_runner(2), &job, &patched, &cfg, "/c/c").unwrap();
        assert_eq!(inc.outcome.final_state, cold.final_state);
        // {0,1,2} keep label 0; {3,4,5,6} re-root at 3.
        assert_eq!(cold.final_state[3].1, 3);
        assert_eq!(cold.final_state[6].1, 3);
    }

    #[test]
    fn empty_delta_returns_previous_fixpoint_immediately() {
        let g = generate_weighted_graph(40, 160, sssp_degree_dist(), sssp_weight_dist(), 3);
        let job = SsspInc { source: 0 };
        let base = weighted_statics(&g);
        let cfg = sssp_cfg();
        let r = imr_runner(2);
        let (prev, fix) = converge_and_preserve(&r, &job, &base, &cfg, "/i/e").unwrap();
        let inc = run_incremental_ns(&r, &job, &cfg, &fix, "/i/e", &GraphDelta::new()).unwrap();
        assert_eq!(inc.outcome.final_state, prev.final_state);
        assert_eq!(inc.stats.reset, 0);
        assert_eq!(inc.stats.corrections, 0);
        assert_eq!(
            inc.outcome.iterations, 1,
            "no pending work: one check and done"
        );
    }

    /// A previous static part or a fixpoint part that does not decode
    /// is `EngineError::Codec`, as every engine reports a part it read
    /// but cannot decode.
    #[test]
    fn a_part_that_does_not_decode_is_a_codec_error_on_every_engine() {
        fn check(runner: &impl IterEngine) {
            let g = generate_weighted_graph(40, 160, sssp_degree_dist(), sssp_weight_dist(), 3);
            let job = SsspInc { source: 0 };
            let (dfs, cfg, d) = (runner.dfs(), sssp_cfg(), inc_dirs("/i/z"));
            let (_, fix) =
                converge_and_preserve(runner, &job, &weighted_statics(&g), &cfg, "/i/z").unwrap();
            let mut clock = TaskClock::default();
            let (it, _) = fix.latest(dfs, &mut clock).unwrap().unwrap();
            let fix_part = format!("{}/fix-{it:05}/part-00000", d.fix);
            let static_part = format!("{}/part-00000", d.static_);
            for path in [static_part, fix_part] {
                let good = dfs.read(&path, NodeId(0), &mut clock).unwrap();
                let junk = Bytes::from_static(&[0xff]);
                dfs.put_atomic(&path, junk, NodeId(0), &mut clock).unwrap();
                let delta = GraphDelta::new();
                match run_incremental_ns(runner, &job, &cfg, &fix, "/i/z", &delta) {
                    Err(EngineError::Codec(_)) => {}
                    other => panic!("{path}: expected a Codec error, got {other:?}"),
                }
                dfs.put_atomic(&path, good, NodeId(0), &mut clock).unwrap();
            }
        }
        check(&imr_runner(2));
        check(&native_runner(2));
    }
}
