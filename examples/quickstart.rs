//! Quickstart: the paper's Fig. 3 PageRank program, in Rust.
//!
//! Builds a small synthetic webgraph, expresses PageRank as an
//! [`IterativeJob`] (map + reduce + distance, exactly the paper's three
//! interfaces), and runs it under iMapReduce with a distance-based
//! termination threshold — then checks the result against a sequential
//! power iteration.
//!
//! Run with: `cargo run --release --example quickstart`

use imapreduce::{
    load_partitioned, Emitter, IterConfig, IterEngine, IterativeJob, IterativeRunner, StateInput,
};
use imr_dfs::Dfs;
use imr_graph::{generate_graph, pagerank_degree_dist};
use imr_simcluster::{ClusterSpec, Metrics, TaskClock};
use std::sync::Arc;

/// PageRank as an iMapReduce job (paper Fig. 3).
struct PageRank {
    damping: f64,
    n: u64,
}

impl IterativeJob for PageRank {
    type K = u32; // page id
    type S = f64; // ranking score (state data)
    type T = Vec<u32>; // outbound neighbors (static data)

    fn map(
        &self,
        k: &u32,
        state: StateInput<'_, u32, f64>,
        adj: &Vec<u32>,
        out: &mut Emitter<u32, f64>,
    ) {
        // Retain (1-d)/N, spread d*R(u)/|N+(u)| to the neighbors.
        out.emit(*k, (1.0 - self.damping) / self.n as f64);
        if !adj.is_empty() {
            let share = self.damping * state.one() / adj.len() as f64;
            for &v in adj {
                out.emit(v, share);
            }
        }
    }

    fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
        *acc += v;
    }

    fn distance(&self, _k: &u32, prev: &f64, cur: &f64) -> f64 {
        (prev - cur).abs() // Manhattan distance, as in Fig. 3
    }
}

fn main() {
    // A 4-node cluster like the paper's local testbed.
    let spec = Arc::new(ClusterSpec::local(4));
    let metrics = Arc::new(Metrics::default());
    let dfs = Dfs::new(Arc::clone(&spec), Arc::clone(&metrics), 3);
    let runner = IterativeRunner::new(spec, dfs, metrics);

    // A small log-normal webgraph (same generator as the paper's
    // synthetic PageRank sets).
    let graph = generate_graph(5_000, 35_000, pagerank_degree_dist(), 7);
    let n = graph.num_nodes() as u64;
    let job = PageRank { damping: 0.85, n };

    // statepath / staticpath, co-partitioned over 4 task pairs.
    let mut clock = TaskClock::default();
    let ranks: Vec<(u32, f64)> = (0..n as u32).map(|u| (u, 1.0 / n as f64)).collect();
    load_partitioned(
        runner.dfs(),
        "/pr/state",
        ranks,
        4,
        |k, t| job.partition(k, t),
        &mut clock,
    )
    .expect("load state");
    load_partitioned(
        runner.dfs(),
        "/pr/static",
        graph.adjacency_records(),
        4,
        |k, t| job.partition(k, t),
        &mut clock,
    )
    .expect("load static");

    // maxiter 50, disthresh 1e-4 (Fig. 3 lines 10-13).
    let cfg = IterConfig::new("pagerank", 4, 50).with_distance_threshold(1e-4);
    let out = runner
        .run(&job, &cfg, "/pr/state", "/pr/static", "/pr/out", &[])
        .expect("run");

    println!(
        "PageRank converged after {} iterations ({} of virtual time)",
        out.iterations, out.report.finished
    );

    // Cross-check against a sequential power iteration.
    let reference = {
        let mut rank = vec![1.0 / n as f64; n as usize];
        for _ in 0..out.iterations {
            let mut next = vec![0.15 / n as f64; n as usize];
            for u in 0..n as u32 {
                let outl = graph.neighbors(u);
                if !outl.is_empty() {
                    let share = 0.85 * rank[u as usize] / outl.len() as f64;
                    for &v in outl {
                        next[v as usize] += share;
                    }
                }
            }
            rank = next;
        }
        rank
    };
    let max_err = out
        .final_state
        .iter()
        .map(|(k, v)| (v - reference[*k as usize]).abs())
        .fold(0.0f64, f64::max);
    println!("max |engine - reference| = {max_err:.3e}");
    assert!(max_err < 1e-12);

    let mut top: Vec<_> = out.final_state.clone();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("top pages: {:?}", &top[..5.min(top.len())]);
}
