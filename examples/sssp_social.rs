//! Social-network shortest paths with fault tolerance.
//!
//! Mirrors the paper's Facebook experiment: a weighted interaction
//! graph (log-normal weights = interaction frequency), single-source
//! shortest path from a seed user, run to convergence — then the same
//! run with a scripted worker failure, demonstrating checkpoint-based
//! recovery producing identical distances.
//!
//! Run with: `cargo run --release --example sssp_social`

use imapreduce::{FailureEvent, IterConfig, IterEngine};
use imr_algorithms::sssp::{self, SsspIter};
use imr_algorithms::testutil::imr_runner_on;
use imr_graph::dataset;
use imr_simcluster::{ClusterSpec, NodeId};

fn main() {
    // A 1% sample of the paper's Facebook graph row (Table 1).
    let graph = dataset("Facebook").expect("catalog").generate(0.01);
    println!(
        "Facebook-like graph: {} users, {} interaction edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // Clean run, checkpointing every 3 iterations.
    let runner = imr_runner_on(ClusterSpec::local(4));
    let cfg = IterConfig::new("sssp", 4, 40)
        .with_distance_threshold(1e-9)
        .with_checkpoint_interval(3);
    sssp::load_sssp_imr(&runner, &graph, 0, 4, "/s/state", "/s/static").expect("load");
    let clean = runner
        .run(&SsspIter, &cfg, "/s/state", "/s/static", "/s/out", &[])
        .expect("clean run");
    println!(
        "clean run:  {} iterations, finished at {}",
        clean.iterations, clean.report.finished
    );

    // Same computation, but node 2 dies after iteration 5.
    let runner2 = imr_runner_on(ClusterSpec::local(4));
    sssp::load_sssp_imr(&runner2, &graph, 0, 4, "/s/state", "/s/static").expect("load");
    let failures = [FailureEvent {
        node: NodeId(2),
        at_iteration: 5,
    }];
    let failed = runner2
        .run(
            &SsspIter,
            &cfg,
            "/s/state",
            "/s/static",
            "/s/out",
            &failures,
        )
        .expect("failure run");
    println!(
        "failed run: {} iterations, {} recovery, finished at {}",
        failed.iterations, failed.recoveries, failed.report.finished
    );

    assert_eq!(
        clean.final_state, failed.final_state,
        "recovery must be exact"
    );
    let reachable = clean
        .final_state
        .iter()
        .filter(|(_, d)| d.is_finite())
        .count();
    println!(
        "distances identical; {} of {} users reachable from the seed",
        reachable,
        graph.num_nodes()
    );

    // Sanity-check against Dijkstra.
    let truth = sssp::reference_sssp(&graph, 0);
    for (k, d) in &clean.final_state {
        let e = truth[*k as usize];
        assert!((d - e).abs() < 1e-9 || (d.is_infinite() && e.is_infinite()));
    }
    println!("verified against Dijkstra ground truth");
}
