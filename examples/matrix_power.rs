//! Matrix power computation (paper §5.2) — an iteration that needs two
//! chained map-reduce phases (`job1.addSuccessor(job2)`), run on both
//! engines and verified against a dense reference. Under iMapReduce the
//! two phases are one job of two phases: each multiplication is two
//! iterations of the pair loop.
//!
//! Run with: `cargo run --release --example matrix_power`

use imr_algorithms::matpower;
use imr_algorithms::testutil::{imr_runner_on, mr_runner_on};
use imr_graph::generate_matrix;
use imr_simcluster::ClusterSpec;

fn main() {
    let size = 40;
    let iterations = 4; // computes M^5
    let m = generate_matrix(size, 3);
    println!("computing M^{} for a {size}x{size} matrix", iterations + 1);

    // iMapReduce: persistent pairs that alternate the gather and the
    // multiply phase, each pair holding the static part of both.
    let imr = imr_runner_on(ClusterSpec::local(4));
    let a = matpower::run_matpower_imr(&imr, &m, 2, iterations).expect("imr");
    println!(
        "iMapReduce: {} iterations in {}",
        a.iterations, a.report.finished
    );

    // Baseline: two chained Hadoop jobs per iteration, M reloaded and
    // reshuffled every time.
    let mr = mr_runner_on(ClusterSpec::local(4));
    let b = matpower::run_matpower_mr(&mr, &m, 2, iterations).expect("mr");
    println!(
        "MapReduce:  {} iterations in {}",
        b.iterations, b.report.finished
    );
    println!(
        "speedup: {:.2}x (paper: ~10% — the Map2/Reduce2 shuffle dominates)",
        b.report.finished.as_secs_f64() / a.report.finished.as_secs_f64()
    );

    // Exact agreement between engines and with the dense reference.
    let expect = matpower::reference_matpower(&m, iterations);
    assert_eq!(a.final_state.len(), size * size);
    for (((i, k), v), (_, w)) in a.final_state.iter().zip(&b.result) {
        let e = expect[*i as usize][*k as usize];
        assert!((v - e).abs() < 1e-9 * e.abs().max(1.0), "({i},{k})");
        assert!((w - e).abs() < 1e-9 * e.abs().max(1.0));
    }
    println!("results verified against dense matrix multiplication");
}
