//! The worker-process job catalog for the TCP multi-process backend.
//!
//! A TCP run of an [`imr_native::NativeRunner`] — a TCP config on a
//! runner with workers attached (`NativeRunner::with_workers`) — spawns
//! one OS process per map/reduce pair; each process must resolve the
//! *same* job the coordinator is running from its argv and call
//! [`imr_native::serve_worker`]. This module is that resolution step,
//! shared by the `imr-worker` binary and the integration tests, so they
//! all speak the same catalog.
//!
//! Worker argv: `<addr> <pair> <generation> <job-id> <job> [params...]`
//! where `<job-id>` is the coordinator's numeric job tag (0 outside the
//! job service) and `<job>` is one of:
//!
//! * `halve` — the [`Halve`] micro-job (one2one, no static data)
//! * `sssp` — single-source shortest path (one2one, async-friendly)
//! * `pagerank <num_nodes>` — PageRank over `num_nodes` nodes
//! * `kmeans <0|1>` — K-means, with (`1`) or without (`0`) the combiner
//! * `concomp` — connected components by HashMin label propagation
//!
//! Accumulative-capable jobs (`sssp`, `pagerank`, `concomp`) are served
//! through [`imr_native::serve_worker_accum`], so the same worker binary
//! runs them in either the map/reduce loop or the barrier-free delta
//! loop — the coordinator's setup frame picks the mode.

use imr_algorithms::concomp::ConCompIter;
use imr_algorithms::kmeans::KmeansIter;
use imr_algorithms::pagerank::PageRankIter;
use imr_algorithms::sssp::SsspIter;
use imr_native::{serve_worker, serve_worker_accum};

pub use imr_jobs::Halve;

/// Parses worker argv
/// (`<addr> <pair> <generation> <job-id> <job> [params...]`), resolves
/// the job from the catalog and serves it to completion.
pub fn serve_from_args(args: &[String]) -> Result<(), String> {
    if args.len() < 5 {
        return Err(
            "usage: imr-worker <addr> <pair> <generation> <job-id> <job> [params...]".into(),
        );
    }
    let addr = &args[0];
    let pair: usize = args[1].parse().map_err(|e| format!("bad pair: {e}"))?;
    let generation: u64 = args[2]
        .parse()
        .map_err(|e| format!("bad generation: {e}"))?;
    let job_id: u64 = args[3].parse().map_err(|e| format!("bad job id: {e}"))?;
    let params = &args[5..];
    match args[4].as_str() {
        "halve" => serve_worker(&Halve, addr, pair, generation, job_id),
        "sssp" => serve_worker_accum(&SsspIter, addr, pair, generation, job_id),
        "pagerank" => {
            let n: u64 = params
                .first()
                .ok_or("pagerank needs <num_nodes>")?
                .parse()
                .map_err(|e| format!("bad num_nodes: {e}"))?;
            serve_worker_accum(&PageRankIter::new(n), addr, pair, generation, job_id)
        }
        "concomp" => serve_worker_accum(&ConCompIter, addr, pair, generation, job_id),
        "kmeans" => {
            let combiner = params.first().is_some_and(|p| p == "1");
            serve_worker(&KmeansIter { combiner }, addr, pair, generation, job_id)
        }
        other => Err(format!("unknown worker job '{other}'")),
    }
}
