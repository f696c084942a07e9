//! # imapreduce — the paper's primary contribution
//!
//! A from-scratch Rust implementation of **iMapReduce** (Zhang, Gao,
//! Gao, Wang — *J. Grid Computing* 2012): an iterative-processing
//! MapReduce runtime built around three mechanisms:
//!
//! 1. **Persistent tasks** (§3.1) — map/reduce task pairs launched once
//!    for the whole iterative job, eliminating per-iteration job/task
//!    initialization;
//! 2. **State/static separation** (§3.2) — static data loaded to each
//!    map task's local store once and joined with the iterated state
//!    automatically, so only state is shuffled;
//! 3. **Asynchronous map execution** (§3.3) — a persistent local
//!    connection from each reduce task to its paired map task lets maps
//!    start the next iteration without waiting for all reducers.
//!
//! Extensions of §5 are included: one2all broadcast ([`Mapping`]),
//! multi-phase iterations ([`IterativeJob::phases`]), and auxiliary
//! convergence-detection phases ([`AuxPhase`]). Runtime support:
//! distance/max-iteration termination, checkpoint-based fault tolerance
//! with rollback, and migration-based load balancing.
//!
//! ```
//! use imapreduce::{Emitter, IterConfig, IterEngine, IterativeJob, IterativeRunner, StateInput};
//! use imr_dfs::Dfs;
//! use imr_simcluster::{ClusterSpec, Metrics, TaskClock};
//! use std::sync::Arc;
//!
//! /// Each key's state is halved every iteration.
//! struct Halve;
//! impl IterativeJob for Halve {
//!     type K = u32;
//!     type S = f64;
//!     type T = ();
//!     fn map(&self, k: &u32, s: StateInput<'_, u32, f64>, _t: &(), out: &mut Emitter<u32, f64>) {
//!         out.emit(*k, s.one() / 2.0);
//!     }
//!     fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
//!         *acc += v;
//!     }
//! }
//!
//! let spec = Arc::new(ClusterSpec::local(2));
//! let metrics = Arc::new(Metrics::default());
//! let dfs = Dfs::new(Arc::clone(&spec), Arc::clone(&metrics), 2);
//! let runner = IterativeRunner::new(spec, dfs, metrics);
//!
//! let mut clock = TaskClock::default();
//! let job = Halve;
//! let data: Vec<(u32, f64)> = (0..8).map(|k| (k, 1024.0)).collect();
//! let statics: Vec<(u32, ())> = (0..8).map(|k| (k, ())).collect();
//! imapreduce::load_partitioned(runner.dfs(), "/state", data, 2, |k, n| job.partition(k, n), &mut clock).unwrap();
//! imapreduce::load_partitioned(runner.dfs(), "/static", statics, 2, |k, n| job.partition(k, n), &mut clock).unwrap();
//!
//! let cfg = IterConfig::new("halve", 2, 3);
//! let out = runner.run(&job, &cfg, "/state", "/static", "/out", &[]).unwrap();
//! assert_eq!(out.iterations, 3);
//! assert!(out.final_state.iter().all(|&(_, v)| v == 128.0));
//! ```

#![forbid(unsafe_code)]
// The engines walk several parallel per-task arrays by index; indexed
// loops keep those lock-step walks explicit. Phase signatures carry
// the full generic state on purpose.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]
#![warn(missing_docs)]

mod accum;
mod api;
mod aux;
mod config;
mod ctl;
mod engine;
mod incremental;
mod iter_engine;
mod kernel;
mod observe;
#[doc(hidden)]
pub mod pair;
mod sim_env;
mod static_part;
mod store;
#[doc(hidden)]
pub mod supervise;

pub use accum::Accumulative;
pub use api::{Emitter, IterativeJob, Mapping, StateInput};
pub use aux::{run_with_aux, AuxOutcome, AuxPhase};
pub use config::{
    Delta, FailureEvent, FaultEvent, IterConfig, Iterative, LoadBalance, Mode, Termination,
    WatchdogConfig,
};
pub use ctl::RunCtl;
pub use engine::{IterOutcome, IterativeRunner};
pub use incremental::{
    apply_delta, AppliedDelta, FixpointStore, GraphDelta, GraphDeltaOp, Incremental,
    IncrementalOutcome, PatchStats,
};
pub use iter_engine::IterEngine;
pub use kernel::{fold_votes, reduce_side, MapScratch, MapState};
pub use observe::{phase_of, Observer};
pub use static_part::StaticPart;
pub use store::{check_inputs, load_partitioned};

// Re-export the engine error type jobs see.
pub use imr_mapreduce::EngineError;

// Re-export the network policy and chaos types carried by IterConfig.
pub use imr_net::{ChaosConfig, NetPolicy};
