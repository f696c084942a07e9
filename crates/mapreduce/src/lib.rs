//! # imr-mapreduce — the Hadoop-like baseline engine
//!
//! A faithful stand-in for stock Hadoop MapReduce over the simulated
//! cluster and DFS, providing the baseline every figure of the paper
//! compares against:
//!
//! * [`MrJob`] — the `Mapper`/`Reducer`/`Combiner` contract;
//! * [`JobRunner`] — one-job execution: job setup, slot-scheduled map
//!   wave (with locality preference), sort/spill/combine, shuffle,
//!   reduce wave, DFS commit;
//! * [`run_iterative`] — the client-side driver loop that chains one
//!   job per iteration plus an optional per-iteration termination-check
//!   job, reproducing all three §2.2 limitations.

#![forbid(unsafe_code)]
// The engines walk several parallel per-task arrays by index; indexed
// loops keep those lock-step walks explicit. Phase signatures carry
// the full generic state on purpose.
#![allow(clippy::needless_range_loop, clippy::type_complexity)]
#![warn(missing_docs)]

mod charge;
mod driver;
pub mod io;
mod job;
mod runner;
mod schedule;

pub use charge::ClockCharge;
pub use driver::{run_iterative, CheckSpec, IterativeOutcome};
pub use job::{Emitter, JobConfig, JobCounters, MrJob};
pub use runner::{EngineError, JobResult, JobRunner};
pub use schedule::SlotPool;
