//! # imr-jobs — multi-tenant job service over the iMapReduce engines
//!
//! The paper treats one iterative job at a time; real deployments run
//! many. This crate adds the service layer that shares one fleet of
//! task slots among concurrent iterative jobs:
//!
//! * **Catalog** ([`catalog`]) — every job's typed [`JobSpec`] and
//!   lifecycle [`JobMeta`] journaled to the DFS under a per-job
//!   namespace, so storage (not the coordinator process) is the source
//!   of truth and tenants are isolated by construction.
//! * **Admission queue** ([`queue`]) — priority-ordered, slot-aware,
//!   strict head-of-line admission (deterministic and starvation-free).
//! * **Fleet scheduler** ([`service`]) — [`JobService::run_until_idle`]
//!   admits jobs while their slot footprint fits, runs each attempt on
//!   its own engine instance with its own [`RunCtl`](imapreduce::RunCtl)
//!   and trace ring, and journals every transition.
//! * **Durable resume** — a killed-and-restarted coordinator
//!   ([`JobService::recover`]) requeues every in-flight job with the
//!   engine-level resume flag, restarting from the newest complete
//!   checkpoint snapshot (§3.4.1's checkpoints, reused as a service
//!   journal) and producing bit-identical results.
//! * **Dead-letter queue** — a job that exhausts its retry budget is
//!   journaled as dead with a [`DlqEntry`] and its flight-recorder
//!   artifact, instead of wedging the queue.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod exec;
pub mod queue;
pub mod service;
pub mod spec;

pub use catalog::{DlqEntry, JobId, JobMeta, JobPhase};
pub use exec::{ExecCtx, Halve, ResultRecord};
pub use queue::{Admission, AdmissionQueue};
pub use service::{JobService, JobStatus, ServiceConfig, ServiceError};
pub use spec::{AlgoSpec, EngineSel, FaultPolicy, InputSpec, JobSpec};
