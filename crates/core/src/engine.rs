//! The iMapReduce runtime (paper §3) on the simulated cluster.
//!
//! One job = `num_tasks` *persistent* map/reduce task pairs. Each pair
//! is launched once, holds its static data partition locally, and loops
//! over iterations: join state with static → map → shuffle state →
//! reduce → hand the new state straight back to the paired map task
//! over a local persistent connection. Map tasks activate
//! asynchronously (as soon as *their* reduce finished) unless the job
//! forces synchronous execution or uses one2all broadcast.
//!
//! There is no iteration loop here. Every simulated run is core's pair
//! loop (`pair.rs`) — `pair_loop` for `run`, `run_faults` and
//! `run_with_aux`, `delta_loop` for `run_accumulative` — one thread per
//! pair on the virtual-clock `SimEnv` (`sim_env.rs`), the same loop the
//! native backends run, under the same master: core's `supervise`
//! (`supervise.rs`) triages every generation, rolls the run back after
//! a failure (§3.4.1) or for a migration (§3.4.2), moves a failed
//! node's pairs and assembles the report, for every engine. A scripted
//! kill or hang takes effect in the failing pair's own exit, in every
//! mode, faults in the delta mode included. `sim_env.rs` keeps what a
//! virtual clock needs of the master — when it decided (§3.1.2), what a
//! relaunch and a reload cost — the failed node's DFS disks, and the
//! clock of the auxiliary phase (§5.3).
//! This module keeps the runner, its one entry with the simulator's
//! refusals, and the helpers `sim_env.rs` charges a segment's arrival
//! and the final dump with.

use crate::api::IterativeJob;
use crate::aux::AuxPhase;
use crate::config::{Delta, FaultEvent, IterConfig, Mode};
use crate::iter_engine::IterEngine;
use crate::observe::Observer;
use crate::pair::{delta_loop, pair_loop, PairCtx, PairOutcome};
use crate::sim_env::{SimEnv, Turns};
use crate::store::{check_inputs, check_slots};
use bytes::Bytes;
use imr_dfs::Dfs;
use imr_mapreduce::io::part_path;
use imr_mapreduce::EngineError;
use imr_simcluster::{ClusterSpec, MetricsHandle, NodeId, RunReport, TaskClock, VInstant};
use imr_telemetry::TelemetryHandle;
use imr_trace::TraceHandle;
use std::sync::Arc;

/// The outcome of one iMapReduce run.
#[derive(Debug, Clone)]
pub struct IterOutcome<K, S> {
    /// Virtual-time report (per-iteration completion, total, metrics).
    pub report: RunReport,
    /// Final state, sorted by key (also committed to the output dir).
    pub final_state: Vec<(K, S)>,
    /// Iterations executed (rolled-back iterations not counted twice).
    pub iterations: usize,
    /// Global distance measured after each iteration (`INFINITY` while
    /// no previous snapshot exists or no threshold is set).
    pub distances: Vec<f64>,
    /// Task-pair migrations performed by load balancing.
    pub migrations: u64,
    /// Failure recoveries performed.
    pub recoveries: u64,
}

/// Executes [`IterativeJob`]s over one simulated cluster + DFS.
#[derive(Clone)]
pub struct IterativeRunner {
    pub(crate) cluster: Arc<ClusterSpec>,
    pub(crate) dfs: Dfs,
    pub(crate) metrics: MetricsHandle,
    pub(crate) observer: Observer,
}

impl IterativeRunner {
    /// A runner over the given substrate handles.
    pub fn new(cluster: Arc<ClusterSpec>, dfs: Dfs, metrics: MetricsHandle) -> Self {
        IterativeRunner {
            cluster,
            dfs,
            observer: Observer::new(Arc::clone(&metrics)),
            metrics,
        }
    }

    /// Attaches a trace ring: subsequent runs record per-task iteration
    /// spans (virtual-time timestamps) and fault-path events into it,
    /// and fault recovery dumps a flight-recorder artifact to the DFS.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.observer.attach_trace(trace);
        self
    }

    /// Attaches a telemetry registry: subsequent runs record each phase
    /// span's latency into its histograms and push one sample per pair
    /// per iteration, stamped with virtual time — so the sampled series
    /// is bit-identical across runs of the same job.
    pub fn with_telemetry(mut self, telemetry: TelemetryHandle) -> Self {
        self.observer.attach_telemetry(telemetry);
        self
    }

    /// The cluster this runner schedules on.
    pub fn cluster(&self) -> &Arc<ClusterSpec> {
        &self.cluster
    }

    /// The DFS this runner reads and writes.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Maximum number of persistent task pairs this cluster can host
    /// (every pair needs a map slot and a reduce slot for the whole
    /// run, §3.1.1).
    pub fn pair_capacity(&self) -> usize {
        self.cluster.pair_capacity()
    }

    /// The one entry behind every simulated mode — the simulator's
    /// [`IterEngine::run_faults`] and `run_accumulative`, and
    /// [`run_with_aux`](crate::run_with_aux): the refusals and launch
    /// accounting, then `pair_fn` (core's `pair_loop` or its
    /// `delta_loop`, as `cfg`'s mode says) under the one master. `dirs`
    /// are the state, static and output directories. With `Some(aux)`
    /// (one2all only) the auxiliary phase of §5.3 runs as one more step
    /// of each iteration, and its stop signal ends the run; the aux
    /// totals come back next to the outcome.
    pub(crate) fn simulate<J, F>(
        &self,
        job: &J,
        cfg: &IterConfig<dyn Mode>,
        dirs: [&str; 3],
        (faults, aux): (&[FaultEvent], Option<&dyn AuxPhase<J::K, J::S>>),
        pair_fn: F,
    ) -> Result<(IterOutcome<J::K, J::S>, Vec<f64>), EngineError>
    where
        J: IterativeJob,
        F: Fn(PairCtx<'_, J, SimEnv<'_>>) -> Result<PairOutcome, EngineError> + Sync,
    {
        cfg.validate(faults)?;
        // The simulator models its own network: there is no wire here.
        cfg.check_wire(false)?;
        if cfg.mode.iterative().is_some_and(|m| m.resume) {
            return Err(EngineError::Config(
                "resume is native-only: the simulator writes checkpoint snapshots but \
                 not the distance-history sidecar resume rebuilds the run from"
                    .into(),
            ));
        }
        // The aux tasks take n more pair slots and 2n more task launches.
        let aux_tasks = if aux.is_some() { cfg.num_tasks } else { 0 };
        check_slots(cfg.num_tasks + aux_tasks, self.pair_capacity())?;
        check_inputs(&self.dfs, cfg, job.phases(), dirs[0], dirs[1])?;
        self.metrics.tasks_launched.add(2 * aux_tasks as u64);
        Turns::run(self, job, cfg, dirs, (faults, aux), pair_fn)
    }

    /// When a segment of `bytes` sent at `sent` from node `from` lands on
    /// node `to`; counts it as local or remote shuffle traffic.
    pub(crate) fn arrival(&self, sent: VInstant, from: NodeId, to: NodeId, bytes: u64) -> VInstant {
        let metrics = &self.metrics;
        let traffic = if from == to {
            &metrics.shuffle_local_bytes
        } else {
            &metrics.shuffle_remote_bytes
        };
        traffic.add(bytes);
        sent + self.cluster.transfer_time(from, to, bytes)
    }

    /// The final output dump (once, at termination; Fig. 1b): pair `q`
    /// commits the encoded `parts[q]` to `output_dir` starting at
    /// `starts[q]`. Returns when the last commit landed.
    pub(crate) fn dump_final(
        &self,
        output_dir: &str,
        parts: Vec<Bytes>,
        assignment: &[NodeId],
        starts: &[VInstant],
    ) -> Result<VInstant, EngineError> {
        let mut finished = VInstant::EPOCH;
        for (q, data) in parts.into_iter().enumerate() {
            let mut clock = TaskClock::starting_at(starts[q]);
            self.dfs
                .put(&part_path(output_dir, q), data, assignment[q], &mut clock)?;
            finished = finished.max(clock.now());
        }
        Ok(finished)
    }
}

/// The simulated cluster behind the one engine trait: `run_faults`
/// is core's [`pair_loop`] and `run_accumulative` its [`delta_loop`],
/// one thread per pair, the pairs taking turns in a fixed order on
/// virtual clocks (`sim_env.rs`). So `final_state`, `distances` and the
/// canonical trace-kind sequence match the native engines' by
/// construction, and repeated simulated runs are bit-reproducible.
impl IterEngine for IterativeRunner {
    fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Kills recover through checkpoint rollback, delays charge lost
    /// processing time on the affected node's pairs, and hangs model
    /// watchdog detection: the stalled pair is declared failed only
    /// after the configured `stall_timeout` of virtual-time silence,
    /// then recovered the same way a kill is.
    fn run_faults<J: IterativeJob>(
        &self,
        job: &J,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        let dirs = [state_dir, static_dir, output_dir];
        Ok(self
            .simulate(job, cfg, dirs, (faults, None), |ctx| pair_loop(ctx))?
            .0)
    }

    /// Kills and hangs recover as in [`run_faults`](Self::run_faults),
    /// counted in termination checks.
    fn run_accumulative<J: crate::Accumulative>(
        &self,
        job: &J,
        cfg: &IterConfig<Delta>,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        let dirs = [state_dir, static_dir, output_dir];
        Ok(self
            .simulate(job, cfg, dirs, (faults, None), |ctx| delta_loop(ctx))?
            .0)
    }
}
