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
//! a failure (§3.4.1) or for a migration (§3.4.2) and assembles the
//! report, for every engine. `sim_env.rs` keeps what a virtual clock
//! needs of it — when the master decided (§3.1.2), what a relaunch and a
//! reload cost, where a dead node's pairs go — and the clock of the
//! auxiliary phase (§5.3).
//! This module keeps the runner, its refusals, and the helpers the
//! two-phase driver (`multiphase.rs`) shares.

use crate::api::{IterativeJob, Mapping};
use crate::aux::AuxPhase;
use crate::config::{FaultEvent, IterConfig, TransportKind};
use crate::iter_engine::IterEngine;
use crate::observe::Observer;
use crate::pair::{delta_loop, pair_loop};
use crate::sim_env::Turns;
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

    /// The refusals and launch accounting behind the simulator's
    /// [`IterEngine::run_faults`] and
    /// [`run_with_aux`](crate::run_with_aux), then the run. `dirs` are
    /// the state, static and output directories. With `Some(aux)`
    /// (one2all only) the auxiliary phase of §5.3 runs as one more step
    /// of each iteration, and its stop signal ends the run; the aux
    /// totals come back next to the outcome.
    pub(crate) fn map_reduce<J: IterativeJob>(
        &self,
        job: &J,
        cfg: &IterConfig,
        [state_dir, static_dir, output_dir]: [&str; 3],
        faults: &[FaultEvent],
        aux: Option<&dyn AuxPhase<J::K, J::S>>,
    ) -> Result<(IterOutcome<J::K, J::S>, Vec<f64>), EngineError> {
        cfg.validate(faults)?;
        refuse_tcp(cfg)?;
        if cfg.accumulative {
            return Err(EngineError::Config(
                "cfg.accumulative is set: use run_accumulative for barrier-free \
                 delta-accumulative execution"
                    .into(),
            ));
        }
        if cfg.resume {
            return Err(EngineError::Config(
                "resume is native-only: the simulator restarts from iteration 0 \
                 in virtual time and has no durable snapshot to resume from"
                    .into(),
            ));
        }
        // The aux tasks take n more pair slots and 2n more task launches.
        let aux_tasks = if aux.is_some() { cfg.num_tasks } else { 0 };
        check_slots(cfg.num_tasks + aux_tasks, self.pair_capacity())?;
        check_inputs(&self.dfs, cfg, state_dir, static_dir)?;
        self.metrics.tasks_launched.add(2 * aux_tasks as u64);
        let dirs = [state_dir, static_dir, output_dir];
        Turns::run(self, job, cfg, dirs, (faults, aux), |ctx| pair_loop(ctx))
    }

    pub(crate) fn label(&self, cfg: &IterConfig) -> String {
        if cfg.accumulative {
            "iMapReduce (delta)".to_owned()
        } else if cfg.mapping == Mapping::One2One && cfg.sync_maps {
            "iMapReduce (sync.)".to_owned()
        } else {
            "iMapReduce".to_owned()
        }
    }

    /// The shuffle fetch of task `q`: its segment from every task `p`,
    /// in task order, each sent at `sent_at[p]`. Moves `clock` to the
    /// last arrival (the shuffle barrier), then charges deserialising
    /// what arrived. Returns the segments and the instant the barrier
    /// cleared.
    pub(crate) fn fetch_segments(
        &self,
        segments: &[Vec<Bytes>],
        q: usize,
        sent_at: &[VInstant],
        assignment: &[NodeId],
        clock: &mut TaskClock,
    ) -> (Vec<Bytes>, VInstant) {
        let inbound: Vec<Bytes> = segments.iter().map(|from| from[q].clone()).collect();
        let node = assignment[q];
        let mut fetched = 0u64;
        for (p, seg) in inbound.iter().enumerate() {
            fetched += seg.len() as u64;
            clock.merge(self.arrival(sent_at[p], assignment[p], node, seg.len() as u64));
        }
        let cleared = clock.now();
        clock.advance(self.cluster.cost.serde_per_byte * fetched);
        (inbound, cleared)
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
        Ok(self.map_reduce(job, cfg, dirs, faults, None)?.0)
    }

    /// Fault injection is rejected here: the mode's recovery path is
    /// supervised re-execution, exercised on the native backends.
    fn run_accumulative<J: crate::Accumulative>(
        &self,
        job: &J,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        cfg.validate(faults)?;
        refuse_tcp(cfg)?;
        if !cfg.accumulative {
            return Err(EngineError::Config(
                "run_accumulative needs cfg.with_accumulative_mode()".into(),
            ));
        }
        if !faults.is_empty() {
            return Err(EngineError::Config(
                "fault injection under accumulative mode requires the native backend".into(),
            ));
        }
        check_slots(cfg.num_tasks, self.pair_capacity())?;
        check_inputs(&self.dfs, cfg, state_dir, static_dir)?;
        let dirs = [state_dir, static_dir, output_dir];
        Ok(Turns::run(self, job, cfg, dirs, (&[], None), |ctx| delta_loop(ctx))?.0)
    }
}

/// The simulator models its own network: a run configured for the
/// native TCP fabric would silently simulate something else.
fn refuse_tcp(cfg: &IterConfig) -> Result<(), EngineError> {
    if cfg.transport == TransportKind::Tcp {
        return Err(EngineError::Config(
            "the simulation engine models its own network: with_tcp_transport \
             (and chaos, which needs it) applies to the native backend only"
                .into(),
        ));
    }
    Ok(())
}
