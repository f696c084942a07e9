//! One job attempt: deterministic input generation, engine dispatch,
//! and result capture.
//!
//! Inputs are generated from the spec's `(seed, scale)` on first use
//! and land in the job's own DFS subtree, so a retry or a resumed
//! attempt finds them already in place (generation is skipped when the
//! state directory is non-empty). The captured [`ResultRecord`] encodes
//! the final state with the workspace codec, which is what makes
//! "resumed run equals uninterrupted run" checkable bit-for-bit.

use crate::catalog::{self, JobId, NS};
use crate::spec::{AlgoSpec, EngineSel, JobSpec};
use bytes::{Bytes, BytesMut};
use imapreduce::{
    load_partitioned, ChaosConfig, Emitter, EngineError, IterConfig, IterEngine, IterativeJob,
    IterativeRunner, NetPolicy, RunCtl, StateInput, WatchdogConfig,
};
use imr_algorithms::kmeans::{load_kmeans_imr, KmeansIter};
use imr_algorithms::pagerank::{load_pagerank_imr, PageRankIter};
use imr_algorithms::sssp::{load_sssp_imr, SsspIter};
use imr_dfs::Dfs;
use imr_graph::{
    generate_graph, generate_points, generate_weighted_graph, pagerank_degree_dist,
    sssp_degree_dist, sssp_weight_dist,
};
use imr_native::{NativeRunner, WorkerSpec};
use imr_records::{encode_pairs, Codec, CodecResult};
use imr_simcluster::{ClusterSpec, MetricsHandle, TaskClock};
use imr_telemetry::TelemetryHandle;
use imr_trace::TraceHandle;
use std::path::PathBuf;
use std::sync::Arc;

/// K-means cluster count used by generated inputs.
const KMEANS_K: usize = 3;

/// Everything an attempt needs from the service, owned so attempts can
/// run on their own threads.
#[derive(Clone)]
pub struct ExecCtx {
    /// The service's shared DFS.
    pub dfs: Dfs,
    /// Cluster the simulation engine models.
    pub cluster: Arc<ClusterSpec>,
    /// Shared metrics registry.
    pub metrics: MetricsHandle,
    /// Worker binary for TCP-engine jobs.
    pub worker_bin: Option<PathBuf>,
    /// Chaos schedule applied to TCP-engine attempts (`None` = clean).
    pub chaos: Option<ChaosConfig>,
}

/// What a completed job leaves in the catalog: enough to compare two
/// runs bit-for-bit without re-decoding typed state.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultRecord {
    /// Iterations executed.
    pub iterations: u64,
    /// Per-iteration global distances.
    pub distances: Vec<f64>,
    /// Final state, key-sorted and codec-encoded.
    pub state: Bytes,
}

impl Codec for ResultRecord {
    fn encode(&self, buf: &mut BytesMut) {
        self.iterations.encode(buf);
        self.distances.encode(buf);
        self.state.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok(ResultRecord {
            iterations: u64::decode(buf)?,
            distances: Vec::<f64>::decode(buf)?,
            state: Bytes::decode(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.iterations.encoded_len() + self.distances.encoded_len() + self.state.encoded_len()
    }
}

/// Each key's state is halved every iteration; the distance is the
/// summed absolute change. The deterministic micro-job — the
/// `imr-worker` catalog resolves `"halve"` to this same type, so
/// TCP-engine jobs agree with the coordinator.
pub struct Halve;

impl IterativeJob for Halve {
    type K = u32;
    type S = f64;
    type T = ();

    fn map(&self, k: &u32, s: StateInput<'_, u32, f64>, _t: &(), out: &mut Emitter<u32, f64>) {
        out.emit(*k, s.one() / 2.0);
    }

    fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
        *acc += v;
    }

    fn distance(&self, _k: &u32, prev: &f64, cur: &f64) -> f64 {
        (prev - cur).abs()
    }
}

/// Runs one attempt of `spec` as job `id`: generates missing input,
/// builds the engine config (with durable resume when `resume` is set
/// and the spec checkpoints), dispatches on the selected engine, and
/// captures the outcome.
pub fn run_job(
    ctx: &ExecCtx,
    id: JobId,
    spec: &JobSpec,
    resume: bool,
    ctl: RunCtl,
    trace: TraceHandle,
    telemetry: TelemetryHandle,
) -> Result<ResultRecord, EngineError> {
    let state = catalog::state_dir(NS, id);
    let stat = catalog::static_dir(NS, id);
    let out = catalog::output_dir(NS, id);
    ensure_input(ctx, spec, &state, &stat)?;
    let cfg = build_cfg(spec, resume, ctx.chaos);
    match spec.algo {
        AlgoSpec::Halve => dispatch(
            ctx, id, spec, &Halve, &cfg, ctl, trace, telemetry, &state, &stat, &out,
        ),
        AlgoSpec::Sssp => dispatch(
            ctx, id, spec, &SsspIter, &cfg, ctl, trace, telemetry, &state, &stat, &out,
        ),
        AlgoSpec::PageRank => {
            let job = PageRankIter::new(spec.input.scale as u64);
            dispatch(
                ctx, id, spec, &job, &cfg, ctl, trace, telemetry, &state, &stat, &out,
            )
        }
        AlgoSpec::Kmeans => {
            let job = KmeansIter { combiner: false };
            dispatch(
                ctx, id, spec, &job, &cfg, ctl, trace, telemetry, &state, &stat, &out,
            )
        }
        AlgoSpec::PoisonPill => {
            if spec.engine != EngineSel::Threads {
                return Err(EngineError::Config(
                    "poison-pill jobs run on the thread engine only".into(),
                ));
            }
            // One real warm-up iteration into a scratch directory so
            // the job's trace ring holds a genuine trail, then a
            // deterministic failure — the dead-letter-queue test
            // vehicle. Warm-up hiccups on retries (its scratch output
            // already exists) are irrelevant to the verdict.
            let warm = IterConfig::new(spec.name.clone(), spec.tasks, 1);
            let scratch = format!("{out}-warmup");
            let _ = dispatch(
                ctx, id, spec, &Halve, &warm, ctl, trace, telemetry, &state, &stat, &scratch,
            );
            Err(EngineError::Worker("poison pill detonated".into()))
        }
    }
}

/// The extra worker argv (after the transport arguments) that makes
/// `imr-worker` resolve the same computation the coordinator runs.
pub fn worker_args(spec: &JobSpec) -> Vec<String> {
    match spec.algo {
        AlgoSpec::Halve | AlgoSpec::PoisonPill => vec!["halve".into()],
        AlgoSpec::Sssp => vec!["sssp".into()],
        AlgoSpec::PageRank => vec!["pagerank".into(), spec.input.scale.to_string()],
        AlgoSpec::Kmeans => vec!["kmeans".into(), "0".into()],
    }
}

fn build_cfg(spec: &JobSpec, resume: bool, chaos: Option<ChaosConfig>) -> IterConfig {
    let mut cfg = IterConfig::new(spec.name.clone(), spec.tasks, spec.max_iters)
        .with_checkpoint_interval(spec.checkpoint_interval)
        .with_net_policy(NetPolicy::from_env());
    if let Some(eps) = spec.distance_threshold {
        cfg = cfg.with_distance_threshold(eps);
    }
    if spec.algo == AlgoSpec::Kmeans {
        cfg = cfg.with_one2all();
    }
    if spec.engine == EngineSel::Tcp {
        cfg = cfg.with_tcp_transport();
        // Chaos needs an unscripted-stall watchdog: injected faults
        // are exactly the kind of degradation only it can recover.
        if let Some(chaos) = chaos.filter(|c| c.is_active()) {
            cfg = cfg.with_chaos(chaos);
            if cfg.watchdog.is_none() {
                cfg = cfg.with_watchdog(WatchdogConfig::default());
            }
        }
    }
    // The simulation engine restarts from scratch in virtual time;
    // durable resume is a native-backend capability.
    if resume && spec.checkpoint_interval > 0 && spec.engine != EngineSel::Sim {
        cfg = cfg.with_resume();
    }
    cfg
}

fn ensure_input(
    ctx: &ExecCtx,
    spec: &JobSpec,
    state_dir: &str,
    static_dir: &str,
) -> Result<(), EngineError> {
    if !ctx.dfs.list(state_dir).is_empty() {
        return Ok(());
    }
    let loader = NativeRunner::new(ctx.dfs.clone(), ctx.metrics.clone());
    let scale = spec.input.scale;
    let seed = spec.input.seed;
    match spec.algo {
        AlgoSpec::Halve | AlgoSpec::PoisonPill => {
            let mut clock = TaskClock::default();
            let data: Vec<(u32, f64)> = (0..scale as u32).map(|k| (k, 1024.0)).collect();
            let statics: Vec<(u32, ())> = (0..scale as u32).map(|k| (k, ())).collect();
            let job = Halve;
            load_partitioned(
                &ctx.dfs,
                state_dir,
                data,
                spec.tasks,
                |k, n| job.partition(k, n),
                &mut clock,
            )?;
            load_partitioned(
                &ctx.dfs,
                static_dir,
                statics,
                spec.tasks,
                |k, n| job.partition(k, n),
                &mut clock,
            )?;
        }
        AlgoSpec::Sssp => {
            let graph = generate_weighted_graph(
                scale,
                (scale * 4) as u64,
                sssp_degree_dist(),
                sssp_weight_dist(),
                seed,
            );
            load_sssp_imr(&loader, &graph, 0, spec.tasks, state_dir, static_dir)?;
        }
        AlgoSpec::PageRank => {
            let graph = generate_graph(scale, (scale * 4) as u64, pagerank_degree_dist(), seed);
            load_pagerank_imr(&loader, &graph, spec.tasks, state_dir, static_dir)?;
        }
        AlgoSpec::Kmeans => {
            let points = generate_points(scale, 2, KMEANS_K, seed);
            load_kmeans_imr(
                &loader, &points, KMEANS_K, spec.tasks, state_dir, static_dir,
            )?;
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn dispatch<J: IterativeJob>(
    ctx: &ExecCtx,
    id: JobId,
    spec: &JobSpec,
    job: &J,
    cfg: &IterConfig,
    ctl: RunCtl,
    trace: TraceHandle,
    telemetry: TelemetryHandle,
    state_dir: &str,
    static_dir: &str,
    output_dir: &str,
) -> Result<ResultRecord, EngineError> {
    let outcome = match spec.engine {
        EngineSel::Sim => {
            let runner = IterativeRunner::new(
                Arc::clone(&ctx.cluster),
                ctx.dfs.clone(),
                ctx.metrics.clone(),
            )
            .with_telemetry(telemetry);
            runner.run_faults(job, cfg, state_dir, static_dir, output_dir, &[])?
        }
        EngineSel::Threads | EngineSel::Tcp => {
            let mut runner = NativeRunner::new(ctx.dfs.clone(), ctx.metrics.clone())
                .with_trace(trace)
                .with_telemetry(telemetry)
                .with_ctl(ctl);
            if spec.engine == EngineSel::Tcp {
                let bin = ctx.worker_bin.clone().ok_or_else(|| {
                    EngineError::Config("TCP-engine jobs need a configured worker binary".into())
                })?;
                runner = runner.with_workers(WorkerSpec::new(bin, worker_args(spec)).with_job(id));
            }
            runner.run_faults(job, cfg, state_dir, static_dir, output_dir, &[])?
        }
    };
    Ok(ResultRecord {
        iterations: outcome.iterations as u64,
        distances: outcome.distances,
        state: encode_pairs(&outcome.final_state),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::InputSpec;

    #[test]
    fn result_records_round_trip() {
        let rec = ResultRecord {
            iterations: 6,
            distances: vec![f64::INFINITY, 3.5, 0.0],
            state: Bytes::from_static(b"\x01\x02\x03"),
        };
        let mut buf = rec.to_bytes();
        assert_eq!(ResultRecord::decode(&mut buf).unwrap(), rec);
    }

    #[test]
    fn worker_args_match_the_worker_catalog() {
        let mut spec = JobSpec::new("x", AlgoSpec::PageRank, EngineSel::Tcp, 3);
        spec.input = InputSpec { seed: 3, scale: 80 };
        assert_eq!(worker_args(&spec), vec!["pagerank", "80"]);
        spec.algo = AlgoSpec::Kmeans;
        assert_eq!(worker_args(&spec), vec!["kmeans", "0"]);
        spec.algo = AlgoSpec::Halve;
        assert_eq!(worker_args(&spec), vec!["halve"]);
    }

    #[test]
    fn resume_is_dropped_without_checkpoints_and_on_sim() {
        let spec = JobSpec::new("x", AlgoSpec::Halve, EngineSel::Threads, 1);
        assert!(build_cfg(&spec, true, None).resume);
        let no_ck = spec.clone().with_checkpoint_interval(0);
        assert!(!build_cfg(&no_ck, true, None).resume);
        let mut sim = spec;
        sim.engine = EngineSel::Sim;
        assert!(!build_cfg(&sim, true, None).resume);
    }

    #[test]
    fn chaos_reaches_tcp_configs_only_and_brings_a_watchdog() {
        let chaos = Some(ChaosConfig::seeded(7).with_drop_rate(0.05));
        let threads = JobSpec::new("x", AlgoSpec::Halve, EngineSel::Threads, 1);
        assert!(build_cfg(&threads, false, chaos).chaos.is_none());
        let mut tcp = threads;
        tcp.engine = EngineSel::Tcp;
        let cfg = build_cfg(&tcp, false, chaos);
        assert!(cfg.chaos.is_some());
        assert!(cfg.watchdog.is_some(), "chaos implies a watchdog");
        let inert = Some(ChaosConfig::seeded(7));
        assert!(build_cfg(&tcp, false, inert).chaos.is_none());
    }
}
