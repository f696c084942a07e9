//! Every call into the program under test lives in this file.
//!
//! The rest of the benchmark (workload loops, probes, statistics, spans,
//! reporting) sees only the plain types declared here, so a change to the
//! program's public surface — the planned collapse of the `run_*` entry
//! points, say — is a one-file benchmark change. `README.md` lists the
//! surface this file pins. Nothing here measures time: callers wrap these
//! functions in their own clocks and spans.

use imapreduce::{
    Emitter, FailureEvent, FaultEvent, IterConfig, IterOutcome, IterativeJob, IterativeRunner,
    StateInput,
};
use imr_algorithms::kmeans::{self, KmeansIter};
use imr_algorithms::pagerank::{self, PageRankIter};
use imr_dfs::Dfs;
use imr_jobs::{AlgoSpec, EngineSel, JobPhase, JobService, JobSpec, ServiceConfig};
use imr_mapreduce::JobRunner;
use imr_native::{NativeRunner, WorkerSpec};
use imr_net::frame::{encode_frame, frame_crc};
use imr_net::{ChannelLink, ChannelMesh, FrameReader, FrameWriter, Transport};
use imr_records::{
    decode_pairs, encode_pairs, group_sorted, merge_runs, sort_run, Codec, HashPartitioner,
    Partitioner,
};
use imr_simcluster::{ClusterSpec, Metrics, MetricsHandle, NodeId, TaskClock};
use imr_telemetry::{Telemetry, TelemetryHandle, PHASES};
use imr_trace::{async_overlap_score, TraceBuffer, TraceHandle, TraceKind};
use std::io::{BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

pub use bytes::Bytes;
pub use imr_algorithms::kmeans::KmState;
pub use imr_graph::Graph;
pub use imr_simcluster::MetricsSnapshot as Counters;

pub type Points = Vec<(u32, Vec<f64>)>;
pub type Pairs = Vec<(u32, f64)>;

const STATE_DIR: &str = "/bench/state";
const STATIC_DIR: &str = "/bench/static";
const OUT_DIR: &str = "/bench/out";

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// The PageRank workload graph: log-normal out-degrees per
/// `pagerank_degree_dist()`, exactly `edges` edges when feasible.
pub fn generate_pagerank_graph(nodes: usize, edges: u64, seed: u64) -> Graph {
    imr_graph::generate_graph(nodes, edges, imr_graph::pagerank_degree_dist(), seed)
}

/// The K-means workload points, `k` latent clusters.
pub fn generate_points(n: usize, dim: usize, k: usize, seed: u64) -> Points {
    imr_graph::generate_points(n, dim, k, seed)
}

pub fn reference_pagerank(g: &Graph, iters: usize) -> Vec<f64> {
    pagerank::reference_pagerank(g, PageRankIter::new(g.num_nodes() as u64).damping, iters)
}

pub fn reference_kmeans(points: &Points, k: usize, iters: usize) -> Vec<(u32, KmState)> {
    kmeans::reference_kmeans(points, k, iters)
}

/// The program's own encoding of a final state, for digests and sizes.
pub fn encode_state<S: Codec>(state: &[(u32, S)]) -> Bytes {
    encode_pairs(state)
}

// ---------------------------------------------------------------------
// Native engine runs
// ---------------------------------------------------------------------

/// The trace ring and telemetry registry of a traced pass. End-to-end
/// reps never attach them.
pub struct Observers {
    trace: TraceHandle,
    telemetry: TelemetryHandle,
}

/// One event the engine published into its trace ring, stamped in
/// nanoseconds since the run began.
pub struct EngineEvent {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub pair: u32,
    pub iteration: u32,
}

impl Observers {
    pub fn new() -> Observers {
        Observers {
            trace: Arc::new(TraceBuffer::with_capacity(1 << 16)),
            telemetry: Arc::new(Telemetry::with_capacity(1 << 14)),
        }
    }

    /// `(sum_ns, count)` per telemetry phase, in the order map, reduce,
    /// handoff, barrier_wait, checkpoint_write: exact means, unlike the
    /// log2-bucket quantiles.
    pub fn phase_totals(&self) -> [(u64, u64); 5] {
        phase_totals(&self.telemetry)
    }

    pub fn dropped_samples(&self) -> u64 {
        self.telemetry.dropped_samples()
    }

    pub fn async_overlap(&self) -> f64 {
        async_overlap_score(&self.trace.snapshot())
    }

    /// Events of pairs only (coordinator-wide events carry no pair).
    pub fn events(&self) -> Vec<EngineEvent> {
        engine_events(&self.trace.snapshot())
    }
}

fn phase_totals(tel: &Telemetry) -> [(u64, u64); 5] {
    let snaps = tel.hist_snapshots();
    std::array::from_fn(|i| {
        let s = &snaps[PHASES[i].index()];
        (s.sum(), s.count())
    })
}

fn engine_events(events: &[imr_trace::TraceEvent]) -> Vec<EngineEvent> {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceKind::IterStart
                    | TraceKind::IterEnd
                    | TraceKind::MapPhase
                    | TraceKind::ReducePhase
                    | TraceKind::StateHandoff { .. }
                    | TraceKind::Broadcast { .. }
                    | TraceKind::Checkpoint { .. }
                    | TraceKind::Rollback { .. }
                    | TraceKind::DeltaRound { .. }
            )
        })
        .map(|e| EngineEvent {
            name: e.kind.name(),
            start_ns: e.start_nanos,
            end_ns: e.end_nanos,
            pair: if e.task == imr_trace::COORD {
                0
            } else {
                e.task + 1
            },
            iteration: e.iteration,
        })
        .collect()
}

/// A fresh in-memory substrate every runner here is built on: `nodes`
/// local nodes, one replica, one block per file.
fn substrate(nodes: usize) -> (Arc<ClusterSpec>, Dfs, MetricsHandle) {
    let spec = Arc::new(ClusterSpec::local(nodes));
    let metrics: MetricsHandle = Arc::new(Metrics::default());
    let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 1, 1 << 26);
    (spec, dfs, metrics)
}

/// A native runner over a fresh in-memory DFS on `nodes` nodes (one per
/// pair, so a scripted failure can name the node hosting one pair).
pub fn fresh_runner(nodes: usize, observers: Option<&Observers>) -> NativeRunner {
    let (_, dfs, metrics) = substrate(nodes);
    let runner = NativeRunner::new(dfs, metrics);
    match observers {
        Some(o) => runner
            .with_trace(Arc::clone(&o.trace))
            .with_telemetry(Arc::clone(&o.telemetry)),
        None => runner,
    }
}

pub fn load_pagerank(runner: &NativeRunner, g: &Graph, pairs: usize) -> Result<(), String> {
    pagerank::load_pagerank_imr(runner, g, pairs, STATE_DIR, STATIC_DIR).map_err(|e| e.to_string())
}

pub fn load_kmeans(
    runner: &NativeRunner,
    points: &Points,
    k: usize,
    pairs: usize,
) -> Result<(), String> {
    kmeans::load_kmeans_imr(runner, points, k, pairs, STATE_DIR, STATIC_DIR)
        .map_err(|e| e.to_string())
}

/// Bytes of the loaded state and static parts in the runner's DFS.
pub fn loaded_bytes(runner: &NativeRunner) -> u64 {
    let dfs = runner.dfs();
    let parts = [STATE_DIR, STATIC_DIR].map(|dir| dfs.list(&format!("{dir}/")));
    parts
        .iter()
        .flatten()
        .filter_map(|path| dfs.len(path).ok())
        .sum()
}

/// What one engine run left behind.
pub struct EngineRun<S> {
    pub final_state: Vec<(u32, S)>,
    /// `IterOutcome.report.iteration_done`, nanoseconds since the call.
    pub iter_done_ns: Vec<u64>,
    pub iterations: usize,
    pub recoveries: u64,
    /// The runner's counters after the run (fresh runner per rep, so
    /// they describe load + this run).
    pub counters: Counters,
}

fn engine_run<S>(runner: &NativeRunner, out: IterOutcome<u32, S>) -> EngineRun<S> {
    EngineRun {
        iter_done_ns: out
            .report
            .iteration_done
            .iter()
            .map(|t| t.as_nanos())
            .collect(),
        final_state: out.final_state,
        iterations: out.iterations,
        recoveries: out.recoveries,
        counters: runner.metrics().snapshot(),
    }
}

/// Which fabric the pairs shuffle over.
#[derive(Clone, Copy)]
pub enum Fabric<'a> {
    /// Worker threads over the in-process channel mesh.
    Channels,
    /// `imr-worker` processes over localhost TCP through the coordinator.
    Tcp { worker_bin: &'a Path },
}

/// The map/reduce PageRank job of the four PageRank workloads.
#[derive(Clone, Copy)]
pub struct PagerankJob<'a> {
    pub nodes: usize,
    pub pairs: usize,
    pub iters: usize,
    pub fabric: Fabric<'a>,
    /// `None` keeps the program's default interval (`IterConfig::new`).
    pub checkpoint_every: Option<usize>,
    /// Kill the node hosting the last pair after this iteration.
    pub kill_after: Option<usize>,
}

pub fn run_pagerank(
    runner: &NativeRunner,
    job: &PagerankJob<'_>,
) -> Result<EngineRun<f64>, String> {
    let pr = PageRankIter::new(job.nodes as u64);
    let mut cfg = IterConfig::new("bench-pagerank", job.pairs, job.iters);
    if let Some(every) = job.checkpoint_every {
        cfg = cfg.with_checkpoint_interval(every);
    }
    let failures: Vec<FailureEvent> = job
        .kill_after
        .map(|at_iteration| FailureEvent {
            node: NodeId(job.pairs as u32 - 1),
            at_iteration,
        })
        .into_iter()
        .collect();
    let out = match job.fabric {
        Fabric::Channels => runner.run(&pr, &cfg, STATE_DIR, STATIC_DIR, OUT_DIR, &failures),
        Fabric::Tcp { worker_bin } => {
            let spec = WorkerSpec::new(
                worker_bin,
                vec!["pagerank".to_owned(), job.nodes.to_string()],
            );
            let faults: Vec<FaultEvent> = failures.iter().map(|&f| f.into()).collect();
            runner.run_remote(
                &pr,
                &spec,
                &cfg.with_tcp_transport(),
                STATE_DIR,
                STATIC_DIR,
                OUT_DIR,
                &faults,
            )
        }
    };
    out.map(|o| engine_run(runner, o))
        .map_err(|e| e.to_string())
}

/// Barrier-free delta-accumulative PageRank to a pending-delta threshold.
pub fn run_pagerank_delta(
    runner: &NativeRunner,
    nodes: usize,
    pairs: usize,
    eps: f64,
    cap: usize,
) -> Result<EngineRun<f64>, String> {
    let cfg = IterConfig::new("bench-pagerank-delta", pairs, cap)
        .with_distance_threshold(eps)
        .with_accumulative_mode();
    let pr = PageRankIter::new(nodes as u64);
    runner
        .run_accumulative(&pr, &cfg, STATE_DIR, STATIC_DIR, OUT_DIR, &[])
        .map(|o| engine_run(runner, o))
        .map_err(|e| e.to_string())
}

/// K-means, combiner on, one2all broadcast (synchronous maps).
pub fn run_kmeans(
    runner: &NativeRunner,
    pairs: usize,
    iters: usize,
) -> Result<EngineRun<KmState>, String> {
    let cfg = IterConfig::new("bench-kmeans", pairs, iters).with_one2all();
    runner
        .run(
            &KmeansIter { combiner: true },
            &cfg,
            STATE_DIR,
            STATIC_DIR,
            OUT_DIR,
            &[],
        )
        .map(|o| engine_run(runner, o))
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Job service
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub enum JobAlgo {
    Sssp,
    PageRank,
    Kmeans,
    Halve,
}

/// One job of a service batch (thread engine; input generated by the
/// service from `seed` and `scale`).
#[derive(Clone, Copy, Debug)]
pub struct JobDesc {
    pub algo: JobAlgo,
    pub scale: usize,
    pub tasks: usize,
    pub iters: usize,
    pub seed: u64,
}

pub struct Service {
    svc: JobService,
    slots: usize,
}

impl Service {
    pub fn new(slots: usize) -> Service {
        let cfg = ServiceConfig::default().with_slots(slots).with_nodes(slots);
        Service {
            svc: JobService::new(cfg),
            slots,
        }
    }

    pub fn submit(&self, job: &JobDesc) -> Result<u64, String> {
        let algo = match job.algo {
            JobAlgo::Sssp => AlgoSpec::Sssp,
            JobAlgo::PageRank => AlgoSpec::PageRank,
            JobAlgo::Kmeans => AlgoSpec::Kmeans,
            JobAlgo::Halve => AlgoSpec::Halve,
        };
        let spec = JobSpec::new(
            format!("bench-{}", job.seed),
            algo,
            EngineSel::Threads,
            job.seed,
        )
        .with_scale(job.scale)
        .with_tasks(job.tasks)
        .with_max_iters(job.iters);
        self.svc.submit(spec).map_err(|e| e.to_string())
    }

    pub fn drain(&self) -> Result<(), String> {
        self.svc.run_until_idle().map_err(|e| e.to_string())
    }

    /// The journaled result of one job: `(iterations, encoded state)`.
    pub fn result(&self, id: u64) -> Result<Option<(u64, Bytes)>, String> {
        match self.svc.result(id) {
            Ok(r) => Ok(r.map(|r| (r.iterations, r.state))),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Ids of jobs that are not `Completed`.
    pub fn unfinished(&self) -> Vec<u64> {
        let status = self.svc.status();
        status
            .iter()
            .filter(|s| s.phase != JobPhase::Completed)
            .map(|s| s.id)
            .collect()
    }

    /// Rebuilds a service from this one's journal; returns the number of
    /// jobs the recovered catalog holds.
    pub fn recover(&self) -> Result<usize, String> {
        let cfg = ServiceConfig::default()
            .with_slots(self.slots)
            .with_nodes(self.slots);
        JobService::recover(
            self.svc.dfs().clone(),
            Arc::clone(self.svc.cluster()),
            Arc::clone(self.svc.metrics()),
            cfg,
        )
        .map(|s| s.status().len())
        .map_err(|e| e.to_string())
    }

    /// Phase totals over every job's telemetry registry (the service
    /// attaches one per job by itself).
    pub fn phase_totals(&self) -> [(u64, u64); 5] {
        let mut total = [(0u64, 0u64); 5];
        for (_, tel) in self.svc.job_telemetry() {
            for (t, p) in total.iter_mut().zip(phase_totals(&tel)) {
                *t = (t.0 + p.0, t.1 + p.1);
            }
        }
        total
    }

    pub fn dropped_samples(&self) -> u64 {
        self.svc
            .job_telemetry()
            .iter()
            .map(|(_, t)| t.dropped_samples())
            .sum()
    }

    /// Engine events per job id, each stamped since that job's run began.
    pub fn events(&self) -> Vec<(u64, Vec<EngineEvent>)> {
        let traces = self.svc.job_traces();
        traces
            .iter()
            .map(|(id, evs)| (*id, engine_events(evs)))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Micro-probe primitives (one program call each; callers time them)
// ---------------------------------------------------------------------

/// The real first-iteration map output of mapper `q` of `pairs`: the
/// PageRank map over the nodes that mapper owns, in emission order.
pub fn pagerank_map_output(g: &Graph, q: usize, pairs: usize) -> Pairs {
    let job = PageRankIter::new(g.num_nodes() as u64);
    let init = 1.0 / g.num_nodes() as f64;
    let mut out = Emitter::new();
    for u in (0..g.num_nodes() as u32).filter(|u| job.partition(u, pairs) == q) {
        job.map(
            &u,
            StateInput::One(&init),
            &g.neighbors(u).to_vec(),
            &mut out,
        );
    }
    out.into_pairs()
}

/// The PageRank user map over prepared `(node, rank, adjacency)` rows;
/// returns the number of records emitted.
pub fn pagerank_map(nodes: u64, rows: &[(u32, f64, Vec<u32>)]) -> usize {
    let job = PageRankIter::new(nodes);
    let mut out = Emitter::new();
    for (u, rank, adj) in rows {
        job.map(u, StateInput::One(rank), adj, &mut out);
    }
    out.len()
}

/// The PageRank user reduce over grouped values; returns a checksum.
pub fn pagerank_reduce(nodes: u64, groups: Vec<(u32, Vec<f64>)>) -> f64 {
    let job = PageRankIter::new(nodes);
    groups
        .into_iter()
        .map(|(k, vals)| job.reduce(&k, vals))
        .sum()
}

/// The K-means user map (nearest centroid) over `points`.
pub fn kmeans_map(points: &[(u32, Vec<f64>)], centroids: &[(u32, KmState)]) -> usize {
    let job = KmeansIter { combiner: true };
    let mut out = Emitter::new();
    for (id, p) in points {
        job.map(id, StateInput::All(centroids), p, &mut out);
    }
    out.len()
}

pub fn initial_centroids(points: &Points, k: usize) -> Vec<(u32, KmState)> {
    kmeans::initial_centroids(points, k)
}

pub fn encode(pairs: &[(u32, f64)]) -> Bytes {
    encode_pairs(pairs)
}

pub fn decode(seg: Bytes) -> Pairs {
    decode_pairs(seg).expect("segment encoded by this process decodes")
}

pub fn sort(run: &mut [(u32, f64)]) {
    sort_run(run)
}

pub fn merge(runs: Vec<Pairs>) -> Pairs {
    merge_runs(runs)
}

pub fn group(sorted: Pairs) -> Vec<(u32, Vec<f64>)> {
    group_sorted(sorted)
}

pub fn hash_partition(key: u32, n: usize) -> usize {
    HashPartitioner.partition(&key, n)
}

pub fn crc(seq: u64, payload: &[u8]) -> u32 {
    frame_crc(seq, payload)
}

pub fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    encode_frame(seq, payload).expect("payload below MAX_FRAME")
}

/// One framed connection over 127.0.0.1 with an echo thread at the far
/// end, wrapped as the engine wraps its sockets (`TCP_NODELAY`, buffered
/// writer, unbuffered reader). Frames whose first byte is 1 are echoed
/// back; frames whose first byte is 0 are swallowed.
pub struct Loopback {
    writer: FrameWriter<BufWriter<TcpStream>>,
    reader: FrameReader<TcpStream>,
    echo: Option<JoinHandle<()>>,
}

impl Loopback {
    pub fn open() -> Result<Loopback, String> {
        let err = |e: std::io::Error| e.to_string();
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let addr = listener.local_addr().map_err(err)?;
        let echo = std::thread::spawn(move || {
            let Ok((sock, _)) = listener.accept() else {
                return;
            };
            let _ = sock.set_nodelay(true);
            let Ok(clone) = sock.try_clone() else { return };
            let Ok(mut writer) = FrameWriter::new(BufWriter::new(clone)) else {
                return;
            };
            let mut reader = FrameReader::new(sock);
            if writer.get_mut().flush().is_err() || reader.expect_preamble().is_err() {
                return;
            }
            while let Ok(payload) = reader.read() {
                if payload.first() == Some(&1)
                    && (writer.write(&payload).is_err() || writer.get_mut().flush().is_err())
                {
                    return;
                }
            }
        });
        let sock = TcpStream::connect(addr).map_err(err)?;
        sock.set_nodelay(true).map_err(err)?;
        let mut writer = FrameWriter::new(BufWriter::new(sock.try_clone().map_err(err)?))
            .map_err(|e| e.to_string())?;
        writer.get_mut().flush().map_err(err)?;
        let mut reader = FrameReader::new(sock);
        reader.expect_preamble().map_err(|e| e.to_string())?;
        Ok(Loopback {
            writer,
            reader,
            echo: Some(echo),
        })
    }

    /// One frame out, the same frame back (`payload[0]` must be 1).
    pub fn ping(&mut self, payload: &[u8]) -> Result<usize, String> {
        self.writer.write(payload).map_err(|e| e.to_string())?;
        self.writer.get_mut().flush().map_err(|e| e.to_string())?;
        self.reader
            .read()
            .map(|b| b.len())
            .map_err(|e| e.to_string())
    }

    /// `count` one-way frames (`payload[0]` must be 0), then one ping so
    /// the call returns only when the far end has read them all.
    pub fn stream(&mut self, payload: &[u8], count: usize) -> Result<(), String> {
        for _ in 0..count {
            self.writer.write(payload).map_err(|e| e.to_string())?;
        }
        self.ping(&[1u8; 64]).map(|_| ())
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        let _ = self.reader.get_ref().shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Two endpoints of the in-process channel mesh, buffer depth as the
/// engine's hand-off buffer.
pub fn channel_pair() -> (ChannelLink, ChannelLink) {
    let mut links = ChannelMesh::links(2, imr_native::HANDOFF_BUFFER);
    let b = links.pop().expect("two links");
    let a = links.pop().expect("two links");
    (a, b)
}

pub fn channel_send(link: &mut ChannelLink, dest: usize, seg: Bytes) -> bool {
    link.send(dest, seg).is_ok()
}

pub fn channel_recv(link: &mut ChannelLink, src: usize) -> Option<Bytes> {
    link.recv(src).ok()
}

/// A bare in-memory DFS, shaped like the runners' (one replica).
pub struct ProbeDfs {
    dfs: Dfs,
    clock: TaskClock,
}

impl ProbeDfs {
    pub fn new() -> ProbeDfs {
        ProbeDfs {
            dfs: substrate(2).1,
            clock: TaskClock::default(),
        }
    }

    pub fn put_atomic(&mut self, path: &str, data: Bytes) {
        self.dfs
            .put_atomic(path, data, NodeId(0), &mut self.clock)
            .expect("in-memory put_atomic");
    }

    pub fn read(&mut self, path: &str) -> Bytes {
        self.dfs
            .read(path, NodeId(0), &mut self.clock)
            .expect("file written by this probe")
    }
}

/// The virtual-time simulation engine on the same job: only its *host*
/// time matters here (the guard that shared-kernel refactors do not slow
/// the sim). Returns the iterations it executed.
pub fn sim_pagerank(g: &Graph, tasks: usize, iters: usize) -> Result<usize, String> {
    let (spec, dfs, metrics) = substrate(tasks);
    let runner = IterativeRunner::new(spec, dfs, metrics);
    pagerank::run_pagerank_imr(&runner, g, &IterConfig::new("bench-sim", tasks, iters))
        .map(|o| o.iterations)
        .map_err(|e| e.to_string())
}

/// The Hadoop-style baseline chain on the same job (host time only).
pub fn baseline_pagerank(g: &Graph, tasks: usize, iters: usize) -> Result<usize, String> {
    let (spec, dfs, metrics) = substrate(tasks);
    let runner = JobRunner::new(spec, dfs, metrics);
    pagerank::run_pagerank_mr(&runner, g, tasks, iters, None)
        .map(|o| o.iterations)
        .map_err(|e| e.to_string())
}
