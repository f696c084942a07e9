//! The job service: one shared fleet of task slots, many tenants.
//!
//! [`JobService`] owns the catalog, the admission queue and the slot
//! ledger. [`JobService::run_until_idle`] is the fleet scheduler: it
//! admits queued jobs head-of-line whenever their slot footprint fits,
//! runs each attempt on its own thread (each job gets its own DFS
//! subtree, [`RunCtl`] and trace ring), and reacts to completions —
//! journaling results, requeueing failed attempts with the durable
//! resume flag, and dead-lettering jobs that exhaust their retry
//! budget, flight-recorder artifact attached.
//!
//! Every lifecycle transition is journaled to the DFS *before* the
//! service acts on it, so [`JobService::recover`] can rebuild the whole
//! machine from storage: `Completed`/`DeadLettered` jobs return as
//! catalog history, `Queued` jobs re-enter the queue, and `Running`
//! jobs — in flight when the coordinator died — are requeued with
//! resume set, restarting from their newest complete checkpoint
//! snapshot instead of iteration zero.

use crate::catalog::{self, DlqEntry, JobId, JobMeta, JobPhase, NS};
use crate::exec::{self, ExecCtx, ResultRecord};
use crate::queue::AdmissionQueue;
use crate::spec::{AlgoSpec, EngineSel, JobSpec};
use bytes::Bytes;
use imapreduce::{ChaosConfig, EngineError, RunCtl};
use imr_dfs::Dfs;
use imr_records::Codec;
use imr_simcluster::{ClusterSpec, Metrics, MetricsHandle, NodeId, TaskClock};
use imr_telemetry::{
    Exposition, Gauge, JobStats, Provider, Telemetry, TelemetryHandle, TelemetryServer,
};
use imr_trace::{flight_lines, TraceBuffer, TraceEvent, TraceHandle};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Why the fleet scheduler stopped. Scheduler invariants that input,
/// storage or a dying thread could break are typed here instead of
/// panicking the service that every tenant shares.
#[derive(Debug)]
pub enum ServiceError {
    /// A storage, codec or engine failure (journaling a transition, or
    /// one job attempt's own failure).
    Engine(EngineError),
    /// The admission queue named a job the catalog does not hold.
    QueuedJobMissing(JobId),
    /// A job reported completion but the catalog does not hold it.
    CompletedJobMissing(JobId),
    /// A job's thread exited without reporting an outcome.
    NoReport(JobId),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Engine(e) => e.fmt(f),
            ServiceError::QueuedJobMissing(id) => {
                write!(f, "queued job {id} is not in the catalog")
            }
            ServiceError::CompletedJobMissing(id) => {
                write!(f, "completed job {id} is not in the catalog")
            }
            ServiceError::NoReport(id) => {
                write!(f, "job {id}'s thread exited without reporting an outcome")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}

/// What a job thread sends the scheduler when its attempt ends.
type Report = (JobId, Result<ResultRecord, EngineError>);

/// How often the scheduler, while waiting for a report, checks for a
/// job thread that died without sending one.
const REPORT_POLL: Duration = Duration::from_millis(100);

/// Blocks for the next attempt outcome and retires that job's thread.
/// A thread that finished with nothing in the channel can only have
/// died outside its `catch_unwind`; its job gets
/// [`ServiceError::NoReport`] as the attempt's failure, so it retries
/// or dead-letters like any other instead of stalling the fleet.
fn next_report(
    rx: &mpsc::Receiver<Report>,
    threads: &mut Vec<(JobId, JoinHandle<()>)>,
) -> (JobId, Result<ResultRecord, ServiceError>) {
    let (id, result) = loop {
        // Looked up before the wait: a send happens before its thread
        // finishes, so if the wait then times out on an empty channel,
        // this thread sent nothing.
        let dead = threads
            .iter()
            .find(|(_, t)| t.is_finished())
            .map(|(id, _)| *id);
        match (rx.recv_timeout(REPORT_POLL), dead) {
            (Ok((id, result)), _) => break (id, result.map_err(ServiceError::Engine)),
            (Err(_), Some(id)) => break (id, Err(ServiceError::NoReport(id))),
            (Err(_), None) => {}
        }
    };
    if let Some(pos) = threads.iter().position(|(job, _)| *job == id) {
        let _ = threads.swap_remove(pos).1.join();
    }
    (id, result)
}

/// Service-level configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Task slots on the shared fleet; a job occupies `spec.tasks` of
    /// them while running.
    pub slots: usize,
    /// Nodes in the cluster the DFS (and simulation engine) models.
    pub nodes: usize,
    /// Worker binary for TCP-engine jobs.
    pub worker_bin: Option<PathBuf>,
    /// Capacity of each job's trace ring.
    pub trace_capacity: usize,
    /// Trailing trace events captured into a dead-lettered job's
    /// flight-recorder artifact.
    pub flight_tail: usize,
    /// Deterministic network-chaos schedule applied to every
    /// TCP-engine job the service runs (`None` = clean wire).
    pub chaos: Option<ChaosConfig>,
    /// Address the telemetry exposition endpoint binds to (`None` =
    /// no endpoint). Defaults from `IMR_TELEMETRY_ADDR`.
    pub telemetry_addr: Option<String>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            slots: 4,
            nodes: 4,
            worker_bin: None,
            trace_capacity: 4096,
            flight_tail: 96,
            chaos: None,
            telemetry_addr: std::env::var("IMR_TELEMETRY_ADDR")
                .ok()
                .filter(|a| !a.is_empty()),
        }
    }
}

impl ServiceConfig {
    /// Sets the fleet's task-slot count.
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Sets the modeled cluster size.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Sets the worker binary TCP-engine jobs are served by.
    pub fn with_worker_bin(mut self, bin: impl Into<PathBuf>) -> Self {
        self.worker_bin = Some(bin.into());
        self
    }

    /// Applies a deterministic network-chaos schedule to every
    /// TCP-engine job the service runs.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Binds the telemetry exposition endpoint to `addr`
    /// (e.g. `127.0.0.1:9464`; port 0 picks a free port).
    pub fn with_telemetry_addr(mut self, addr: impl Into<String>) -> Self {
        self.telemetry_addr = Some(addr.into());
        self
    }
}

/// One row of [`JobService::status`].
#[derive(Clone, Debug)]
pub struct JobStatus {
    /// Catalog id.
    pub id: JobId,
    /// Spec name.
    pub name: String,
    /// Algorithm name.
    pub algo: &'static str,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Attempts consumed so far.
    pub attempts: u32,
    /// Admission priority.
    pub priority: u8,
    /// Last failure message (empty while healthy).
    pub reason: String,
}

struct JobEntry {
    spec: JobSpec,
    meta: JobMeta,
    trace: TraceHandle,
    telemetry: TelemetryHandle,
}

#[derive(Default)]
struct SvcState {
    catalog: BTreeMap<JobId, JobEntry>,
    queue: AdmissionQueue,
    running: HashMap<JobId, RunCtl>,
    slots_used: usize,
    next_id: JobId,
    completion_order: Vec<JobId>,
}

/// What the scheduler decided about one completed attempt, computed
/// under the state lock and journaled after releasing it.
enum Outcome {
    Completed(JobMeta, ResultRecord),
    Retry(JobMeta),
    Dead(JobMeta, Vec<TraceEvent>),
    Interrupted,
}

/// The multi-tenant job service. See the module docs.
pub struct JobService {
    dfs: Dfs,
    cluster: Arc<ClusterSpec>,
    metrics: MetricsHandle,
    cfg: ServiceConfig,
    state: Mutex<SvcState>,
    killed: AtomicBool,
    /// Per-job telemetry registries mirrored outside the state lock so
    /// the exposition server's provider can snapshot them without
    /// borrowing the service.
    tel_index: Arc<Mutex<Vec<(JobId, TelemetryHandle)>>>,
    /// The embedded exposition endpoint; stopped on drop. `None` when
    /// no address is configured or the bind failed (non-fatal).
    tel_server: Option<TelemetryServer>,
}

impl JobService {
    /// A fresh service over a new in-memory cluster + DFS.
    pub fn new(cfg: ServiceConfig) -> Self {
        let cluster = Arc::new(ClusterSpec::local(cfg.nodes));
        let metrics: MetricsHandle = Arc::new(Metrics::default());
        let dfs = Dfs::new(Arc::clone(&cluster), Arc::clone(&metrics), 2);
        Self::attach(dfs, cluster, metrics, cfg)
    }

    /// A service over existing infrastructure (empty catalog; use
    /// [`JobService::recover`] to rebuild one from a journaled
    /// namespace).
    pub fn attach(
        dfs: Dfs,
        cluster: Arc<ClusterSpec>,
        metrics: MetricsHandle,
        cfg: ServiceConfig,
    ) -> Self {
        let tel_index: Arc<Mutex<Vec<(JobId, TelemetryHandle)>>> = Arc::new(Mutex::new(Vec::new()));
        let tel_server = cfg.telemetry_addr.as_deref().and_then(|addr| {
            let index = Arc::clone(&tel_index);
            let provider: Provider = Arc::new(move || Exposition {
                jobs: index
                    .lock()
                    .iter()
                    .map(|(id, tel)| JobStats::from_telemetry(*id, tel))
                    .collect(),
            });
            TelemetryServer::start(addr, provider).ok()
        });
        JobService {
            dfs,
            cluster,
            metrics,
            cfg,
            state: Mutex::new(SvcState {
                next_id: 1,
                ..SvcState::default()
            }),
            killed: AtomicBool::new(false),
            tel_index,
            tel_server,
        }
    }

    /// Rebuilds a service from the journal under `catalog::NS`: finished
    /// jobs come back as history, queued jobs re-enter the queue, and
    /// jobs that were running when the previous coordinator died are
    /// requeued with durable resume set.
    pub fn recover(
        dfs: Dfs,
        cluster: Arc<ClusterSpec>,
        metrics: MetricsHandle,
        cfg: ServiceConfig,
    ) -> Result<Self, EngineError> {
        let svc = Self::attach(dfs, cluster, metrics, cfg);
        let listing = svc.dfs.list(&format!("{NS}/jobs/"));
        let ids = catalog::scan_job_ids(&listing, NS);
        let mut requeued = Vec::new();
        {
            let mut st = svc.state.lock();
            for id in ids {
                let spec = svc.read_decoded::<JobSpec>(&catalog::spec_path(NS, id))?;
                let mut meta = svc.read_decoded::<JobMeta>(&catalog::meta_path(NS, id))?;
                if meta.id != id {
                    return Err(EngineError::Config(format!(
                        "catalog corrupt: meta for job {id} names job {}",
                        meta.id
                    )));
                }
                if matches!(meta.phase, JobPhase::Queued | JobPhase::Running) {
                    meta.phase = JobPhase::Queued;
                    st.queue.push(id, spec.priority, spec.tasks, true);
                    requeued.push(meta.clone());
                }
                st.next_id = st.next_id.max(id + 1);
                let telemetry: TelemetryHandle = Arc::new(Telemetry::default());
                svc.tel_index.lock().push((id, Arc::clone(&telemetry)));
                st.catalog.insert(
                    id,
                    JobEntry {
                        spec,
                        meta,
                        trace: Arc::new(TraceBuffer::with_capacity(svc.cfg.trace_capacity)),
                        telemetry,
                    },
                );
            }
        }
        for meta in requeued {
            svc.journal_meta(&meta)?;
        }
        Ok(svc)
    }

    /// The service's DFS (shared with every engine it runs).
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The modeled cluster.
    pub fn cluster(&self) -> &Arc<ClusterSpec> {
        &self.cluster
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Validates and enqueues a job: journals its spec and `Queued`
    /// meta, then admits it to the queue. Returns the catalog id.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, EngineError> {
        // What every attempt would refuse is refused at the door: the
        // config's rules, then a scale the input generator cannot build.
        exec::build_cfg(&spec, false, None).validate(&[])?;
        exec::check_scale(&spec)?;
        if spec.tasks > self.cfg.slots {
            return Err(EngineError::Config(format!(
                "job wants {} task slots but the fleet has {}",
                spec.tasks, self.cfg.slots
            )));
        }
        if spec.algo == AlgoSpec::PoisonPill && spec.engine != EngineSel::Threads {
            return Err(EngineError::Config(
                "poison-pill jobs run on the thread engine only".into(),
            ));
        }
        if spec.engine == EngineSel::Tcp && self.cfg.worker_bin.is_none() {
            return Err(EngineError::Config(
                "TCP-engine jobs need a configured worker binary".into(),
            ));
        }
        let (id, meta) = {
            let mut st = self.state.lock();
            let id = st.next_id;
            st.next_id += 1;
            let meta = JobMeta::queued(id);
            let telemetry: TelemetryHandle = Arc::new(Telemetry::default());
            self.tel_index.lock().push((id, Arc::clone(&telemetry)));
            st.catalog.insert(
                id,
                JobEntry {
                    spec: spec.clone(),
                    meta: meta.clone(),
                    trace: Arc::new(TraceBuffer::with_capacity(self.cfg.trace_capacity)),
                    telemetry,
                },
            );
            st.queue.push(id, spec.priority, spec.tasks, false);
            (id, meta)
        };
        let mut clock = TaskClock::default();
        self.dfs.put_atomic(
            &catalog::spec_path(NS, id),
            spec.to_bytes(),
            NodeId(0),
            &mut clock,
        )?;
        self.journal_meta(&meta)?;
        Ok(id)
    }

    /// The fleet scheduler. Admits and runs queued jobs until the
    /// queue drains and every running job has reported — or, after
    /// [`JobService::kill`], until the in-flight jobs have aborted.
    /// Call again after submitting more jobs; the service is reusable.
    pub fn run_until_idle(&self) -> Result<(), ServiceError> {
        let (tx, rx) = mpsc::channel();
        let mut threads = Vec::new();
        loop {
            let launches = self.admit()?;
            for (adm_id, resume, meta, spec, trace, telemetry, ctl) in launches {
                self.journal_meta(&meta)?;
                let ctx = self.exec_ctx();
                let tx = tx.clone();
                let thread = thread::spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        exec::run_job(&ctx, adm_id, &spec, resume, ctl, trace, telemetry)
                    }))
                    .unwrap_or_else(|_| Err(EngineError::Worker("job attempt panicked".into())));
                    let _ = tx.send((adm_id, result));
                });
                threads.push((adm_id, thread));
            }
            {
                let st = self.state.lock();
                let drained = st.queue.is_empty() || self.killed.load(Ordering::Acquire);
                if st.running.is_empty() && drained {
                    break;
                }
            }
            let (id, result) = next_report(&rx, &mut threads);
            self.on_complete(id, result)?;
        }
        Ok(())
    }

    /// Coordinator shutdown: stop admitting and abort every in-flight
    /// run at its next cancellation point. Journaled state is left
    /// exactly as a crash would: interrupted jobs stay `Running`, which
    /// is what tells [`JobService::recover`] to resume them.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::Release);
        let st = self.state.lock();
        for ctl in st.running.values() {
            ctl.abort();
        }
    }

    /// Catalog snapshot, id-ordered.
    pub fn status(&self) -> Vec<JobStatus> {
        let st = self.state.lock();
        st.catalog
            .iter()
            .map(|(&id, e)| JobStatus {
                id,
                name: e.spec.name.clone(),
                algo: e.spec.algo.name(),
                phase: e.meta.phase,
                attempts: e.meta.attempts,
                priority: e.spec.priority,
                reason: e.meta.reason.clone(),
            })
            .collect()
    }

    /// A completed job's journaled result, if present.
    pub fn result(&self, id: JobId) -> Result<Option<ResultRecord>, EngineError> {
        let path = catalog::result_path(NS, id);
        if !self.dfs.exists(&path) {
            return Ok(None);
        }
        Ok(Some(self.read_decoded::<ResultRecord>(&path)?))
    }

    /// Dead-letter entries journaled under the namespace, id-ordered.
    /// Reads the DFS, so it sees dead letters from previous
    /// incarnations of the coordinator too.
    pub fn dlq(&self) -> Result<Vec<DlqEntry>, EngineError> {
        let prefix = format!("{NS}/dlq/");
        let mut entries = Vec::new();
        for path in self.dfs.list(&prefix) {
            if path.ends_with("/entry") {
                entries.push(self.read_decoded::<DlqEntry>(&path)?);
            }
        }
        entries.sort_by_key(|e| e.id);
        Ok(entries)
    }

    /// A dead-lettered job's flight-recorder artifact (JSONL), if any.
    pub fn dlq_flight(&self, id: JobId) -> Result<Option<String>, EngineError> {
        let path = catalog::dlq_flight_path(NS, id);
        if !self.dfs.exists(&path) {
            return Ok(None);
        }
        let mut clock = TaskClock::default();
        let raw = self.dfs.read(&path, NodeId(0), &mut clock)?;
        Ok(Some(String::from_utf8_lossy(&raw).into_owned()))
    }

    /// Ids of completed jobs in the order they finished (this
    /// incarnation only — recovery starts a fresh ledger).
    pub fn completion_order(&self) -> Vec<JobId> {
        self.state.lock().completion_order.clone()
    }

    /// Every job's trace stream, id-ordered.
    pub fn job_traces(&self) -> Vec<(u64, Vec<TraceEvent>)> {
        let st = self.state.lock();
        st.catalog
            .iter()
            .map(|(&id, e)| (id, e.trace.snapshot()))
            .collect()
    }

    /// Every job's telemetry registry, id-ordered.
    pub fn job_telemetry(&self) -> Vec<(u64, TelemetryHandle)> {
        let st = self.state.lock();
        st.catalog
            .iter()
            .map(|(&id, e)| (id, Arc::clone(&e.telemetry)))
            .collect()
    }

    /// Where the embedded telemetry endpoint actually bound, if it is
    /// serving (resolves port 0 to the picked port).
    pub fn telemetry_addr(&self) -> Option<std::net::SocketAddr> {
        self.tel_server.as_ref().map(|s| s.addr())
    }

    fn exec_ctx(&self) -> ExecCtx {
        ExecCtx {
            dfs: self.dfs.clone(),
            cluster: Arc::clone(&self.cluster),
            metrics: Arc::clone(&self.metrics),
            worker_bin: self.cfg.worker_bin.clone(),
            chaos: self.cfg.chaos,
        }
    }

    /// Pops every admissible queued job, marks it running and reserves
    /// its slots — all under one lock hold, so admission is atomic with
    /// respect to [`JobService::kill`].
    #[allow(clippy::type_complexity)]
    fn admit(
        &self,
    ) -> Result<
        Vec<(
            JobId,
            bool,
            JobMeta,
            JobSpec,
            TraceHandle,
            TelemetryHandle,
            RunCtl,
        )>,
        ServiceError,
    > {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let mut launches = Vec::new();
        if self.killed.load(Ordering::Acquire) {
            return Ok(launches);
        }
        loop {
            let free = self.cfg.slots - st.slots_used;
            let Some(adm) = st.queue.pop_admissible(free) else {
                break;
            };
            let Some(entry) = st.catalog.get_mut(&adm.id) else {
                return Err(ServiceError::QueuedJobMissing(adm.id));
            };
            st.slots_used += adm.tasks;
            let ctl = RunCtl::new();
            st.running.insert(adm.id, ctl.clone());
            entry.meta.phase = JobPhase::Running;
            launches.push((
                adm.id,
                adm.resume,
                entry.meta.clone(),
                entry.spec.clone(),
                Arc::clone(&entry.trace),
                Arc::clone(&entry.telemetry),
                ctl,
            ));
        }
        Self::publish_gauges(st);
        Ok(launches)
    }

    /// Mirrors the service-level admission gauges into every job's
    /// telemetry registry, so samples taken by any running engine carry
    /// the fleet's queue depth and slot occupancy at that instant.
    fn publish_gauges(st: &SvcState) {
        let queued = st.queue.len() as u64;
        let inflight = st.slots_used as u64;
        for entry in st.catalog.values() {
            entry.telemetry.set_gauge(Gauge::QueueLen, queued);
            entry.telemetry.set_gauge(Gauge::InflightSlots, inflight);
        }
    }

    fn on_complete(
        &self,
        id: JobId,
        result: Result<ResultRecord, ServiceError>,
    ) -> Result<(), ServiceError> {
        let killed = self.killed.load(Ordering::Acquire);
        let outcome = {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            st.running.remove(&id);
            let Some(entry) = st.catalog.get_mut(&id) else {
                return Err(ServiceError::CompletedJobMissing(id));
            };
            st.slots_used -= entry.spec.tasks;
            match result {
                Ok(rec) => {
                    entry.meta.attempts += 1;
                    entry.meta.phase = JobPhase::Completed;
                    entry.meta.reason.clear();
                    let meta = entry.meta.clone();
                    st.completion_order.push(id);
                    Outcome::Completed(meta, rec)
                }
                // An abort during shutdown is not a failure: the
                // journaled phase stays `Running` so recovery resumes
                // the job from its checkpoints.
                Err(_) if killed => Outcome::Interrupted,
                Err(e) => {
                    entry.meta.attempts += 1;
                    entry.meta.reason = e.to_string();
                    if entry.meta.attempts > entry.spec.fault.max_retries {
                        entry.meta.phase = JobPhase::DeadLettered;
                        let tail = entry.trace.tail(self.cfg.flight_tail);
                        Outcome::Dead(entry.meta.clone(), tail)
                    } else {
                        entry.meta.phase = JobPhase::Queued;
                        let (priority, tasks) = (entry.spec.priority, entry.spec.tasks);
                        let meta = entry.meta.clone();
                        st.queue.push(id, priority, tasks, true);
                        Outcome::Retry(meta)
                    }
                }
            }
        };
        {
            let st = self.state.lock();
            Self::publish_gauges(&st);
        }
        Ok(self.journal_outcome(id, outcome)?)
    }

    /// Journals what [`JobService::on_complete`] decided about job `id`.
    fn journal_outcome(&self, id: JobId, outcome: Outcome) -> Result<(), EngineError> {
        match outcome {
            Outcome::Completed(meta, rec) => {
                let mut clock = TaskClock::default();
                self.dfs.put_atomic(
                    &catalog::result_path(NS, id),
                    rec.to_bytes(),
                    NodeId(0),
                    &mut clock,
                )?;
                self.journal_meta(&meta)
            }
            Outcome::Retry(meta) => self.journal_meta(&meta),
            Outcome::Dead(meta, tail) => {
                self.journal_meta(&meta)?;
                let entry = DlqEntry {
                    id,
                    attempts: meta.attempts,
                    reason: meta.reason.clone(),
                };
                let mut clock = TaskClock::default();
                self.dfs.put_atomic(
                    &catalog::dlq_entry_path(NS, id),
                    entry.to_bytes(),
                    NodeId(0),
                    &mut clock,
                )?;
                // The supervisor dumps flight artifacts on rollbacks;
                // a retry-exhausted job never got that far, so the
                // service captures the trailing window itself.
                self.dfs.put_atomic(
                    &catalog::dlq_flight_path(NS, id),
                    Bytes::from(flight_lines(&tail).into_bytes()),
                    NodeId(0),
                    &mut clock,
                )?;
                Ok(())
            }
            Outcome::Interrupted => Ok(()),
        }
    }

    fn journal_meta(&self, meta: &JobMeta) -> Result<(), EngineError> {
        let mut clock = TaskClock::default();
        self.dfs.put_atomic(
            &catalog::meta_path(NS, meta.id),
            meta.to_bytes(),
            NodeId(0),
            &mut clock,
        )?;
        Ok(())
    }

    fn read_decoded<T: Codec>(&self, path: &str) -> Result<T, EngineError> {
        let mut clock = TaskClock::default();
        let mut raw = self.dfs.read(path, NodeId(0), &mut clock)?;
        Ok(T::decode(&mut raw)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(slots: usize) -> JobService {
        JobService::new(ServiceConfig::default().with_slots(slots))
    }

    #[test]
    fn submit_rejects_impossible_specs() {
        let s = svc(2);
        let wide = JobSpec::new("wide", AlgoSpec::Halve, EngineSel::Threads, 1).with_tasks(3);
        assert!(s.submit(wide).is_err());
        let poison_sim = JobSpec::new("p", AlgoSpec::PoisonPill, EngineSel::Sim, 1);
        assert!(s.submit(poison_sim).is_err());
        let tcp = JobSpec::new("t", AlgoSpec::Halve, EngineSel::Tcp, 1);
        assert!(s.submit(tcp).is_err(), "no worker binary configured");
        // A scale the job's input generator cannot build from is refused
        // at the door, not retried until it is dead-lettered.
        for (algo, engine, scale) in [
            (AlgoSpec::Sssp, EngineSel::Sim, 0),
            (AlgoSpec::PageRank, EngineSel::Threads, 0),
            (AlgoSpec::Kmeans, EngineSel::Sim, 1),
            (AlgoSpec::Halve, EngineSel::Sim, 0),
        ] {
            let spec = JobSpec::new("tiny", algo, engine, 1).with_scale(scale);
            match s.submit(spec) {
                Err(EngineError::Config(msg)) => assert!(msg.contains("scale"), "{msg}"),
                other => panic!("expected a Config error, got {other:?}"),
            }
        }
        assert!(s.status().is_empty(), "nothing was journaled or queued");
    }

    /// A zero-iteration spec is a configuration error at the door, not
    /// an attempt that panics in `IterConfig::new` and is retried.
    #[test]
    fn submit_rejects_zero_iterations() {
        let s = svc(2);
        let none = JobSpec::new("none", AlgoSpec::Halve, EngineSel::Sim, 1).with_max_iters(0);
        match s.submit(none) {
            Err(EngineError::Config(msg)) => assert!(msg.contains("iteration"), "{msg}"),
            other => panic!("expected a Config error, got {other:?}"),
        }
        assert!(s.status().is_empty(), "nothing was journaled or queued");
    }

    #[test]
    fn sim_job_runs_to_completion_and_journals_a_result() {
        let s = svc(4);
        let id = s
            .submit(
                JobSpec::new("halve-sim", AlgoSpec::Halve, EngineSel::Sim, 7)
                    .with_scale(16)
                    .with_max_iters(3),
            )
            .unwrap();
        s.run_until_idle().unwrap();
        let status = s.status();
        assert_eq!(status.len(), 1);
        assert_eq!(status[0].phase, JobPhase::Completed);
        assert_eq!(status[0].attempts, 1);
        let rec = s.result(id).unwrap().expect("result journaled");
        assert_eq!(rec.iterations, 3);
        assert!(!rec.state.is_empty());
        assert!(s.dlq().unwrap().is_empty());
    }

    /// A simulator job records into its own trace ring like a native
    /// one: one `IterEnd` per pair per iteration.
    #[test]
    fn sim_job_records_its_trace() {
        let s = svc(4);
        let id = s
            .submit(
                JobSpec::new("halve-sim-trace", AlgoSpec::Halve, EngineSel::Sim, 7)
                    .with_scale(16)
                    .with_tasks(2)
                    .with_max_iters(3),
            )
            .unwrap();
        s.run_until_idle().unwrap();
        let traces = s.job_traces();
        let (_, events) = traces
            .iter()
            .find(|(job, _)| *job == id)
            .expect("the job has a trace entry");
        let mut ends: Vec<(u32, u32)> = events
            .iter()
            .filter(|e| e.kind == imr_trace::TraceKind::IterEnd)
            .map(|e| (e.task, e.iteration))
            .collect();
        ends.sort_unstable();
        let want: Vec<(u32, u32)> = (0..2)
            .flat_map(|t| (1..=3).map(move |it| (t, it)))
            .collect();
        assert_eq!(ends, want);
    }

    #[test]
    fn a_job_thread_that_dies_silently_fails_its_job_not_the_service() {
        let s = svc(4);
        let id = s
            .submit(
                JobSpec::new("mute", AlgoSpec::Halve, EngineSel::Sim, 7)
                    .with_scale(16)
                    .with_max_retries(0),
            )
            .unwrap();
        // Admit the job as the scheduler would, then stand in for its
        // thread with one that exits without sending a report.
        assert_eq!(s.admit().unwrap().len(), 1);
        let (_tx, rx) = mpsc::channel::<Report>();
        let mut threads = vec![(id, thread::spawn(|| {}))];
        let (reported, result) = next_report(&rx, &mut threads);
        assert_eq!(reported, id);
        assert!(matches!(result, Err(ServiceError::NoReport(job)) if job == id));
        assert!(threads.is_empty(), "the dead thread was retired");
        s.on_complete(reported, result).unwrap();
        let status = s.status();
        assert_eq!(status[0].phase, JobPhase::DeadLettered);
        assert!(status[0].reason.contains("without reporting"));
        assert_eq!(s.dlq().unwrap()[0].id, id);
        // The fleet's slots are free again and the scheduler still runs.
        let next = s
            .submit(JobSpec::new("after", AlgoSpec::Halve, EngineSel::Sim, 7).with_scale(16))
            .unwrap();
        s.run_until_idle().unwrap();
        assert!(s.result(next).unwrap().is_some());
    }

    #[test]
    fn a_report_for_an_uncatalogued_job_is_a_typed_error() {
        let s = svc(2);
        let err = s
            .on_complete(41, Err(ServiceError::NoReport(41)))
            .unwrap_err();
        assert!(matches!(err, ServiceError::CompletedJobMissing(41)));
    }

    #[test]
    fn poison_job_exhausts_retries_and_lands_in_the_dlq() {
        let s = svc(4);
        let id = s
            .submit(
                JobSpec::new("poison", AlgoSpec::PoisonPill, EngineSel::Threads, 3)
                    .with_scale(8)
                    .with_max_retries(1),
            )
            .unwrap();
        s.run_until_idle().unwrap();
        let status = s.status();
        assert_eq!(status[0].phase, JobPhase::DeadLettered);
        assert_eq!(status[0].attempts, 2, "initial attempt + one retry");
        assert!(!status[0].reason.is_empty());
        let dlq = s.dlq().unwrap();
        assert_eq!(dlq.len(), 1);
        assert_eq!(dlq[0].id, id);
        assert_eq!(dlq[0].attempts, 2);
        assert!(
            s.dlq_flight(id).unwrap().is_some(),
            "flight artifact attached"
        );
        assert!(s.result(id).unwrap().is_none());
    }

    #[test]
    fn telemetry_endpoint_serves_prometheus_text_for_finished_jobs() {
        use std::io::{Read, Write};
        let s = JobService::new(
            ServiceConfig::default()
                .with_slots(4)
                .with_telemetry_addr("127.0.0.1:0"),
        );
        s.submit(
            JobSpec::new("halve-tel", AlgoSpec::Halve, EngineSel::Threads, 5)
                .with_scale(8)
                .with_max_iters(3)
                .with_tasks(2),
        )
        .unwrap();
        s.run_until_idle().unwrap();
        let addr = s.telemetry_addr().expect("endpoint bound");
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        conn.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200"), "got: {body}");
        assert!(body.contains("imr_iteration{job=\"1\"} 3"));
        assert!(body.contains("imr_phase_latency_nanos_count{job=\"1\",phase=\"map\"} 6"));
        assert!(body.contains("imr_inflight_slots{job=\"1\"} 0"));
        let tel = s.job_telemetry();
        assert_eq!(tel.len(), 1);
        assert_eq!(tel[0].1.samples().len(), 6, "2 pairs x 3 iterations");
    }

    #[test]
    fn mixed_batch_respects_slots_and_completes_everything() {
        let s = svc(2);
        let mut ids = Vec::new();
        for seed in 0..5u64 {
            ids.push(
                s.submit(
                    JobSpec::new(
                        format!("h{seed}"),
                        AlgoSpec::Halve,
                        EngineSel::Threads,
                        seed,
                    )
                    .with_scale(12)
                    .with_max_iters(3)
                    .with_tasks(2),
                )
                .unwrap(),
            );
        }
        s.run_until_idle().unwrap();
        for id in ids {
            let rec = s.result(id).unwrap().expect("each job completed");
            assert_eq!(rec.iterations, 3);
        }
    }
}
