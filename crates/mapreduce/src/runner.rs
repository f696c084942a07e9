//! Single-job execution in virtual time: the JobTracker running one
//! MapReduce job — split computation, map wave, shuffle, reduce wave,
//! DFS output commit.

use crate::charge::ClockCharge;
use crate::io::{contiguous_ranges, num_parts, part_path, read_part, write_encoded_parts};
use crate::job::{Emitter, JobConfig, JobCounters, MrJob};
use crate::schedule::SlotPool;
use bytes::Bytes;
use imr_dfs::{Dfs, DfsError};
use imr_records::{
    encode_pairs, shuffle_in_groups, CodecError, FoldTable, ShuffleCost, ShuffleError,
    ShuffleScratch,
};
use imr_simcluster::{ClusterSpec, MetricsHandle, NodeId, TaskClock, VInstant};
use std::fmt;
use std::sync::Arc;

/// Errors from engine execution.
#[derive(Debug)]
pub enum EngineError {
    /// A DFS operation failed.
    Dfs(DfsError),
    /// A record stream failed to decode.
    Codec(CodecError),
    /// The job had no input parts.
    EmptyInput(String),
    /// A native worker thread failed or lost its peers (its channels
    /// disconnected because another worker aborted first).
    Worker(String),
    /// The run configuration is inconsistent with what was requested
    /// (e.g. fault injection without checkpointing enabled).
    Config(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Dfs(e) => write!(f, "engine: {e}"),
            EngineError::Codec(e) => write!(f, "engine: {e}"),
            EngineError::EmptyInput(d) => write!(f, "engine: input directory {d} has no parts"),
            EngineError::Worker(msg) => write!(f, "engine: worker thread: {msg}"),
            EngineError::Config(msg) => write!(f, "engine: invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DfsError> for EngineError {
    fn from(e: DfsError) -> Self {
        EngineError::Dfs(e)
    }
}

impl From<CodecError> for EngineError {
    fn from(e: CodecError) -> Self {
        EngineError::Codec(e)
    }
}

impl From<ShuffleError> for EngineError {
    fn from(e: ShuffleError) -> Self {
        EngineError::Config(e.to_string())
    }
}

/// The outcome of one job run.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// When the job was submitted.
    pub submitted: VInstant,
    /// When the last reduce output was committed to DFS.
    pub finished: VInstant,
    /// Aggregated job counters.
    pub counters: JobCounters,
    /// Number of map tasks executed.
    pub map_tasks: usize,
    /// Number of reduce tasks executed.
    pub reduce_tasks: usize,
}

/// Executes MapReduce jobs over one simulated cluster + DFS.
#[derive(Clone)]
pub struct JobRunner {
    cluster: Arc<ClusterSpec>,
    dfs: Dfs,
    metrics: MetricsHandle,
    /// Charge job/task initialization overheads. Disabled to reproduce
    /// the paper's "MapReduce (ex. init.)" reference curve.
    pub charge_init: bool,
}

impl JobRunner {
    /// A runner over the given cluster, DFS and metrics registry.
    pub fn new(cluster: Arc<ClusterSpec>, dfs: Dfs, metrics: MetricsHandle) -> Self {
        JobRunner {
            cluster,
            dfs,
            metrics,
            charge_init: true,
        }
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

    /// Runs `job` over `input_dir`, writing `conf.num_reduces` parts to
    /// `output_dir`. Returns the job's virtual-time result.
    pub fn run<J: MrJob>(
        &self,
        job: &J,
        conf: &JobConfig,
        input_dir: &str,
        output_dir: &str,
        submit: VInstant,
    ) -> Result<JobResult, EngineError> {
        self.run_multi(job, conf, &[input_dir], output_dir, submit)
    }

    /// As [`run`](Self::run) with several input directories (Hadoop's
    /// `MultipleInputs`): every part of every directory becomes one map
    /// task. The matrix-multiplication join job uses this to read the
    /// tagged cells of both matrices.
    pub fn run_multi<J: MrJob>(
        &self,
        job: &J,
        conf: &JobConfig,
        input_dirs: &[&str],
        output_dir: &str,
        submit: VInstant,
    ) -> Result<JobResult, EngineError> {
        let cost = &self.cluster.cost;
        // Flatten (dir, part) pairs into the map task list.
        let mut splits: Vec<(String, usize)> = Vec::new();
        for dir in input_dirs {
            for i in 0..num_parts(&self.dfs, dir) {
                splits.push(((*dir).to_owned(), i));
            }
        }
        let m = splits.len();
        if m == 0 {
            return Err(EngineError::EmptyInput(input_dirs.join(",")));
        }
        let r = conf.num_reduces;
        self.metrics.jobs_launched.add(1);
        // Stable job ordinal: keys the straggler pattern so that
        // engine variants (with/without init charges) face identical
        // stragglers and differ only structurally.
        let job_ordinal = self.metrics.jobs_launched.get();
        let mut counters = JobCounters::default();

        // Master-side job setup.
        let job_start = if self.charge_init {
            submit + cost.job_setup
        } else {
            submit
        };

        // ---- Map wave -------------------------------------------------
        let mut map_pool = SlotPool::new(&self.cluster, true, job_start);
        // Per map task: the node it ran on, its completion instant, and
        // its R encoded output partitions.
        let mut map_nodes = Vec::with_capacity(m);
        let mut map_done = Vec::with_capacity(m);
        let mut map_parts: Vec<Vec<Bytes>> = Vec::with_capacity(m);
        let mut scratch = ShuffleScratch::default();
        let mut table = FoldTable::default();

        for (dir, i) in &splits {
            let i = *i;
            let preferred: Vec<NodeId> = self
                .dfs
                .block_locations(&part_path(dir, i))?
                .first()
                .cloned()
                .unwrap_or_default();
            let (node, start) = map_pool.place(job_start, &preferred);
            let speed = self.cluster.speed(node);
            let mut clock = TaskClock::starting_at(start);
            if self.charge_init {
                clock.advance(cost.task_launch);
            }
            self.metrics.tasks_launched.add(1);

            // Side input (distributed cache), fetched from DFS.
            if conf.side_input_bytes > 0 {
                clock.advance(cost.disk_time(conf.side_input_bytes));
                clock.advance(cost.remote_transfer_time(conf.side_input_bytes));
                self.metrics.dfs_read_bytes.add(conf.side_input_bytes);
            }

            // Read + decode the split.
            let in_bytes = self.dfs.len(&part_path(dir, i))?;
            let input: Vec<(J::InK, J::InV)> = read_part(&self.dfs, dir, i, node, &mut clock)?;
            clock.advance(cost.serde_per_byte * in_bytes);

            // User map function over every record; with a combiner,
            // each call's output is folded into its keys' accumulators
            // before the next.
            let combiner = job.has_combiner();
            let mut combine = |k: &J::MidK, acc: &mut J::MidV, v| job.combine(k, acc, v);
            let mut emitter = Emitter::new();
            let mut emitted = 0u64;
            for (k, v) in &input {
                job.map(k, v, &mut emitter);
                if combiner {
                    emitted += table.absorb(emitter.pairs_mut(), &mut combine);
                }
            }
            let mut raw_out = emitter.into_pairs();
            emitted += raw_out.len() as u64;
            let records_in = input.len() as u64;
            counters.map_input_records += records_in;
            self.metrics.map_input_records.add(records_in);
            counters.map_output_records += emitted;
            // Map-side cost covers both consuming the input records and
            // producing the output records (collect/partition path).
            clock.advance(cost.compute_time(records_in + emitted, in_bytes, speed));

            // Partition, sort, (combine), encode, spill.
            let partition = |k: &J::MidK, r| job.partition(k, r);
            let mut charge = ClockCharge::new(&mut clock, cost, speed);
            let spilled = if combiner {
                table.finish(&mut scratch, r, partition, &mut charge)?
            } else {
                scratch.shuffle_out(&mut raw_out, r, partition, &mut charge)?
            };
            counters.shuffle_records += spilled.records;
            let spill_bytes = spilled.bytes;
            counters.shuffle_bytes += spill_bytes;
            clock.advance(cost.serde_per_byte * spill_bytes);
            clock.advance(cost.disk_time(spill_bytes));
            if self.charge_init {
                clock.advance(cost.task_cleanup);
            }
            // Deterministic straggler slowdown (JVM/GC/OS noise).
            let busy = clock.now().duration_since(start);
            clock.advance(busy * cost.straggler(job_ordinal, map_done.len() as u64, 1));
            let done = clock.now();
            map_pool.occupy(node, done);

            map_nodes.push(node);
            map_done.push(done);
            map_parts.push(spilled.segments);
        }

        // ---- Shuffle + reduce wave ------------------------------------
        let mut reduce_pool = SlotPool::new(&self.cluster, false, job_start);
        let mut output_parts: Vec<(NodeId, Vec<(J::OutK, J::OutV)>)> = Vec::with_capacity(r);
        let mut reduce_done = Vec::with_capacity(r);

        for p in 0..r {
            let (node, start) = reduce_pool.place(job_start, &[]);
            let speed = self.cluster.speed(node);
            let mut clock = TaskClock::starting_at(start);
            if self.charge_init {
                clock.advance(cost.task_launch);
            }
            self.metrics.tasks_launched.add(1);

            // Fetch this partition's segment from every map task.
            let mut arrivals = Vec::with_capacity(m);
            let mut segments = Vec::with_capacity(m);
            let mut fetched_bytes = 0u64;
            for i in 0..m {
                let seg = &map_parts[i][p];
                let bytes = seg.len() as u64;
                fetched_bytes += bytes;
                let arrival = map_done[i] + self.cluster.transfer_time(map_nodes[i], node, bytes);
                if map_nodes[i] == node {
                    self.metrics.shuffle_local_bytes.add(bytes);
                } else {
                    self.metrics.shuffle_remote_bytes.add(bytes);
                }
                arrivals.push(arrival);
                segments.push(seg.clone());
            }
            clock.barrier(arrivals);
            let work_start = clock.now();
            clock.advance(cost.serde_per_byte * fetched_bytes);

            // Merge sorted runs, group by key, user reduce per group.
            let mut emitter = Emitter::new();
            let mut groups = 0u64;
            let mut charge = ClockCharge::new(&mut clock, cost, speed);
            let total_rec = shuffle_in_groups(
                segments,
                |k: J::MidK, vals| {
                    groups += 1;
                    job.reduce(&k, vals, &mut emitter);
                },
                &mut charge,
            )?;
            charge.merged(total_rec, m);
            counters.reduce_input_groups += groups;
            self.metrics.reduce_input_records.add(total_rec);
            let out_pairs = emitter.into_pairs();
            counters.reduce_output_records += out_pairs.len() as u64;

            // Commit output part to DFS.
            let payload = encode_pairs(&out_pairs);
            clock.advance(cost.serde_per_byte * payload.len() as u64);
            self.dfs
                .put(&part_path(output_dir, p), payload, node, &mut clock)?;
            if self.charge_init {
                clock.advance(cost.task_cleanup);
            }
            // Deterministic straggler slowdown over the post-barrier work.
            let busy = clock.now().duration_since(work_start);
            clock.advance(busy * cost.straggler(job_ordinal, p as u64, 2));
            let done = clock.now();
            reduce_pool.occupy(node, done);
            reduce_done.push(done);
            output_parts.push((node, out_pairs));
        }

        let finished = reduce_done.into_iter().max().unwrap_or(job_start);
        Ok(JobResult {
            submitted: submit,
            finished,
            counters,
            map_tasks: m,
            reduce_tasks: r,
        })
    }

    /// Loads a typed dataset onto the DFS as `n_parts` parts of
    /// contiguous records under `dir`, charging the load to `clock`.
    /// Each part is encoded straight from `pairs`; nothing is copied.
    pub fn load_input<K: imr_records::Codec, V: imr_records::Codec>(
        &self,
        dir: &str,
        pairs: impl AsRef<[(K, V)]>,
        n_parts: usize,
        clock: &mut TaskClock,
    ) -> Result<(), EngineError> {
        if n_parts == 0 {
            return Err(EngineError::Config(format!(
                "cannot split {dir} into zero parts"
            )));
        }
        let pairs = pairs.as_ref();
        let parts = contiguous_ranges(pairs.len(), n_parts).map(|part| encode_pairs(&pairs[part]));
        write_encoded_parts(&self.dfs, dir, parts, clock)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imr_simcluster::Metrics;

    struct WordCount;
    impl MrJob for WordCount {
        type InK = u32;
        type InV = String;
        type MidK = String;
        type MidV = u64;
        type OutK = String;
        type OutV = u64;
        fn map(&self, _k: &u32, line: &String, out: &mut Emitter<String, u64>) {
            for w in line.split_whitespace() {
                out.emit(w.to_owned(), 1);
            }
        }
        fn reduce(&self, k: &String, values: Vec<u64>, out: &mut Emitter<String, u64>) {
            out.emit(k.clone(), values.into_iter().sum());
        }
    }

    fn runner(nodes: usize) -> JobRunner {
        let spec = Arc::new(ClusterSpec::local(nodes));
        let metrics: MetricsHandle = Arc::new(Metrics::default());
        let dfs = Dfs::with_block_size(Arc::clone(&spec), Arc::clone(&metrics), 2, 1 << 20);
        JobRunner::new(spec, dfs, metrics)
    }

    #[test]
    fn word_count_end_to_end() {
        let r = runner(3);
        let mut clock = TaskClock::default();
        let input: Vec<(u32, String)> = vec![
            (0, "the quick brown fox".into()),
            (1, "the lazy dog".into()),
            (2, "the fox".into()),
        ];
        r.load_input("/in", input, 3, &mut clock).unwrap();
        let res = r
            .run(
                &WordCount,
                &JobConfig::new("wc", 2),
                "/in",
                "/out",
                clock.now(),
            )
            .unwrap();
        assert!(res.finished > clock.now());
        assert_eq!(res.map_tasks, 3);
        assert_eq!(res.reduce_tasks, 2);
        assert_eq!(res.counters.map_input_records, 3);
        assert_eq!(res.counters.map_output_records, 9);

        let mut rc = TaskClock::default();
        let mut all: Vec<(String, u64)> =
            crate::io::read_all(r.dfs(), "/out", NodeId(0), &mut rc).unwrap();
        all.sort();
        assert_eq!(
            all,
            vec![
                ("brown".to_string(), 1),
                ("dog".to_string(), 1),
                ("fox".to_string(), 2),
                ("lazy".to_string(), 1),
                ("quick".to_string(), 1),
                ("the".to_string(), 3),
            ]
        );
    }

    #[test]
    fn init_charges_make_jobs_slower() {
        let with_init = runner(2);
        let mut no_init = runner(2);
        no_init.charge_init = false;

        let input: Vec<(u32, String)> = (0..10).map(|i| (i, format!("w{i} w{i}"))).collect();
        let mut c1 = TaskClock::default();
        with_init
            .load_input("/in", input.clone(), 2, &mut c1)
            .unwrap();
        let mut c2 = TaskClock::default();
        no_init.load_input("/in", input, 2, &mut c2).unwrap();

        let a = with_init
            .run(
                &WordCount,
                &JobConfig::new("wc", 2),
                "/in",
                "/out",
                c1.now(),
            )
            .unwrap();
        let b = no_init
            .run(
                &WordCount,
                &JobConfig::new("wc", 2),
                "/in",
                "/out",
                c2.now(),
            )
            .unwrap();
        let a_span = a.finished.duration_since(a.submitted);
        let b_span = b.finished.duration_since(b.submitted);
        assert!(
            a_span > b_span + with_init.cluster().cost.job_setup,
            "init overhead missing: {a_span} vs {b_span}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let input: Vec<(u32, String)> = (0..50).map(|i| (i, format!("a b{} c", i % 7))).collect();
        let run_once = || {
            let r = runner(4);
            let mut clock = TaskClock::default();
            r.load_input("/in", input.clone(), 4, &mut clock).unwrap();
            let res = r
                .run(
                    &WordCount,
                    &JobConfig::new("wc", 3),
                    "/in",
                    "/out",
                    clock.now(),
                )
                .unwrap();
            (res.finished, res.counters)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn empty_input_dir_is_an_error() {
        let r = runner(2);
        let res = r.run(
            &WordCount,
            &JobConfig::new("wc", 1),
            "/absent",
            "/out",
            VInstant::EPOCH,
        );
        assert!(matches!(res, Err(EngineError::EmptyInput(_))));
    }

    #[test]
    fn shuffle_bytes_are_counted() {
        let r = runner(2);
        let mut clock = TaskClock::default();
        let input: Vec<(u32, String)> = (0..20).map(|i| (i, "common word".to_string())).collect();
        r.load_input("/in", input, 2, &mut clock).unwrap();
        let res = r
            .run(
                &WordCount,
                &JobConfig::new("wc", 2),
                "/in",
                "/out",
                clock.now(),
            )
            .unwrap();
        assert!(res.counters.shuffle_bytes > 0);
        let m = r.metrics().snapshot();
        assert!(m.shuffle_remote_bytes + m.shuffle_local_bytes >= res.counters.shuffle_bytes);
    }
}
