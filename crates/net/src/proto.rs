//! Coordinator ⇄ worker message protocol for the TCP transport.
//!
//! Every message is one frame ([`crate::frame`]); the payload is a tag
//! byte followed by the [`Codec`]-encoded fields. Shuffle segments,
//! broadcast parts and checkpoint bodies travel as opaque `Bytes` —
//! already `encode_pairs`-encoded by the worker — so the coordinator
//! routes them without knowing the job's key/state types.

use bytes::{Bytes, BytesMut};
use imr_records::{Codec, CodecError, CodecResult};

/// Messages sent from a worker process to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum ToCoord {
    /// Connection handshake: which pair this process runs, which
    /// supervisor generation spawned it (stale reconnects are refused)
    /// and which job it was spawned for (a coordinator serving many
    /// jobs refuses a worker that dialed the wrong one).
    Hello {
        pair: usize,
        generation: u64,
        job: u64,
    },
    /// A shuffle segment for pair `dest` (consumes one credit).
    Segment { dest: usize, payload: Bytes },
    /// The segment from `src` was consumed; grant its producer a credit.
    Credit { src: usize },
    /// Arrival at the synchronization barrier.
    BarrierArrive,
    /// This pair's encoded state part for a one2all exchange.
    Broadcast { payload: Bytes },
    /// This pair's local distance contribution for termination voting.
    Distance { d: f64, has_prev: bool },
    /// Heartbeat after completing `iteration` (feeds the watchdog and
    /// the coordinator-side per-iteration records used for reporting).
    Beat {
        iteration: usize,
        busy_secs: f64,
        d: f64,
        has_prev: bool,
    },
    /// Checkpoint body for `iteration`; the coordinator persists it.
    /// `hist` is this pair's generation-local distance history through
    /// `iteration` (`(d, has_prev)` per completed iteration), persisted
    /// next to the snapshot so a restarted coordinator can rebuild the
    /// per-iteration records a durable resume needs.
    Ckpt {
        iteration: usize,
        payload: Bytes,
        hist: Vec<(f64, bool)>,
    },
    /// Ask the coordinator to read DFS file `<dir>/part-<part>`.
    ReadPart { dir: String, part: usize },
    /// Terminal status of this worker process.
    Outcome(WireOutcome),
    /// A batch of `imr_trace` events (56-byte records, see
    /// `imr_trace::encode_events`), timestamped on the worker's clock —
    /// the worker's whole observability output. The coordinator rebases
    /// them onto its own timeline and replays them through the run's
    /// observer, which feeds the job trace and the telemetry registry
    /// alike. Best-effort, and only sent when [`WorkerSetup::observed`].
    Trace { payload: Bytes },
    /// A delta segment for pair `dest` (barrier-free accumulative
    /// mode). Delta rounds send exactly one — possibly empty — segment
    /// to every pair per round and consume the same credit window as
    /// shuffle segments (a run uses either shuffle or delta frames,
    /// never both).
    Delta { dest: usize, payload: Bytes },
    /// Per-check accumulative-mode counter report, folded into the
    /// coordinator's real metrics registry (`deltas_sent`,
    /// `priority_preemptions`, `termination_checks`).
    DeltaStats {
        deltas: u64,
        preemptions: u64,
        checks: u64,
    },
    /// Incremental-mode patch receipt: the worker decoded its epoch-0
    /// warm-start part and echoes what it saw (`keys` restored, raw
    /// `bytes` length and FNV-64 `digest`) so the coordinator can
    /// verify the plan arrived intact (see [`ToWorker::Patch`]).
    PatchStats { keys: u64, bytes: u64, digest: u64 },
}

/// Messages sent from the coordinator to a worker process.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// First frame on every connection: the job/generation parameters.
    Setup(Box<WorkerSetup>),
    /// A shuffle segment produced by pair `src`.
    Segment { src: usize, payload: Bytes },
    /// Pair `dest` consumed one of our segments; restore a credit.
    Credit { dest: usize },
    /// All pairs arrived at the barrier; proceed.
    BarrierRelease,
    /// All pairs' broadcast parts, in task order.
    BroadcastAll { parts: Vec<Bytes> },
    /// The task-order sum of all pairs' distances.
    DistanceTotal { total: f64, any_prev: bool },
    /// Successful [`ToCoord::ReadPart`] response.
    PartData { payload: Bytes },
    /// Failed [`ToCoord::ReadPart`] response.
    PartErr { message: String },
    /// The generation is being torn down; abort at the next check.
    Poison,
    /// Orderly shutdown: the run is over (or the service is retiring
    /// this worker) and the process should exit cleanly — success, not
    /// a rollback. Distinguished from [`ToWorker::Poison`] so recovery
    /// triage never mistakes a drained worker for a failed one.
    Drain,
    /// A delta segment produced by pair `src` (barrier-free
    /// accumulative mode; see [`ToCoord::Delta`]).
    Delta { src: usize, payload: Bytes },
    /// Incremental-mode patch expectation, sent right after `Setup`
    /// when a generation starts at epoch 0 with `incremental` set: the
    /// raw `bytes` length and FNV-64 `digest` of the warm-start state
    /// part the coordinator planned for this pair. The worker compares
    /// them against what it actually read before restoring its store
    /// and replies with [`ToCoord::PatchStats`].
    Patch { bytes: u64, digest: u64 },
}

/// Terminal worker status carried by [`ToCoord::Outcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    pub kind: OutcomeKind,
    pub at_iteration: usize,
    /// Human-readable failure detail (empty unless `kind` is `Error`).
    pub message: String,
    /// Encoded final state (empty unless `kind` is `Finished`).
    pub payload: Bytes,
}

/// Discriminant for [`WireOutcome`]; mirrors the supervisor's
/// per-pair outcome triage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    Finished,
    Induced,
    Stalled,
    Aborted,
    Error,
}

/// Job/generation parameters delivered to a worker at connect time.
/// Mirrors the thread backend's per-pair configuration plus the DFS
/// layout the coordinator proxies reads for.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSetup {
    /// Job tag; echoes the worker's [`ToCoord::Hello`] job id.
    pub job: u64,
    pub num_tasks: usize,
    /// Checkpoint epoch to resume from (0 on a fresh run).
    pub epoch: usize,
    pub one2all: bool,
    pub sync: bool,
    pub distance_threshold: Option<f64>,
    pub max_iterations: usize,
    pub checkpoint_interval: usize,
    /// Number of `part-*` files under `state_dir`.
    pub num_state_parts: usize,
    pub state_dir: String,
    pub static_dir: String,
    pub output_dir: String,
    /// Scripted fault plan for this pair (iterations to fail at).
    pub kills: Vec<usize>,
    pub hangs: Vec<usize>,
    pub delays: Vec<(usize, u64)>,
    /// Emulated node speed (< 1.0 stretches busy time).
    pub speed: f64,
    /// Test hook: exit the process abruptly (no outcome frame) after
    /// this iteration, simulating an unscripted worker crash.
    pub crash_after: Option<usize>,
    /// Run the barrier-free delta-accumulative loop instead of the
    /// map/reduce iteration loop (requires an `Accumulative` job).
    pub accumulative: bool,
    /// Keys processed per delta round (0 = all pending keys).
    pub delta_batch: usize,
    /// Delta rounds between termination checks.
    pub check_every: usize,
    /// Incremental warm start: epoch-0 state parts hold planned
    /// `(key, (value, pending))` entries to restore, guarded by a
    /// [`ToWorker::Patch`] / [`ToCoord::PatchStats`] handshake.
    pub incremental: bool,
    /// Whether the coordinator's observer has a sink (trace ring or
    /// telemetry registry) attached; when not, the worker buffers and
    /// ships no [`ToCoord::Trace`] batches.
    pub observed: bool,
}

impl Codec for OutcomeKind {
    fn encode(&self, buf: &mut BytesMut) {
        let tag: u8 = match self {
            OutcomeKind::Finished => 0,
            OutcomeKind::Induced => 1,
            OutcomeKind::Stalled => 2,
            OutcomeKind::Aborted => 3,
            OutcomeKind::Error => 4,
        };
        tag.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok(match u8::decode(buf)? {
            0 => OutcomeKind::Finished,
            1 => OutcomeKind::Induced,
            2 => OutcomeKind::Stalled,
            3 => OutcomeKind::Aborted,
            4 => OutcomeKind::Error,
            _ => return Err(CodecError::Corrupt("unknown outcome kind")),
        })
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Codec for WireOutcome {
    fn encode(&self, buf: &mut BytesMut) {
        self.kind.encode(buf);
        self.at_iteration.encode(buf);
        self.message.encode(buf);
        self.payload.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok(WireOutcome {
            kind: OutcomeKind::decode(buf)?,
            at_iteration: usize::decode(buf)?,
            message: String::decode(buf)?,
            payload: Bytes::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.kind.encoded_len()
            + self.at_iteration.encoded_len()
            + self.message.encoded_len()
            + self.payload.encoded_len()
    }
}

impl Codec for WorkerSetup {
    fn encode(&self, buf: &mut BytesMut) {
        self.job.encode(buf);
        self.num_tasks.encode(buf);
        self.epoch.encode(buf);
        self.one2all.encode(buf);
        self.sync.encode(buf);
        self.distance_threshold.encode(buf);
        self.max_iterations.encode(buf);
        self.checkpoint_interval.encode(buf);
        self.num_state_parts.encode(buf);
        self.state_dir.encode(buf);
        self.static_dir.encode(buf);
        self.output_dir.encode(buf);
        self.kills.encode(buf);
        self.hangs.encode(buf);
        self.delays.encode(buf);
        self.speed.encode(buf);
        self.crash_after.encode(buf);
        self.accumulative.encode(buf);
        self.delta_batch.encode(buf);
        self.check_every.encode(buf);
        self.incremental.encode(buf);
        self.observed.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok(WorkerSetup {
            job: u64::decode(buf)?,
            num_tasks: usize::decode(buf)?,
            epoch: usize::decode(buf)?,
            one2all: bool::decode(buf)?,
            sync: bool::decode(buf)?,
            distance_threshold: Option::<f64>::decode(buf)?,
            max_iterations: usize::decode(buf)?,
            checkpoint_interval: usize::decode(buf)?,
            num_state_parts: usize::decode(buf)?,
            state_dir: String::decode(buf)?,
            static_dir: String::decode(buf)?,
            output_dir: String::decode(buf)?,
            kills: Vec::<usize>::decode(buf)?,
            hangs: Vec::<usize>::decode(buf)?,
            delays: Vec::<(usize, u64)>::decode(buf)?,
            speed: f64::decode(buf)?,
            crash_after: Option::<usize>::decode(buf)?,
            accumulative: bool::decode(buf)?,
            delta_batch: usize::decode(buf)?,
            check_every: usize::decode(buf)?,
            incremental: bool::decode(buf)?,
            observed: bool::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.job.encoded_len()
            + self.num_tasks.encoded_len()
            + self.epoch.encoded_len()
            + self.one2all.encoded_len()
            + self.sync.encoded_len()
            + self.distance_threshold.encoded_len()
            + self.max_iterations.encoded_len()
            + self.checkpoint_interval.encoded_len()
            + self.num_state_parts.encoded_len()
            + self.state_dir.encoded_len()
            + self.static_dir.encoded_len()
            + self.output_dir.encoded_len()
            + self.kills.encoded_len()
            + self.hangs.encoded_len()
            + self.delays.encoded_len()
            + self.speed.encoded_len()
            + self.crash_after.encoded_len()
            + self.accumulative.encoded_len()
            + self.delta_batch.encoded_len()
            + self.check_every.encoded_len()
            + self.incremental.encoded_len()
            + self.observed.encoded_len()
    }
}

impl Codec for ToCoord {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ToCoord::Hello {
                pair,
                generation,
                job,
            } => {
                0u8.encode(buf);
                pair.encode(buf);
                generation.encode(buf);
                job.encode(buf);
            }
            ToCoord::Segment { dest, payload } => {
                1u8.encode(buf);
                dest.encode(buf);
                payload.encode(buf);
            }
            ToCoord::Credit { src } => {
                2u8.encode(buf);
                src.encode(buf);
            }
            ToCoord::BarrierArrive => 3u8.encode(buf),
            ToCoord::Broadcast { payload } => {
                4u8.encode(buf);
                payload.encode(buf);
            }
            ToCoord::Distance { d, has_prev } => {
                5u8.encode(buf);
                d.encode(buf);
                has_prev.encode(buf);
            }
            ToCoord::Beat {
                iteration,
                busy_secs,
                d,
                has_prev,
            } => {
                6u8.encode(buf);
                iteration.encode(buf);
                busy_secs.encode(buf);
                d.encode(buf);
                has_prev.encode(buf);
            }
            ToCoord::Ckpt {
                iteration,
                payload,
                hist,
            } => {
                7u8.encode(buf);
                iteration.encode(buf);
                payload.encode(buf);
                hist.encode(buf);
            }
            ToCoord::ReadPart { dir, part } => {
                8u8.encode(buf);
                dir.encode(buf);
                part.encode(buf);
            }
            ToCoord::Outcome(outcome) => {
                9u8.encode(buf);
                outcome.encode(buf);
            }
            ToCoord::Trace { payload } => {
                10u8.encode(buf);
                payload.encode(buf);
            }
            ToCoord::Delta { dest, payload } => {
                11u8.encode(buf);
                dest.encode(buf);
                payload.encode(buf);
            }
            ToCoord::DeltaStats {
                deltas,
                preemptions,
                checks,
            } => {
                12u8.encode(buf);
                deltas.encode(buf);
                preemptions.encode(buf);
                checks.encode(buf);
            }
            ToCoord::PatchStats {
                keys,
                bytes,
                digest,
            } => {
                13u8.encode(buf);
                keys.encode(buf);
                bytes.encode(buf);
                digest.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok(match u8::decode(buf)? {
            0 => ToCoord::Hello {
                pair: usize::decode(buf)?,
                generation: u64::decode(buf)?,
                job: u64::decode(buf)?,
            },
            1 => ToCoord::Segment {
                dest: usize::decode(buf)?,
                payload: Bytes::decode(buf)?,
            },
            2 => ToCoord::Credit {
                src: usize::decode(buf)?,
            },
            3 => ToCoord::BarrierArrive,
            4 => ToCoord::Broadcast {
                payload: Bytes::decode(buf)?,
            },
            5 => ToCoord::Distance {
                d: f64::decode(buf)?,
                has_prev: bool::decode(buf)?,
            },
            6 => ToCoord::Beat {
                iteration: usize::decode(buf)?,
                busy_secs: f64::decode(buf)?,
                d: f64::decode(buf)?,
                has_prev: bool::decode(buf)?,
            },
            7 => ToCoord::Ckpt {
                iteration: usize::decode(buf)?,
                payload: Bytes::decode(buf)?,
                hist: Vec::<(f64, bool)>::decode(buf)?,
            },
            8 => ToCoord::ReadPart {
                dir: String::decode(buf)?,
                part: usize::decode(buf)?,
            },
            9 => ToCoord::Outcome(WireOutcome::decode(buf)?),
            10 => ToCoord::Trace {
                payload: Bytes::decode(buf)?,
            },
            11 => ToCoord::Delta {
                dest: usize::decode(buf)?,
                payload: Bytes::decode(buf)?,
            },
            12 => ToCoord::DeltaStats {
                deltas: u64::decode(buf)?,
                preemptions: u64::decode(buf)?,
                checks: u64::decode(buf)?,
            },
            13 => ToCoord::PatchStats {
                keys: u64::decode(buf)?,
                bytes: u64::decode(buf)?,
                digest: u64::decode(buf)?,
            },
            _ => return Err(CodecError::Corrupt("unknown ToCoord tag")),
        })
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            ToCoord::Hello {
                pair,
                generation,
                job,
            } => pair.encoded_len() + generation.encoded_len() + job.encoded_len(),
            ToCoord::Segment { dest, payload } => dest.encoded_len() + payload.encoded_len(),
            ToCoord::Credit { src } => src.encoded_len(),
            ToCoord::BarrierArrive => 0,
            ToCoord::Broadcast { payload } => payload.encoded_len(),
            ToCoord::Distance { d, has_prev } => d.encoded_len() + has_prev.encoded_len(),
            ToCoord::Beat {
                iteration,
                busy_secs,
                d,
                has_prev,
            } => {
                iteration.encoded_len()
                    + busy_secs.encoded_len()
                    + d.encoded_len()
                    + has_prev.encoded_len()
            }
            ToCoord::Ckpt {
                iteration,
                payload,
                hist,
            } => iteration.encoded_len() + payload.encoded_len() + hist.encoded_len(),
            ToCoord::ReadPart { dir, part } => dir.encoded_len() + part.encoded_len(),
            ToCoord::Outcome(outcome) => outcome.encoded_len(),
            ToCoord::Trace { payload } => payload.encoded_len(),
            ToCoord::Delta { dest, payload } => dest.encoded_len() + payload.encoded_len(),
            ToCoord::DeltaStats {
                deltas,
                preemptions,
                checks,
            } => deltas.encoded_len() + preemptions.encoded_len() + checks.encoded_len(),
            ToCoord::PatchStats {
                keys,
                bytes,
                digest,
            } => keys.encoded_len() + bytes.encoded_len() + digest.encoded_len(),
        }
    }
}

impl Codec for ToWorker {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ToWorker::Setup(setup) => {
                0u8.encode(buf);
                setup.encode(buf);
            }
            ToWorker::Segment { src, payload } => {
                1u8.encode(buf);
                src.encode(buf);
                payload.encode(buf);
            }
            ToWorker::Credit { dest } => {
                2u8.encode(buf);
                dest.encode(buf);
            }
            ToWorker::BarrierRelease => 3u8.encode(buf),
            ToWorker::BroadcastAll { parts } => {
                4u8.encode(buf);
                parts.encode(buf);
            }
            ToWorker::DistanceTotal { total, any_prev } => {
                5u8.encode(buf);
                total.encode(buf);
                any_prev.encode(buf);
            }
            ToWorker::PartData { payload } => {
                6u8.encode(buf);
                payload.encode(buf);
            }
            ToWorker::PartErr { message } => {
                7u8.encode(buf);
                message.encode(buf);
            }
            ToWorker::Poison => 8u8.encode(buf),
            ToWorker::Drain => 9u8.encode(buf),
            ToWorker::Delta { src, payload } => {
                10u8.encode(buf);
                src.encode(buf);
                payload.encode(buf);
            }
            ToWorker::Patch { bytes, digest } => {
                11u8.encode(buf);
                bytes.encode(buf);
                digest.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok(match u8::decode(buf)? {
            0 => ToWorker::Setup(Box::new(WorkerSetup::decode(buf)?)),
            1 => ToWorker::Segment {
                src: usize::decode(buf)?,
                payload: Bytes::decode(buf)?,
            },
            2 => ToWorker::Credit {
                dest: usize::decode(buf)?,
            },
            3 => ToWorker::BarrierRelease,
            4 => ToWorker::BroadcastAll {
                parts: Vec::<Bytes>::decode(buf)?,
            },
            5 => ToWorker::DistanceTotal {
                total: f64::decode(buf)?,
                any_prev: bool::decode(buf)?,
            },
            6 => ToWorker::PartData {
                payload: Bytes::decode(buf)?,
            },
            7 => ToWorker::PartErr {
                message: String::decode(buf)?,
            },
            8 => ToWorker::Poison,
            9 => ToWorker::Drain,
            10 => ToWorker::Delta {
                src: usize::decode(buf)?,
                payload: Bytes::decode(buf)?,
            },
            11 => ToWorker::Patch {
                bytes: u64::decode(buf)?,
                digest: u64::decode(buf)?,
            },
            _ => return Err(CodecError::Corrupt("unknown ToWorker tag")),
        })
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            ToWorker::Setup(setup) => setup.encoded_len(),
            ToWorker::Segment { src, payload } => src.encoded_len() + payload.encoded_len(),
            ToWorker::Credit { dest } => dest.encoded_len(),
            ToWorker::BarrierRelease => 0,
            ToWorker::BroadcastAll { parts } => parts.encoded_len(),
            ToWorker::DistanceTotal { total, any_prev } => {
                total.encoded_len() + any_prev.encoded_len()
            }
            ToWorker::PartData { payload } => payload.encoded_len(),
            ToWorker::PartErr { message } => message.encoded_len(),
            ToWorker::Poison => 0,
            ToWorker::Drain => 0,
            ToWorker::Delta { src, payload } => src.encoded_len() + payload.encoded_len(),
            ToWorker::Patch { bytes, digest } => bytes.encoded_len() + digest.encoded_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(msg: T) {
        let encoded = msg.to_bytes();
        assert_eq!(encoded.len(), msg.encoded_len());
        let mut buf = encoded;
        let decoded = T::decode(&mut buf).unwrap();
        assert!(buf.is_empty(), "trailing bytes after {decoded:?}");
        assert_eq!(decoded, msg);
    }

    fn sample_setup() -> WorkerSetup {
        WorkerSetup {
            job: 11,
            num_tasks: 4,
            epoch: 6,
            one2all: true,
            sync: false,
            distance_threshold: Some(1e-9),
            max_iterations: 50,
            checkpoint_interval: 5,
            num_state_parts: 4,
            state_dir: "/job/state".into(),
            static_dir: "/job/static".into(),
            output_dir: "/job/out".into(),
            kills: vec![7],
            hangs: vec![],
            delays: vec![(3, 250)],
            speed: 0.5,
            crash_after: Some(9),
            accumulative: true,
            delta_batch: 16,
            check_every: 3,
            incremental: true,
            observed: true,
        }
    }

    #[test]
    fn to_coord_round_trips() {
        round_trip(ToCoord::Hello {
            pair: 3,
            generation: 2,
            job: 17,
        });
        round_trip(ToCoord::Segment {
            dest: 1,
            payload: Bytes::from(vec![1, 2, 3]),
        });
        round_trip(ToCoord::Credit { src: 2 });
        round_trip(ToCoord::BarrierArrive);
        round_trip(ToCoord::Broadcast {
            payload: Bytes::from(vec![9; 40]),
        });
        round_trip(ToCoord::Distance {
            d: 0.125,
            has_prev: true,
        });
        round_trip(ToCoord::Beat {
            iteration: 12,
            busy_secs: 0.003,
            d: f64::INFINITY,
            has_prev: false,
        });
        round_trip(ToCoord::Ckpt {
            iteration: 10,
            payload: Bytes::from(vec![0; 128]),
            hist: vec![(1.5, false), (0.25, true)],
        });
        round_trip(ToCoord::ReadPart {
            dir: "/job/static".into(),
            part: 3,
        });
        round_trip(ToCoord::Outcome(WireOutcome {
            kind: OutcomeKind::Error,
            at_iteration: 4,
            message: "pair 1 panicked: boom".into(),
            payload: Bytes::new(),
        }));
        round_trip(ToCoord::Trace {
            payload: Bytes::from(vec![7; 56]),
        });
        round_trip(ToCoord::Delta {
            dest: 2,
            payload: Bytes::from(vec![4; 24]),
        });
        round_trip(ToCoord::DeltaStats {
            deltas: 120,
            preemptions: 7,
            checks: 1,
        });
        round_trip(ToCoord::PatchStats {
            keys: 512,
            bytes: 8192,
            digest: 0xDEAD_BEEF_CAFE_F00D,
        });
    }

    #[test]
    fn to_worker_round_trips() {
        round_trip(ToWorker::Setup(Box::new(sample_setup())));
        round_trip(ToWorker::Segment {
            src: 0,
            payload: Bytes::from(vec![5; 17]),
        });
        round_trip(ToWorker::Credit { dest: 3 });
        round_trip(ToWorker::BarrierRelease);
        round_trip(ToWorker::BroadcastAll {
            parts: vec![Bytes::from(vec![1]), Bytes::new(), Bytes::from(vec![2, 3])],
        });
        round_trip(ToWorker::DistanceTotal {
            total: 42.5,
            any_prev: true,
        });
        round_trip(ToWorker::PartData {
            payload: Bytes::from(vec![8; 64]),
        });
        round_trip(ToWorker::PartErr {
            message: "block lost".into(),
        });
        round_trip(ToWorker::Poison);
        round_trip(ToWorker::Drain);
        round_trip(ToWorker::Delta {
            src: 1,
            payload: Bytes::new(),
        });
        round_trip(ToWorker::Patch {
            bytes: 8192,
            digest: 0xDEAD_BEEF_CAFE_F00D,
        });
    }

    #[test]
    fn unknown_tags_rejected() {
        let mut buf = Bytes::from(vec![250u8]);
        assert!(ToCoord::decode(&mut buf).is_err());
        let mut buf = Bytes::from(vec![250u8]);
        assert!(ToWorker::decode(&mut buf).is_err());
        let mut buf = Bytes::from(vec![99u8]);
        assert!(OutcomeKind::decode(&mut buf).is_err());
    }
}
