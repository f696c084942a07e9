//! Coordinator ⇄ worker message protocol for the TCP transport.
//!
//! Every message is one frame ([`crate::frame`]); the payload is a tag
//! byte followed by the [`Codec`]-encoded fields. Shuffle segments,
//! gather parts and checkpoint bodies travel as opaque `Bytes` —
//! already encoded by the worker — so the coordinator routes them
//! without knowing the job's key/state types. Each enum encodes once,
//! as [`Parts`] (`ToCoord::parts`, `ToWorker::parts`): scalar fields
//! into a small head, those `Bytes` borrowed, so the frame writer sends
//! a segment from its own allocation and never copies it into a
//! message buffer.
//!
//! The contract carries one of each thing: one segment class
//! (`Segment`, for shuffle and delta rounds alike), one collective
//! (`Gather` → `GatherAll`: barrier, one2all exchange and termination
//! vote are all the same task-ordered all-gather) and one progress
//! report (`Beat`, which also delivers the worker's counter
//! increments and trace events, and from which the coordinator keeps
//! the distance history a `Ckpt` is persisted with) and one outcome type
//! ([`PairOutcome`], what the pair loop returns on either fabric).
//! Tags are never reused: a retired tag decodes to
//! [`CodecError::Corrupt`] like any unassigned one. DESIGN.md §8 lists
//! every variant with its sender and handler; `verify.sh drift` fails
//! when that table and these enums differ.

use crate::frame::Parts;
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
    /// A shuffle or delta segment for pair `dest` (consumes one
    /// credit). A run uses either map/reduce iterations or delta
    /// rounds, never both, so one class serves both.
    Segment { dest: usize, payload: Bytes },
    /// The segment from `src` was consumed; grant its producer a credit.
    Credit { src: usize },
    /// This pair's contribution to the next all-gather round: empty at
    /// the synchronization barrier, the encoded state part in a
    /// one2all exchange, the encoded `(d, has_prev)` in a termination
    /// vote.
    Gather { part: Bytes },
    /// Progress report after completing `iteration`: feeds the
    /// watchdog, the coordinator-side per-iteration records used for
    /// reporting, and — `counts`, in `MetricsSnapshot::values()` order —
    /// everything the worker's pair loop counted since its previous
    /// report. `events` is the batch of `imr_trace` events (56-byte
    /// records, see `imr_trace::encode_events`) the pair emitted since
    /// then, timestamped on the worker's clock: the worker's whole
    /// observability output, which the coordinator rebases onto its
    /// own timeline and replays through the run's observer after the
    /// counts. Empty unless [`WorkerSetup::observed`]. Sent once more
    /// before [`ToCoord::Outcome`] with `iteration` 0 (iterations count
    /// from 1), which delivers the trailing counts and events and
    /// nothing else.
    Beat {
        iteration: usize,
        busy_secs: f64,
        d: f64,
        has_prev: bool,
        counts: Vec<u64>,
        events: Bytes,
    },
    /// Checkpoint body for `iteration`; the coordinator persists it
    /// together with the distance history it has recorded from this
    /// pair's `Beat`s, which precede the checkpoint on the connection.
    Ckpt { iteration: usize, payload: Bytes },
    /// Ask the coordinator to read DFS file `<dir>/part-<part>`.
    ReadPart { dir: String, part: usize },
    /// Terminal status of this worker process: what its pair loop
    /// returned, a real failure flattened to its message.
    Outcome(Result<PairOutcome, String>),
}

/// Messages sent from the coordinator to a worker process.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// First frame on every connection: the job/generation parameters.
    Setup(Box<WorkerSetup>),
    /// A shuffle or delta segment produced by pair `src`.
    Segment { src: usize, payload: Bytes },
    /// Pair `dest` consumed one of our segments; restore a credit.
    Credit { dest: usize },
    /// Every pair's [`ToCoord::Gather`] part of one round, in task
    /// order.
    GatherAll { parts: Vec<Bytes> },
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
}

/// How one pair's generation ended — what the pair loop returns on
/// either fabric, what [`ToCoord::Outcome`] carries and what the
/// supervisor triages. `Finished` carries the pair's final partition
/// already encoded, so the variant crosses the process boundary
/// unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum PairOutcome {
    /// Ran to termination; carries the encoded final partition (sorted)
    /// and the absolute iteration the job stopped at.
    Finished {
        final_data: Bytes,
        iterations: usize,
    },
    /// A scripted kill fired right after completing this iteration.
    Induced { at_iteration: usize },
    /// A scripted hang fired after this iteration; the pair went silent
    /// until the generation was poisoned.
    Stalled { at_iteration: usize },
    /// A peer died first: the transport closed or the generation was
    /// poisoned under us.
    Aborted,
    /// The crash hook fired: the worker process must terminate
    /// abruptly, without reporting any outcome.
    Vanish,
}

/// The per-pair slice of the job configuration, identical on both
/// fabrics: the thread backend builds it in place, the TCP backend
/// ships it in the setup frame.
#[derive(Debug, Clone, PartialEq)]
pub struct PairCfg {
    /// Number of map/reduce pairs in the job.
    pub n: usize,
    pub max_iters: usize,
    pub checkpoint_interval: usize,
    /// Which loop the pair runs, with that loop's knobs only.
    pub mode: PairMode,
}

/// A pair's execution mode: one variant per loop shape an engine runs,
/// so a combination no engine runs cannot be written.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairMode {
    /// one2one map/reduce iterations, each map starting as soon as its
    /// own reduce hands it the new state. `threshold` is the distance
    /// of the termination vote, if any.
    Async { threshold: Option<f64> },
    /// one2one, every iteration starting at a barrier (the paper's
    /// "sync." variant).
    Sync { threshold: Option<f64> },
    /// one2all broadcast, synchronous by nature: an epoch-0 load reads
    /// all `state_parts` parts of the state directory.
    One2All {
        threshold: Option<f64>,
        state_parts: usize,
    },
    /// Barrier-free delta-accumulative rounds (the delta loop; needs an
    /// `Accumulative` job), done once the accumulated progress falls
    /// below `eps`: the top ⌈pending / `share`⌉ pending keys applied per
    /// round (1 = all), `check_every` rounds per termination check. With `warm` the
    /// epoch-0 state parts are warm `(key, (value, pending))` plans to
    /// restore, not initial state to seed (i2MapReduce-style warm
    /// start); a warm part reaches a worker like every other part,
    /// `ReadPart` → `PartData`, guarded by the frame's CRC.
    Delta {
        eps: f64,
        share: u32,
        check_every: usize,
        warm: bool,
    },
}

impl PairMode {
    /// The termination vote's threshold: a map/reduce mode's distance
    /// threshold, the delta mode's `eps`.
    pub fn threshold(&self) -> Option<f64> {
        match *self {
            PairMode::Async { threshold }
            | PairMode::Sync { threshold }
            | PairMode::One2All { threshold, .. } => threshold,
            PairMode::Delta { eps, .. } => Some(eps),
        }
    }
}

/// The DFS directory layout a pair reads from and writes to.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDirs {
    pub state_dir: String,
    pub static_dir: String,
    pub output_dir: String,
}

/// One pair's resolved fault script and emulated node speed for one
/// generation, derived from the pending fault events and the pair's
/// current placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPlan {
    /// Iterations after which this pair crashes (scripted kills).
    pub kills: Vec<usize>,
    /// Iterations after which this pair hangs until poisoned.
    pub hangs: Vec<usize>,
    /// `(iteration, millis)` scripted slowdowns during that iteration.
    pub delays: Vec<(usize, u64)>,
    /// Relative speed of the hosting node; below 1.0 the pair sleeps
    /// `busy · (1/speed − 1)` per iteration to emulate slow hardware.
    pub speed: f64,
    /// Test hook (TCP backend): vanish — exit the process abruptly with
    /// no outcome report — right after this iteration, emulating an
    /// unscripted worker crash / dropped connection.
    pub crash_after: Option<usize>,
}

/// Job/generation parameters delivered to a worker at connect time:
/// the same three descriptions of a pair's job the thread backend
/// hands its pair loop, plus what only a separate process needs told.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSetup {
    /// Job tag; echoes the worker's [`ToCoord::Hello`] job id.
    pub job: u64,
    /// Checkpoint epoch to resume from (0 on a fresh run).
    pub epoch: usize,
    /// Whether the coordinator's observer has a sink (trace ring or
    /// telemetry registry) attached; when not, the worker buffers no
    /// trace events and its [`ToCoord::Beat`]s carry none.
    pub observed: bool,
    pub cfg: PairCfg,
    pub dirs: PairDirs,
    pub plan: PairPlan,
}

/// The wire form of [`ToCoord::Outcome`], one flat record for every
/// ending: `(tag, iteration, bytes)`, where `bytes` is the final
/// partition of a finish or the text of a failure.
fn outcome_parts(outcome: &Result<PairOutcome, String>) -> (u8, usize, &[u8]) {
    match outcome {
        Ok(PairOutcome::Finished {
            final_data,
            iterations,
        }) => (0, *iterations, final_data),
        Ok(PairOutcome::Induced { at_iteration }) => (1, *at_iteration, &[]),
        Ok(PairOutcome::Stalled { at_iteration }) => (2, *at_iteration, &[]),
        Ok(PairOutcome::Aborted) => (3, 0, &[]),
        Ok(PairOutcome::Vanish) => (4, 0, &[]),
        Err(message) => (5, 0, message.as_bytes()),
    }
}

fn outcome_from_parts(
    (tag, at_iteration, bytes): (u8, usize, Bytes),
) -> CodecResult<Result<PairOutcome, String>> {
    Ok(match tag {
        0 => Ok(PairOutcome::Finished {
            final_data: bytes,
            iterations: at_iteration,
        }),
        1 => Ok(PairOutcome::Induced { at_iteration }),
        2 => Ok(PairOutcome::Stalled { at_iteration }),
        3 => Ok(PairOutcome::Aborted),
        4 => Ok(PairOutcome::Vanish),
        5 => Err(String::from_utf8_lossy(&bytes).into_owned()),
        _ => return Err(CodecError::Corrupt("unknown outcome tag")),
    })
}

/// `Codec` for a plain struct: its fields, in the order listed.
macro_rules! struct_codec {
    ($ty:ident { $($field:ident),+ }) => {
        impl Codec for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                $(self.$field.encode(buf);)+
            }
            fn decode(buf: &mut Bytes) -> CodecResult<Self> {
                Ok($ty { $($field: Codec::decode(buf)?),+ })
            }
            fn encoded_len(&self) -> usize {
                0 $(+ self.$field.encoded_len())+
            }
        }
    };
}

/// Decodes one tagged enum value from `$buf`: a tag byte, then the
/// fields of that tag's variant in the order listed, each by its
/// [`Codec`]. `$extra` arms decode what is not a plain struct variant;
/// any other tag is [`CodecError::Corrupt`] with the message given.
macro_rules! decode_tagged {
    ($buf:ident, $unknown:literal, $ty:ident {
        $($tag:literal => $var:ident { $($field:ident),* }),+ $(,)?
    } $($extra:tt)*) => {
        Ok(match u8::decode($buf)? {
            $($tag => $ty::$var { $($field: Codec::decode($buf)?),* },)+
            $($extra)*
            _ => return Err(CodecError::Corrupt($unknown)),
        })
    };
}

/// `Codec` for an enum of struct variants: a tag byte, then the
/// variant's fields in the order listed.
macro_rules! enum_codec {
    ($ty:ident, $unknown:literal { $($tag:literal => $var:ident { $($field:ident),+ }),+ }) => {
        impl Codec for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                match self {
                    $($ty::$var { $($field),+ } => {
                        $tag.encode(buf);
                        $($field.encode(buf);)+
                    })+
                }
            }
            fn decode(buf: &mut Bytes) -> CodecResult<Self> {
                decode_tagged!(buf, $unknown, $ty { $($tag => $var { $($field),+ }),+ })
            }
            fn encoded_len(&self) -> usize {
                match self {
                    $($ty::$var { $($field),+ } => $tag.encoded_len() $(+ $field.encoded_len())+,)+
                }
            }
        }
    };
}

/// `Codec` for a message enum: encoded as its [`Parts`] (the one
/// encoder, see `ToCoord::parts`), decoded from `$buf` by
/// [`decode_tagged`].
macro_rules! message_codec {
    ($ty:ident, $buf:ident, $unknown:literal { $($arms:tt)* } $($extra:tt)*) => {
        impl Codec for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                for piece in self.parts().pieces() {
                    buf.extend_from_slice(piece);
                }
            }
            fn decode($buf: &mut Bytes) -> CodecResult<Self> {
                decode_tagged!($buf, $unknown, $ty { $($arms)* } $($extra)*)
            }
            fn encoded_len(&self) -> usize {
                self.parts().len()
            }
        }
    };
}

enum_codec!(PairMode, "unknown pair mode tag" {
    0u8 => Async { threshold },
    1u8 => Sync { threshold },
    2u8 => One2All { threshold, state_parts },
    3u8 => Delta { eps, share, check_every, warm }
});
struct_codec!(PairCfg {
    n,
    max_iters,
    checkpoint_interval,
    mode
});
struct_codec!(PairDirs {
    state_dir,
    static_dir,
    output_dir
});
struct_codec!(PairPlan {
    kills,
    hangs,
    delays,
    speed,
    crash_after
});
struct_codec!(WorkerSetup {
    job,
    epoch,
    observed,
    cfg,
    dirs,
    plan
});

impl ToCoord {
    /// This message's frame payload for [`FrameWriter::write_parts`]:
    /// a tag byte and the scalar fields encoded, every bulk field
    /// borrowed. The one encoder of the message; [`Codec::encode`]
    /// concatenates it.
    ///
    /// [`FrameWriter::write_parts`]: crate::frame::FrameWriter::write_parts
    pub fn parts(&self) -> Parts<'_> {
        let mut p = Parts::default();
        match self {
            ToCoord::Hello {
                pair,
                generation,
                job,
            } => p.put(&0u8).put(pair).put(generation).put(job),
            ToCoord::Segment { dest, payload } => p.put(&1u8).put(dest).bulk(payload),
            ToCoord::Credit { src } => p.put(&2u8).put(src),
            ToCoord::Gather { part } => p.put(&4u8).bulk(part),
            ToCoord::Beat {
                iteration,
                busy_secs,
                d,
                has_prev,
                counts,
                events,
            } => p
                .put(&6u8)
                .put(iteration)
                .put(busy_secs)
                .put(d)
                .put(has_prev)
                .put(counts)
                .bulk(events),
            ToCoord::Ckpt { iteration, payload } => p.put(&7u8).put(iteration).bulk(payload),
            ToCoord::ReadPart { dir, part } => p.put(&8u8).put(dir).put(part),
            ToCoord::Outcome(outcome) => {
                let (tag, iteration, bytes) = outcome_parts(outcome);
                p.put(&9u8).put(&tag).put(&iteration).bulk(bytes)
            }
        };
        p
    }
}

// Retired, never reused: 3 BarrierArrive, 5 Distance, 10 Trace,
// 11 Delta, 12 DeltaStats, 13 PatchStats, 14 Telemetry.
message_codec!(ToCoord, buf, "unknown ToCoord tag" {
    0u8 => Hello { pair, generation, job },
    1u8 => Segment { dest, payload },
    2u8 => Credit { src },
    4u8 => Gather { part },
    6u8 => Beat { iteration, busy_secs, d, has_prev, counts, events },
    7u8 => Ckpt { iteration, payload },
    8u8 => ReadPart { dir, part },
}
    9u8 => ToCoord::Outcome(outcome_from_parts(Codec::decode(buf)?)?),
);

impl ToWorker {
    /// This message's frame payload for [`FrameWriter::write_parts`],
    /// as [`ToCoord::parts`] is for the other direction.
    ///
    /// [`FrameWriter::write_parts`]: crate::frame::FrameWriter::write_parts
    pub fn parts(&self) -> Parts<'_> {
        let mut p = Parts::default();
        match self {
            ToWorker::Setup(setup) => p.put(&0u8).put(setup.as_ref()),
            ToWorker::Segment { src, payload } => p.put(&1u8).put(src).bulk(payload),
            ToWorker::Credit { dest } => p.put(&2u8).put(dest),
            ToWorker::GatherAll { parts } => {
                p.put(&4u8).put(&parts.len());
                for part in parts {
                    p.bulk(part);
                }
                &mut p
            }
            ToWorker::PartData { payload } => p.put(&6u8).bulk(payload),
            ToWorker::PartErr { message } => p.put(&7u8).put(message),
            ToWorker::Poison => p.put(&8u8),
            ToWorker::Drain => p.put(&9u8),
        };
        p
    }
}

// Retired, never reused: 3 BarrierRelease, 5 DistanceTotal, 10 Delta,
// 11 Patch.
message_codec!(ToWorker, buf, "unknown ToWorker tag" {
    1u8 => Segment { src, payload },
    2u8 => Credit { dest },
    4u8 => GatherAll { parts },
    6u8 => PartData { payload },
    7u8 => PartErr { message },
}
    0u8 => ToWorker::Setup(Box::new(WorkerSetup::decode(buf)?)),
    8u8 => ToWorker::Poison,
    9u8 => ToWorker::Drain,
);

/// A setup frame with every field away from its default, shared by
/// this crate's unit tests.
#[cfg(test)]
pub(crate) fn sample_setup() -> WorkerSetup {
    WorkerSetup {
        job: 11,
        epoch: 6,
        observed: true,
        cfg: PairCfg {
            n: 4,
            max_iters: 50,
            checkpoint_interval: 5,
            mode: PairMode::Delta {
                eps: 1e-9,
                share: 16,
                check_every: 3,
                warm: true,
            },
        },
        dirs: PairDirs {
            state_dir: "/job/state".into(),
            static_dir: "/job/static".into(),
            output_dir: "/job/out".into(),
        },
        plan: PairPlan {
            kills: vec![7],
            hangs: vec![],
            delays: vec![(3, 250)],
            speed: 0.5,
            crash_after: Some(9),
        },
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
        round_trip(ToCoord::Gather { part: Bytes::new() });
        round_trip(ToCoord::Gather {
            part: Bytes::from(vec![9; 40]),
        });
        round_trip(ToCoord::Beat {
            iteration: 12,
            busy_secs: 0.003,
            d: f64::INFINITY,
            has_prev: false,
            counts: vec![0, 4096, 0, u64::MAX],
            events: Bytes::new(),
        });
        round_trip(ToCoord::Beat {
            iteration: 0,
            busy_secs: 0.0,
            d: 0.5,
            has_prev: true,
            counts: vec![],
            events: Bytes::from(vec![7; 56]),
        });
        round_trip(ToCoord::Ckpt {
            iteration: 10,
            payload: Bytes::from(vec![0; 128]),
        });
        round_trip(ToCoord::ReadPart {
            dir: "/job/static".into(),
            part: 3,
        });
        round_trip(ToCoord::Outcome(Err("pair 1 panicked: boom".into())));
        for outcome in [
            PairOutcome::Finished {
                final_data: Bytes::from(vec![4; 24]),
                iterations: 9,
            },
            PairOutcome::Induced { at_iteration: 4 },
            PairOutcome::Stalled { at_iteration: 5 },
            PairOutcome::Aborted,
            PairOutcome::Vanish,
        ] {
            round_trip(ToCoord::Outcome(Ok(outcome)));
        }
    }

    #[test]
    fn to_worker_round_trips() {
        for mode in [
            PairMode::Async { threshold: None },
            PairMode::Sync {
                threshold: Some(0.5),
            },
            PairMode::One2All {
                threshold: Some(1e-9),
                state_parts: 4,
            },
            PairMode::Delta {
                eps: 1e-9,
                share: 16,
                check_every: 3,
                warm: true,
            },
        ] {
            let mut setup = sample_setup();
            setup.cfg.mode = mode;
            round_trip(ToWorker::Setup(Box::new(setup)));
        }
        round_trip(ToWorker::Segment {
            src: 0,
            payload: Bytes::from(vec![5; 17]),
        });
        round_trip(ToWorker::Credit { dest: 3 });
        round_trip(ToWorker::GatherAll {
            parts: vec![Bytes::from(vec![1]), Bytes::new(), Bytes::from(vec![2, 3])],
        });
        round_trip(ToWorker::PartData {
            payload: Bytes::from(vec![8; 64]),
        });
        round_trip(ToWorker::PartErr {
            message: "block lost".into(),
        });
        round_trip(ToWorker::Poison);
        round_trip(ToWorker::Drain);
    }

    #[test]
    fn unknown_tags_rejected() {
        let mut buf = Bytes::from(vec![250u8]);
        assert!(ToCoord::decode(&mut buf).is_err());
        let mut buf = Bytes::from(vec![250u8]);
        assert!(ToWorker::decode(&mut buf).is_err());
        // An outcome record with a tag no ending owns.
        let mut buf = Bytes::from(vec![9u8, 99, 0, 0]);
        assert!(ToCoord::decode(&mut buf).is_err());
    }
}
