//! The durable job catalog: every job's spec, lifecycle metadata and
//! dead-letter record live in the DFS under the service namespace
//! [`NS`], so the catalog — not the coordinator process — is the source
//! of truth.
//!
//! Layout under a namespace root `ns`:
//!
//! ```text
//! {ns}/jobs/job-00007/spec        encoded JobSpec (immutable)
//! {ns}/jobs/job-00007/meta        encoded JobMeta (put_atomic on change)
//! {ns}/jobs/job-00007/in/state    generated initial state parts
//! {ns}/jobs/job-00007/in/static   generated static-data parts
//! {ns}/jobs/job-00007/out         output + checkpoint snapshots
//! {ns}/jobs/job-00007/result      encoded ResultRecord once Completed
//! {ns}/dlq/job-00007/entry        encoded DlqEntry once DeadLettered
//! {ns}/dlq/job-00007/flight       flight-recorder JSONL artifact
//! ```
//!
//! Giving every job its own subtree is what isolates tenants: no two
//! jobs share state, snapshot or output paths, so concurrent jobs (and
//! a resumed job's rollback scan) can never read each other's parts.

use bytes::{Bytes, BytesMut};
use imr_records::{Codec, CodecError, CodecResult};

/// Catalog-assigned job identity, dense from 1.
pub type JobId = u64;

/// Where a job is in its lifecycle. Journaled transitions:
/// `Queued → Running → {Completed, Queued (retry), DeadLettered}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Submitted (or requeued for retry/resume), awaiting slots.
    Queued,
    /// Holding task slots on the fleet. A recovered catalog treats
    /// `Running` as "interrupted mid-flight: resume from checkpoint".
    Running,
    /// Finished; its result record is journaled.
    Completed,
    /// Exhausted its retry budget; see the dead-letter entry.
    DeadLettered,
}

impl JobPhase {
    /// Stable display name for status tables.
    pub fn name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Completed => "completed",
            JobPhase::DeadLettered => "dead-lettered",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            JobPhase::Queued => 0,
            JobPhase::Running => 1,
            JobPhase::Completed => 2,
            JobPhase::DeadLettered => 3,
        }
    }

    fn from_tag(tag: u8) -> CodecResult<Self> {
        Ok(match tag {
            0 => JobPhase::Queued,
            1 => JobPhase::Running,
            2 => JobPhase::Completed,
            3 => JobPhase::DeadLettered,
            _ => return Err(CodecError::Corrupt("unknown phase tag")),
        })
    }
}

/// The mutable half of a catalog entry, rewritten (atomically) on every
/// lifecycle transition.
#[derive(Clone, Debug, PartialEq)]
pub struct JobMeta {
    /// The job this meta belongs to (sanity-checked on recovery).
    pub id: JobId,
    /// Current lifecycle phase.
    pub phase: JobPhase,
    /// Execution attempts so far (first run counts as attempt 1).
    pub attempts: u32,
    /// Last failure message, empty while the job is healthy.
    pub reason: String,
}

impl JobMeta {
    /// A freshly submitted job's meta.
    pub fn queued(id: JobId) -> Self {
        JobMeta {
            id,
            phase: JobPhase::Queued,
            attempts: 0,
            reason: String::new(),
        }
    }
}

impl Codec for JobMeta {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.phase.tag().encode(buf);
        self.attempts.encode(buf);
        self.reason.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok(JobMeta {
            id: JobId::decode(buf)?,
            phase: JobPhase::from_tag(u8::decode(buf)?)?,
            attempts: u32::decode(buf)?,
            reason: String::decode(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.id.encoded_len()
            + self.phase.tag().encoded_len()
            + self.attempts.encoded_len()
            + self.reason.encoded_len()
    }
}

/// A dead-letter record: why the job was given up on. The companion
/// `flight` artifact holds the job's trailing trace events.
#[derive(Clone, Debug, PartialEq)]
pub struct DlqEntry {
    /// The dead-lettered job.
    pub id: JobId,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// The final attempt's failure message.
    pub reason: String,
}

impl Codec for DlqEntry {
    fn encode(&self, buf: &mut BytesMut) {
        self.id.encode(buf);
        self.attempts.encode(buf);
        self.reason.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok(DlqEntry {
            id: JobId::decode(buf)?,
            attempts: u32::decode(buf)?,
            reason: String::decode(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.id.encoded_len() + self.attempts.encoded_len() + self.reason.encoded_len()
    }
}

/// The DFS namespace root all of the service's catalog state lives
/// under.
pub const NS: &str = "/svc";

fn job_dir(ns: &str, id: JobId) -> String {
    format!("{}/jobs/job-{id:05}", ns.trim_end_matches('/'))
}

/// DFS path of a job's immutable spec.
pub fn spec_path(ns: &str, id: JobId) -> String {
    format!("{}/spec", job_dir(ns, id))
}

/// DFS path of a job's mutable lifecycle meta.
pub fn meta_path(ns: &str, id: JobId) -> String {
    format!("{}/meta", job_dir(ns, id))
}

/// DFS directory of a job's generated initial state parts.
pub fn state_dir(ns: &str, id: JobId) -> String {
    format!("{}/in/state", job_dir(ns, id))
}

/// DFS directory of a job's generated static-data parts.
pub fn static_dir(ns: &str, id: JobId) -> String {
    format!("{}/in/static", job_dir(ns, id))
}

/// DFS directory a job's output parts and checkpoint snapshots land in.
pub fn output_dir(ns: &str, id: JobId) -> String {
    format!("{}/out", job_dir(ns, id))
}

/// DFS path of a completed job's encoded result record.
pub fn result_path(ns: &str, id: JobId) -> String {
    format!("{}/result", job_dir(ns, id))
}

/// DFS path of a dead-lettered job's entry record.
pub fn dlq_entry_path(ns: &str, id: JobId) -> String {
    format!("{}/dlq/job-{id:05}/entry", ns.trim_end_matches('/'))
}

/// DFS path of a dead-lettered job's flight-recorder artifact.
pub fn dlq_flight_path(ns: &str, id: JobId) -> String {
    format!("{}/dlq/job-{id:05}/flight", ns.trim_end_matches('/'))
}

/// Extracts the distinct job ids present under `{ns}/jobs/` from a DFS
/// listing — the recovery scan. Ids are returned sorted.
pub fn scan_job_ids(paths: &[String], ns: &str) -> Vec<JobId> {
    let prefix = format!("{}/jobs/job-", ns.trim_end_matches('/'));
    let mut ids: Vec<JobId> = paths
        .iter()
        .filter_map(|p| {
            let rest = p.strip_prefix(&prefix)?;
            let digits = rest.split('/').next()?;
            digits.parse::<JobId>().ok()
        })
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_and_dlq_round_trip() {
        let meta = JobMeta {
            id: 12,
            phase: JobPhase::DeadLettered,
            attempts: 3,
            reason: "worker thread: boom".into(),
        };
        let mut buf = meta.to_bytes();
        assert_eq!(JobMeta::decode(&mut buf).unwrap(), meta);

        let entry = DlqEntry {
            id: 12,
            attempts: 3,
            reason: "worker thread: boom".into(),
        };
        let mut buf = entry.to_bytes();
        assert_eq!(DlqEntry::decode(&mut buf).unwrap(), entry);
    }

    #[test]
    fn paths_are_per_job_isolated() {
        assert_eq!(spec_path("/svc", 7), "/svc/jobs/job-00007/spec");
        assert_eq!(state_dir("/svc/", 7), "/svc/jobs/job-00007/in/state");
        assert_ne!(output_dir("/svc", 7), output_dir("/svc", 8));
        assert_eq!(dlq_flight_path("/svc", 1), "/svc/dlq/job-00001/flight");
    }

    #[test]
    fn scan_finds_each_id_once() {
        let paths = vec![
            "/svc/jobs/job-00001/spec".to_string(),
            "/svc/jobs/job-00001/meta".to_string(),
            "/svc/jobs/job-00003/in/state/part-00000".to_string(),
            "/svc/dlq/job-00002/entry".to_string(),
            "/svc/jobs/garbage".to_string(),
        ];
        assert_eq!(scan_job_ids(&paths, "/svc"), vec![1, 3]);
    }

    #[test]
    fn phase_tags_round_trip() {
        for phase in [
            JobPhase::Queued,
            JobPhase::Running,
            JobPhase::Completed,
            JobPhase::DeadLettered,
        ] {
            assert_eq!(JobPhase::from_tag(phase.tag()).unwrap(), phase);
        }
        assert!(JobPhase::from_tag(9).is_err());
    }
}
