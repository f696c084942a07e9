//! Transport layer for the native backend.
//!
//! The iMapReduce paper (§3.2–3.3) keeps a *persistent connection* from
//! each reduce task to its one-to-one map task for the whole iterative
//! job, and relies on that connection's bounded buffering for the
//! asynchronous-map backpressure. This crate abstracts that connection
//! behind the [`Transport`] trait and provides two implementations:
//!
//! * [`ChannelMesh`] — the in-process bounded-crossbeam-channel matrix
//!   used by the thread backend (one link per pair, n senders × n
//!   receivers each).
//! * [`WorkerConn`] — the worker-process side of a hub-and-spoke TCP
//!   topology: one persistent connection per worker process to the
//!   coordinator, which routes segments between pairs, completes the
//!   one all-gather collective, and proxies DFS access.
//!   Frames are length-prefixed binary ([`frame`]), messages are
//!   tag-byte encoded with the workspace [`imr_records::Codec`]
//!   ([`proto`]), and per-link in-flight segments are bounded by an
//!   explicit credit scheme so the channel backend's `bounded(1)`
//!   backpressure semantics carry over unchanged.
//!
//! "Reconnect with replay" after a failure is realized one level up: the
//! supervisor rolls every pair back to the last common checkpoint epoch
//! and respawns worker processes, which open fresh connections tagged
//! with the new generation number.

#![deny(unsafe_code)]

pub mod chaos;
pub mod conn;
pub mod crc;
pub mod frame;
pub mod policy;
pub mod proto;
pub mod transport;

pub use chaos::{ChaosConfig, ChaosDirection, ChaosState, ChaosStream, FrameAction};
pub use conn::WorkerConn;
pub use frame::{FrameReader, FrameWriter};
pub use policy::NetPolicy;
pub use transport::{ChannelLink, ChannelMesh, Closed, Transport};

use imr_mapreduce::EngineError;
use imr_records::CodecError;
use std::fmt;

/// Errors surfaced by the transport layer.
#[derive(Debug)]
pub enum NetError {
    /// The peer closed the connection cleanly at a frame boundary, or
    /// the connection was poisoned for teardown.
    Closed,
    /// An I/O error, including truncation in the middle of a frame.
    Io(String),
    /// A frame length prefix exceeded [`frame::MAX_FRAME`] — treated as
    /// protocol corruption, never allocated.
    FrameTooLarge(usize),
    /// A frame body failed to decode.
    Codec(CodecError),
    /// The peer violated the message protocol (bad handshake, stale
    /// generation, out-of-range pair id, remote-side failure message).
    Protocol(String),
    /// A frame failed its CRC check against the expected sequence
    /// number — a flipped bit, a dropped frame or a duplicate. The
    /// connection is unusable and must be torn down into the
    /// reconnect-with-replay path.
    Corrupt {
        /// The sequence number the receiver expected.
        seq: u64,
    },
    /// The peer's stream preamble announced an incompatible wire
    /// protocol (wrong magic or version).
    Version(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Closed => write!(f, "connection closed"),
            NetError::Io(msg) => write!(f, "i/o error: {msg}"),
            NetError::FrameTooLarge(len) => {
                write!(f, "frame length {len} exceeds maximum {}", frame::MAX_FRAME)
            }
            NetError::Codec(e) => write!(f, "codec error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::Corrupt { seq } => {
                write!(
                    f,
                    "frame {seq} failed its integrity check (corrupt, dropped or duplicated frame)"
                )
            }
            NetError::Version(msg) => write!(f, "wire version mismatch: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

impl From<NetError> for EngineError {
    fn from(e: NetError) -> Self {
        match e {
            NetError::Codec(c) => EngineError::Codec(c),
            other => EngineError::Worker(format!("transport: {other}")),
        }
    }
}
