//! The reduce→map connection abstraction shared by both backends.

use bytes::Bytes;
use crossbeam_channel::{bounded, Receiver, Sender};

/// The link (or the whole generation) is gone: the peer hung up or the
/// supervisor poisoned the run for teardown. Recoverable — the caller
/// aborts the current generation and the supervisor rolls back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

/// A pair's view of the shuffle fabric: one logical duplex link to
/// every pair (including itself), preserving per-link FIFO order and a
/// bounded number of in-flight segments per link (the paper's
/// persistent-socket backpressure, §3.2–3.3).
///
/// `send` blocks while the destination link is at capacity; `recv`
/// blocks until a segment from `src` arrives. Both fail with [`Closed`]
/// once the peer is gone — but `recv` drains segments that were already
/// in flight first, so a producer's clean shutdown never loses data.
pub trait Transport {
    /// Send one encoded segment to pair `dest`.
    fn send(&mut self, dest: usize, seg: Bytes) -> Result<(), Closed>;
    /// Receive the next encoded segment from pair `src`.
    fn recv(&mut self, src: usize) -> Result<Bytes, Closed>;
}

/// Builder for the in-process channel implementation: an n×n matrix of
/// bounded crossbeam channels, one per (producer, consumer) pair.
pub struct ChannelMesh;

impl ChannelMesh {
    /// Create the links for `n` pairs, each channel bounded to
    /// `buffer` in-flight segments. `links()[q]` is pair `q`'s view.
    pub fn links(n: usize, buffer: usize) -> Vec<ChannelLink> {
        let mut links: Vec<ChannelLink> = (0..n)
            .map(|_| ChannelLink {
                sends: Vec::with_capacity(n),
                recvs: Vec::with_capacity(n),
            })
            .collect();
        // Made in `from`-major order, each channel's ends are pushed at
        // their indices: `sends[to]` of pair `from`, `recvs[from]` of `to`.
        for from in 0..n {
            for to in 0..n {
                let (tx, rx) = bounded::<Bytes>(buffer);
                links[from].sends.push(tx);
                links[to].recvs.push(rx);
            }
        }
        links
    }
}

/// One pair's endpoint of a [`ChannelMesh`].
pub struct ChannelLink {
    sends: Vec<Sender<Bytes>>,
    recvs: Vec<Receiver<Bytes>>,
}

impl ChannelLink {
    /// Segments queued on this endpoint's inbound channels, not yet
    /// received — the live depth of the pair's shuffle/handoff buffers.
    pub fn backlog(&self) -> u64 {
        self.recvs.iter().map(|rx| rx.len() as u64).sum()
    }
}

impl Transport for ChannelLink {
    fn send(&mut self, dest: usize, seg: Bytes) -> Result<(), Closed> {
        // Blocks while the bounded buffer is full; errs only when the
        // consumer's endpoint was dropped (worker exit or teardown).
        self.sends[dest].send(seg).map_err(|_| Closed)
    }
    fn recv(&mut self, src: usize) -> Result<Bytes, Closed> {
        // Crossbeam drains buffered segments before reporting
        // disconnection, matching the trait's drain-first contract.
        self.recvs[src].recv().map_err(|_| Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn per_link_fifo_and_self_send() {
        let mut links = ChannelMesh::links(2, 1);
        let mut l1 = links.pop().unwrap();
        let mut l0 = links.pop().unwrap();
        thread::scope(|s| {
            s.spawn(|| {
                l1.send(0, Bytes::from_static(b"a")).unwrap();
                l1.send(0, Bytes::from_static(b"b")).unwrap();
                l1.send(1, Bytes::from_static(b"self")).unwrap();
                assert_eq!(l1.recv(1).unwrap().as_slice(), b"self");
            });
            assert_eq!(l0.recv(1).unwrap().as_slice(), b"a");
            assert_eq!(l0.recv(1).unwrap().as_slice(), b"b");
        });
    }

    #[test]
    fn send_blocks_at_capacity() {
        let mut links = ChannelMesh::links(2, 1);
        let mut l1 = links.pop().unwrap();
        let mut l0 = links.pop().unwrap();
        let second_sent = AtomicBool::new(false);
        thread::scope(|s| {
            let second_sent = &second_sent;
            s.spawn(move || {
                l0.send(1, Bytes::from_static(b"one")).unwrap();
                // This second send must block until the consumer pops.
                l0.send(1, Bytes::from_static(b"two")).unwrap();
                second_sent.store(true, Ordering::Release);
            });
            thread::sleep(Duration::from_millis(100));
            assert!(
                !second_sent.load(Ordering::Acquire),
                "second send should have blocked at buffer capacity 1"
            );
            assert_eq!(l1.recv(0).unwrap().as_slice(), b"one");
            assert_eq!(l1.recv(0).unwrap().as_slice(), b"two");
        });
        assert!(second_sent.load(Ordering::Acquire));
    }

    #[test]
    fn drains_in_flight_before_reporting_closed() {
        let mut links = ChannelMesh::links(2, 1);
        let mut l1 = links.pop().unwrap();
        let mut l0 = links.pop().unwrap();
        l0.send(1, Bytes::from_static(b"last")).unwrap();
        drop(l0);
        assert_eq!(l1.recv(0).unwrap().as_slice(), b"last");
        assert!(matches!(l1.recv(0), Err(Closed)));
        assert!(matches!(l1.send(0, Bytes::new()), Err(Closed)));
    }
}
