//! Worker-process side of the TCP transport.
//!
//! Each worker process holds exactly one persistent connection to the
//! coordinator for the lifetime of its generation. A dedicated reader
//! thread demultiplexes incoming frames into shared state (per-source
//! segment queues, credit counters, the gathered parts of the current
//! collective round, RPC replies); the pair's single compute thread
//! writes frames directly — no writer lock is needed because nothing
//! else writes.
//!
//! Backpressure: a segment may only be sent while the sender holds a
//! credit for the destination link. Credits start at the channel
//! backend's buffer size and are returned by the consumer (via the
//! coordinator) when it pops a segment, so the number of unconsumed
//! in-flight segments per link is bounded exactly like the bounded
//! crossbeam channel it replaces.
//!
//! The own link — this pair's segment for its own reduce task — has
//! both ends in this process, so it is the same queue under the same
//! credit with no frames at all: `send(own)` pushes onto the queue the
//! reader thread would have filled and `recv(own)` returns the credit
//! itself. The coordinator only ever sees traffic between processes.
//!
//! Every frame is written from its parts ([`ToCoord::parts`]): a
//! segment goes onto the socket from the allocation the shuffle kernel
//! encoded it into, never copied into a message first. Once written,
//! that allocation is ours alone again, and it becomes the reader's
//! spare ([`FrameReader::read_into`]): the next large frame from the
//! coordinator — typically the peer's segment of the next round — is
//! read into it rather than into fresh memory the allocator must fault
//! in. The connection keeps at most two such buffers (one with the
//! reader, one waiting for it) and drops them with itself.
//!
//! Any reader-side error (EOF, truncation, a `Poison` frame, a segment
//! or credit naming a pair the job does not have, or naming this pair
//! itself — its own link never crosses the wire) marks the connection
//! poisoned and wakes every waiter; blocked operations then
//! fail with [`Closed`], which the pair loop surfaces as an aborted
//! generation — the same cascade the thread backend gets from
//! channel disconnects and the poisoned barrier.

use crate::frame::{reclaim, FrameReader, FrameWriter};
use crate::policy::NetPolicy;
use crate::proto::{PairOutcome, ToCoord, ToWorker, WorkerSetup};
use crate::transport::{Closed, Transport};
use crate::NetError;
use bytes::Bytes;
use imr_records::Codec;
use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

struct ConnState {
    /// Per-source queues of received segments (shuffle or delta).
    queues: Vec<VecDeque<Bytes>>,
    /// Send credits per destination link.
    credits: Vec<usize>,
    /// Every pair's part of the all-gather round we are waiting on
    /// (pairs strictly alternate contribute/collect, so one slot is
    /// sufficient).
    gathered: Option<Vec<Bytes>>,
    part: Option<Result<Bytes, String>>,
    /// A sent segment's buffer, waiting to become the reader's spare.
    spare: Option<Vec<u8>>,
    poisoned: bool,
    /// The coordinator asked for an orderly shutdown ([`ToWorker::Drain`]).
    /// Implies `poisoned` so every waiter unwinds, but lets the worker
    /// exit successfully instead of reporting an abort.
    drained: bool,
}

struct ConnShared {
    state: Mutex<ConnState>,
    cv: Condvar,
}

/// A worker's persistent connection to the coordinator.
pub struct WorkerConn {
    /// The pair this process runs: the one link that has both ends here.
    pair: usize,
    /// Credits per link when nothing is in flight.
    allowance: usize,
    stream: TcpStream,
    writer: FrameWriter<BufWriter<TcpStream>>,
    shared: Arc<ConnShared>,
    reader: Option<JoinHandle<()>>,
}

impl WorkerConn {
    /// Connect to the coordinator, introduce ourselves as `pair` of
    /// `generation` running `job`, and wait for the [`WorkerSetup`]
    /// frame. `buffer` is the per-link credit allowance (the channel
    /// backend's buffer size).
    ///
    /// The TCP connect itself is retried with the policy's jittered
    /// exponential backoff (salted by pair and generation so a respawned
    /// fleet de-synchronizes) until `retry_budget` retries or the
    /// `connect_timeout` window is spent.
    pub fn connect_with_policy(
        addr: impl ToSocketAddrs,
        pair: usize,
        generation: u64,
        job: u64,
        buffer: usize,
        policy: &NetPolicy,
    ) -> Result<(WorkerConn, WorkerSetup), NetError> {
        let salt = (pair as u64) ^ generation.rotate_left(32);
        let started = Instant::now();
        let mut attempt = 0u32;
        let stream = loop {
            match TcpStream::connect(&addr) {
                Ok(stream) => break stream,
                Err(e) => {
                    attempt += 1;
                    if attempt > policy.retry_budget || started.elapsed() >= policy.connect_timeout
                    {
                        return Err(NetError::Io(format!(
                            "connect retry budget ({}) exhausted: {e}",
                            policy.retry_budget
                        )));
                    }
                    std::thread::sleep(policy.backoff_delay(attempt - 1, salt));
                }
            }
        };
        stream.set_nodelay(true)?;
        // The preamble goes out buffered with the hello.
        let mut writer = FrameWriter::new(BufWriter::new(stream.try_clone()?))?;
        let hello = ToCoord::Hello {
            pair,
            generation,
            job,
        };
        writer.write_parts(&hello.parts())?;
        writer.get_mut().flush()?;

        // The setup frame always comes first; guard the handshake with
        // a timeout so a wedged coordinator cannot hang us forever. The
        // setup only arrives once *all* workers have connected, so the
        // wait shares the coordinator's accept window.
        let read_half = stream.try_clone()?;
        read_half.set_read_timeout(Some(policy.connect_timeout))?;
        let mut reader = FrameReader::new(read_half);
        reader.expect_preamble()?;
        let mut first = reader.read()?;
        reader.get_mut().set_read_timeout(None)?;
        let setup = match ToWorker::decode(&mut first)? {
            ToWorker::Setup(setup) => *setup,
            other => {
                return Err(NetError::Protocol(format!(
                    "expected setup frame, got {other:?}"
                )))
            }
        };

        let n = setup.cfg.n;
        let shared = Arc::new(ConnShared {
            state: Mutex::new(ConnState {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                credits: vec![buffer; n],
                gathered: None,
                part: None,
                spare: None,
                poisoned: false,
                drained: false,
            }),
            cv: Condvar::new(),
        });
        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::spawn(move || reader_loop(reader, pair, reader_shared));
        Ok((
            WorkerConn {
                pair,
                allowance: buffer,
                stream,
                writer,
                shared,
                reader: Some(reader),
            },
            setup,
        ))
    }

    fn write(&mut self, msg: &ToCoord) -> Result<(), Closed> {
        self.writer
            .write_parts(&msg.parts())
            .and_then(|()| self.writer.get_mut().flush().map_err(NetError::from))
            .map_err(|_| Closed)
    }

    fn lock(&self) -> MutexGuard<'_, ConnState> {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Block until `f` yields a value; fail with [`Closed`] if the
    /// connection is poisoned and `f` still has nothing (so already
    /// delivered data is always drained first).
    fn wait_until<T>(&self, mut f: impl FnMut(&mut ConnState) -> Option<T>) -> Result<T, Closed> {
        let mut state = self.lock();
        loop {
            if let Some(value) = f(&mut state) {
                return Ok(value);
            }
            if state.poisoned {
                return Err(Closed);
            }
            state = self
                .shared
                .cv
                .wait(state)
                .unwrap_or_else(|poison| poison.into_inner());
        }
    }

    /// Has the coordinator poisoned or dropped the connection?
    pub fn is_poisoned(&self) -> bool {
        self.lock().poisoned
    }

    /// Has the coordinator asked for an orderly shutdown (a
    /// [`ToWorker::Drain`] frame, or a clean disconnect after one)?
    pub fn is_drained(&self) -> bool {
        self.lock().drained
    }

    /// Park until the connection is poisoned (scripted hang).
    pub fn block_until_poisoned(&self) {
        let _ = self.wait_until(|_| None::<()>);
    }

    /// The one collective: contribute `mine` and receive every pair's
    /// contribution of this round in task order. Like the thread
    /// backend's `FaultBarrier`, a round that was already won still
    /// counts even if poison lands afterwards.
    pub fn allgather(&mut self, mine: Bytes) -> Result<Vec<Bytes>, Closed> {
        self.write(&ToCoord::Gather { part: mine })?;
        self.wait_until(|s| s.gathered.take())
    }

    /// Read DFS file `<dir>/part-<part>` through the coordinator.
    pub fn read_part(&mut self, dir: &str, part: usize) -> Result<Bytes, NetError> {
        self.write(&ToCoord::ReadPart {
            dir: dir.to_string(),
            part,
        })
        .map_err(|_| NetError::Closed)?;
        match self.wait_until(|s| s.part.take()) {
            Ok(Ok(payload)) => Ok(payload),
            Ok(Err(message)) => Err(NetError::Protocol(message)),
            Err(Closed) => Err(NetError::Closed),
        }
    }

    /// Ship the checkpoint body of `iteration`; the coordinator
    /// persists it atomically next to the distance history it recorded
    /// from our heartbeats. Fire-and-forget: in-order delivery means the
    /// coordinator sees it after the beat of `iteration` and before our
    /// EOF, so its record of our checkpoint progress is authoritative
    /// even if we die right after sending.
    pub fn write_checkpoint(&mut self, iteration: usize, payload: Bytes) -> Result<(), Closed> {
        self.write(&ToCoord::Ckpt { iteration, payload })
    }

    /// Publish a progress report: the heartbeat for the coordinator-side
    /// progress board plus the counter increments (`counts`, in
    /// `MetricsSnapshot::values()` order) and the encoded trace events
    /// (`events`, see `imr_trace::encode_events`) since the previous
    /// report. Best-effort: a report lost on a dying connection is
    /// acceptable, and in-order delivery means one sent before the
    /// outcome frame always precedes it.
    pub fn beat(
        &mut self,
        iteration: usize,
        busy_secs: f64,
        d: f64,
        has_prev: bool,
        counts: Vec<u64>,
        events: Bytes,
    ) {
        let _ = self.write(&ToCoord::Beat {
            iteration,
            busy_secs,
            d,
            has_prev,
            counts,
            events,
        });
    }

    /// Report our terminal status. Best-effort once poisoned.
    ///
    /// First waits until the credit of every segment this pair sent is
    /// back (peers take all of them — send-all / recv-all — unless the
    /// generation is poisoned, which ends the wait). Past that point
    /// the coordinator has nothing left to forward here, so the socket
    /// closes with no unread data. Closing with unread data resets the
    /// connection instead, and a reset discards the outcome frame still
    /// queued behind it: the coordinator would take a finished worker
    /// for a vanished one and replay the run.
    pub fn send_outcome(&mut self, outcome: Result<PairOutcome, String>) {
        let allowance = self.allowance;
        let all_back = |s: &mut ConnState| s.credits.iter().all(|&c| c == allowance).then_some(());
        let _ = self.wait_until(all_back);
        let _ = self.write(&ToCoord::Outcome(outcome));
    }
}

impl Transport for WorkerConn {
    fn send(&mut self, dest: usize, seg: Bytes) -> Result<(), Closed> {
        self.wait_until(|s| {
            if s.credits[dest] > 0 {
                s.credits[dest] -= 1;
                Some(())
            } else {
                None
            }
        })?;
        if dest == self.pair {
            // Producer and consumer are this process: the segment goes
            // straight onto the queue the reader thread would have put
            // it on, under the same credit.
            self.lock().queues[dest].push_back(seg);
            return Ok(());
        }
        self.write(&ToCoord::Segment {
            dest,
            payload: seg.clone(),
        })?;
        // Written, and the message gone with its handle: the segment's
        // allocation is ours alone again, and takes the reader's next
        // large frame.
        if let Some(buf) = reclaim(seg) {
            self.lock().spare.get_or_insert(buf);
        }
        Ok(())
    }

    fn recv(&mut self, src: usize) -> Result<Bytes, Closed> {
        let own = src == self.pair;
        let seg = self.wait_until(|s| {
            let seg = s.queues[src].pop_front()?;
            if own {
                s.credits[src] += 1;
            }
            Some(seg)
        })?;
        if !own {
            // Tell the producer (via the coordinator) that a buffer
            // slot freed up.
            self.write(&ToCoord::Credit { src })?;
        }
        Ok(seg)
    }
}

impl Drop for WorkerConn {
    fn drop(&mut self) {
        let _ = self.writer.get_mut().flush();
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

fn reader_loop(mut reader: FrameReader<TcpStream>, pair: usize, shared: Arc<ConnShared>) {
    let mut spare = None;
    while let Ok(msg) = reader
        .read_into(&mut spare)
        .and_then(|mut b| Ok(ToWorker::decode(&mut b)?))
    {
        let mut state = shared
            .state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        match msg {
            // A pair index outside the job cannot be delivered, and
            // dropping it would leave its consumer (or producer) waiting
            // for ever: the connection is unusable. So is one naming
            // this pair: its own link never crosses the wire, and taking
            // the frame would feed the own queue a stray segment or mint
            // an extra own-link credit.
            ToWorker::Segment { src, payload } => match state.queues.get_mut(src) {
                Some(queue) if src != pair => queue.push_back(payload),
                _ => state.poisoned = true,
            },
            ToWorker::Credit { dest } => match state.credits.get_mut(dest) {
                Some(credit) if dest != pair => *credit += 1,
                _ => state.poisoned = true,
            },
            ToWorker::GatherAll { parts } => state.gathered = Some(parts),
            ToWorker::PartData { payload } => state.part = Some(Ok(payload)),
            ToWorker::PartErr { message } => state.part = Some(Err(message)),
            ToWorker::Poison => {
                state.poisoned = true;
                // Keep reading so the coordinator's writes never block
                // on a full socket buffer during teardown.
            }
            ToWorker::Drain => {
                state.drained = true;
                state.poisoned = true;
            }
            ToWorker::Setup(_) => {}
        }
        if spare.is_none() {
            spare = state.spare.take();
        }
        drop(state);
        shared.cv.notify_all();
    }
    let mut state = shared
        .state
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    state.poisoned = true;
    drop(state);
    shared.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::SPARE_FLOOR;
    use crate::proto::sample_setup;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;
    use std::time::Duration;

    /// The coordinator's half of a scripted connection.
    struct Scripted {
        reader: FrameReader<TcpStream>,
        writer: FrameWriter<TcpStream>,
    }

    impl Scripted {
        fn send(&mut self, msg: &ToWorker) {
            self.writer.write(&msg.to_bytes()).unwrap();
        }

        /// The next frame the worker wrote, or `None` at a clean EOF.
        fn next(&mut self) -> Option<ToCoord> {
            match self.reader.read() {
                Ok(mut frame) => Some(ToCoord::decode(&mut frame).unwrap()),
                Err(NetError::Closed) => None,
                Err(e) => panic!("scripted coordinator read failed: {e}"),
            }
        }
    }

    /// Connects a [`WorkerConn`] for `pair` of an `n`-pair job to an
    /// in-process scripted coordinator, which has consumed the hello
    /// and answered with the setup frame.
    fn connect(pair: usize, n: usize, buffer: usize) -> (WorkerConn, Scripted) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let coordinator = thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            // A regression must fail the test, not hang it.
            sock.set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            let mut reader = FrameReader::new(sock.try_clone().unwrap());
            let mut writer = FrameWriter::new(sock).unwrap();
            reader.expect_preamble().unwrap();
            let mut hello = reader.read().unwrap();
            assert_eq!(
                ToCoord::decode(&mut hello).unwrap(),
                ToCoord::Hello {
                    pair,
                    generation: 1,
                    job: 0
                }
            );
            let mut setup = sample_setup();
            setup.cfg.n = n;
            writer
                .write(&ToWorker::Setup(Box::new(setup)).to_bytes())
                .unwrap();
            Scripted { reader, writer }
        });
        let (conn, setup) =
            WorkerConn::connect_with_policy(addr, pair, 1, 0, buffer, &NetPolicy::default())
                .unwrap();
        assert_eq!(setup.cfg.n, n);
        (conn, coordinator.join().unwrap())
    }

    fn seg(tag: u8) -> Bytes {
        Bytes::from(vec![tag; 5])
    }

    #[test]
    fn the_own_link_puts_no_frame_on_the_socket() {
        let (own, peer) = (0, 1);
        let (mut conn, mut coord) = connect(own, 2, 1);
        // With one credit, each round only works if `recv` returned the
        // credit `send` took — locally, since the coordinator is silent.
        for round in 0..3 {
            conn.send(own, seg(round)).unwrap();
            assert_eq!(conn.recv(own).unwrap(), seg(round));
        }
        conn.send(peer, seg(9)).unwrap();
        drop(conn);
        assert_eq!(
            coord.next(),
            Some(ToCoord::Segment {
                dest: peer,
                payload: seg(9)
            })
        );
        assert_eq!(coord.next(), None, "one frame after the hello, no more");
    }

    #[test]
    fn the_own_link_is_fifo() {
        let (mut conn, _coord) = connect(1, 2, 2);
        conn.send(1, seg(1)).unwrap();
        conn.send(1, seg(2)).unwrap();
        assert_eq!(conn.recv(1).unwrap(), seg(1));
        conn.send(1, seg(3)).unwrap();
        assert_eq!(conn.recv(1).unwrap(), seg(2));
        assert_eq!(conn.recv(1).unwrap(), seg(3));
    }

    #[test]
    fn an_own_send_past_the_credit_blocks_until_poison_and_keeps_what_was_sent() {
        let (mut conn, mut coord) = connect(0, 2, 1);
        conn.send(0, seg(1)).unwrap();
        let returned = AtomicBool::new(false);
        thread::scope(|s| {
            let blocked = s.spawn(|| {
                let result = conn.send(0, seg(2));
                returned.store(true, Ordering::Release);
                result
            });
            thread::sleep(Duration::from_millis(100));
            assert!(
                !returned.load(Ordering::Acquire),
                "a second un-received own send must wait for its credit"
            );
            coord.send(&ToWorker::Poison);
            assert_eq!(blocked.join().unwrap(), Err(Closed));
        });
        // Drain-first: the segment that was sent is still delivered.
        assert_eq!(conn.recv(0).unwrap(), seg(1));
        assert_eq!(conn.recv(0), Err(Closed));
    }

    #[test]
    fn an_outcome_waits_for_the_credits_of_the_segments_sent() {
        let (own, peer) = (0, 1);
        let (mut conn, mut coord) = connect(own, 2, 2);
        conn.send(peer, seg(1)).unwrap();
        let finished = || {
            Ok(PairOutcome::Finished {
                final_data: seg(2),
                iterations: 1,
            })
        };
        let sent = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                conn.send_outcome(finished());
                sent.store(true, Ordering::Release);
            });
            assert!(matches!(coord.next(), Some(ToCoord::Segment { .. })));
            thread::sleep(Duration::from_millis(100));
            assert!(
                !sent.load(Ordering::Acquire),
                "the peer has not taken the segment: its credit is still on its way here"
            );
            coord.send(&ToWorker::Credit { dest: peer });
            assert_eq!(coord.next(), Some(ToCoord::Outcome(finished())));
        });
        drop(conn);
        assert_eq!(coord.next(), None);

        // A poisoned generation returns no credits: the outcome goes out.
        let (mut conn, mut coord) = connect(own, 2, 2);
        conn.send(peer, seg(1)).unwrap();
        coord.send(&ToWorker::Poison);
        conn.send_outcome(Ok(PairOutcome::Aborted));
        assert!(matches!(coord.next(), Some(ToCoord::Segment { .. })));
        assert_eq!(
            coord.next(),
            Some(ToCoord::Outcome(Ok(PairOutcome::Aborted)))
        );
    }

    #[test]
    fn a_pair_index_outside_the_job_poisons_the_connection() {
        for rogue in [
            ToWorker::Segment {
                src: 2,
                payload: seg(7),
            },
            ToWorker::Credit { dest: 2 },
        ] {
            let (mut conn, mut coord) = connect(0, 2, 1);
            coord.send(&rogue);
            // Nothing will ever arrive from pair 1: without the poison
            // this waits for ever.
            assert_eq!(conn.recv(1), Err(Closed), "after {rogue:?}");
            assert!(conn.is_poisoned());
        }
    }

    #[test]
    fn a_frame_naming_this_pair_poisons_the_connection() {
        for rogue in [
            ToWorker::Segment {
                src: 0,
                payload: seg(7),
            },
            ToWorker::Credit { dest: 0 },
        ] {
            let (mut conn, mut coord) = connect(0, 2, 1);
            coord.send(&rogue);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !conn.is_poisoned() && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(5));
            }
            assert!(conn.is_poisoned(), "{rogue:?} was taken");
            // Neither a stray segment on the own queue nor an extra
            // own-link credit: one send fits the one credit, no more.
            conn.send(0, seg(1)).unwrap();
            assert_eq!(conn.send(0, seg(2)), Err(Closed), "after {rogue:?}");
            assert_eq!(conn.recv(0).unwrap(), seg(1));
            assert_eq!(conn.recv(0), Err(Closed), "after {rogue:?}");
        }
    }

    #[test]
    fn the_next_large_frame_lands_in_the_segment_last_sent() {
        let (own, peer) = (0, 1);
        let (mut conn, mut coord) = connect(own, 2, 1);
        let sent = Bytes::from(vec![1u8; 2 * SPARE_FLOOR]);
        let at = sent.as_ptr();
        conn.send(peer, sent).unwrap();
        assert!(matches!(coord.next(), Some(ToCoord::Segment { .. })));
        // One round: the peer took the segment, its credit comes back.
        coord.send(&ToWorker::Credit { dest: peer });
        let reply = Bytes::from(vec![2u8; 2 * SPARE_FLOOR - 16]);
        coord.send(&ToWorker::Segment {
            src: peer,
            payload: reply.clone(),
        });
        let got = conn.recv(peer).unwrap();
        assert_eq!(got, reply);
        // The frame is read whole into the spare; the payload follows
        // the head: tag, source and a three-byte length.
        assert_eq!(got.as_ptr(), at.wrapping_add(5), "not the sent allocation");
    }
}
