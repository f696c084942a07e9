//! Hardened length-prefixed binary framing over any byte stream.
//!
//! Each direction of a connection starts with an 8-byte preamble —
//! the magic `b"IMRW"` followed by the big-endian [`WIRE_VERSION`] —
//! so mismatched peers fail fast and loudly instead of decoding
//! garbage: a reader facing a pre-preamble (v1) peer sees a bad magic
//! and one facing another version of the message set sees both version
//! numbers ([`NetError::Version`] either way), while a v1 reader
//! facing this preamble reads the magic as an impossible frame length
//! and rejects it before any allocation. The framing itself has not
//! changed since v2; the version moves whenever `proto.rs` retires or
//! reshapes a message (v3: one gather, one segment class, counts in
//! `Beat`, nested `WorkerSetup`; v4: `Ckpt` without history, `Outcome`
//! carrying the pair loop's own result; v5: trace events in `Beat`, no
//! warm-start `Patch` / `PatchStats`; v6: `PairCfg` carries one
//! `PairMode` instead of mode flags; v7: `PairMode::Delta` carries a
//! `u32` share of the pending keys instead of a key count).
//!
//! Frames are `[u32 BE payload length][u32 BE CRC32][payload]`. The
//! CRC covers the direction's implicit frame sequence number (a `u64`
//! starting at 0 after the preamble, never on the wire) followed by
//! the payload, so *any* single-frame damage is a typed, prompt
//! failure on the receiver:
//!
//! * a flipped bit in CRC or payload → CRC mismatch →
//!   [`NetError::Corrupt`];
//! * a dropped frame → the next frame arrives with a future sequence
//!   number → CRC mismatch → [`NetError::Corrupt`];
//! * a duplicated frame → the second copy carries a stale sequence
//!   number → CRC mismatch → [`NetError::Corrupt`];
//! * a frame length above [`MAX_FRAME`] is rejected before any
//!   allocation, so a corrupt prefix cannot balloon memory;
//! * EOF exactly at a frame boundary is a clean [`NetError::Closed`];
//!   EOF inside the header or body is reported as truncation.
//!
//! A corrupt connection is torn down by the caller and flows into the
//! supervisor's reconnect-with-replay path; framing never resyncs
//! in-stream.
//!
//! No payload is copied on its way through: a message is framed from
//! its [`Parts`] — scalar fields encoded into a small head, bulk bytes
//! borrowed where they lie — with one CRC streamed over the pieces, and
//! a frame of at least [`SPARE_FLOOR`] bytes is read straight into a
//! recycled buffer ([`FrameReader::read_into`], fed by [`reclaim`])
//! instead of memory just handed back to the OS.

use crate::crc::Crc32;
use crate::NetError;
use bytes::{Bytes, BytesMut};
use imr_records::Codec;
use std::io::{ErrorKind, Read, Write};

/// Maximum payload size accepted on the wire (64 MiB).
pub const MAX_FRAME: usize = 1 << 26;

/// Per-direction stream magic, sent once before any frame.
pub const WIRE_MAGIC: [u8; 4] = *b"IMRW";

/// Wire protocol version negotiated by the preamble.
pub const WIRE_VERSION: u32 = 7;

/// Bytes of the per-direction preamble (magic + version).
pub const PREAMBLE_LEN: usize = 8;

/// Bytes of the per-frame header (length + CRC).
pub const HEADER_LEN: usize = 8;

/// The smallest payload [`FrameReader::read_into`] reads into a spare
/// buffer. Anything smaller gets a buffer of its own: a heartbeat must
/// never pin a multi-megabyte spare.
pub const SPARE_FLOOR: usize = 64 << 10;

/// The 8-byte preamble a sender opens its direction with.
pub fn preamble() -> [u8; PREAMBLE_LEN] {
    let mut p = [0u8; PREAMBLE_LEN];
    p[..4].copy_from_slice(&WIRE_MAGIC);
    p[4..].copy_from_slice(&WIRE_VERSION.to_be_bytes());
    p
}

/// The CRC a frame with sequence number `seq` and `payload` carries.
pub fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    pieces_crc(seq, &[payload])
}

/// [`frame_crc`] of the payload the concatenated `pieces` form.
fn pieces_crc(seq: u64, pieces: &[&[u8]]) -> u32 {
    pieces
        .iter()
        .fold(Crc32::new().update(&seq.to_be_bytes()), |crc, p| {
            crc.update(p)
        })
        .finish()
}

/// One frame's payload in pieces: the encoded scalar fields in a head,
/// and each bulk field borrowed, spliced in where its length prefix in
/// the head ends. [`FrameWriter::write_parts`] sends exactly the bytes
/// [`Parts::concat`] would hold, without building them.
#[derive(Default)]
pub struct Parts<'a> {
    head: BytesMut,
    /// `(head offset, bytes)`, in offset order.
    bulk: Vec<(usize, &'a [u8])>,
}

impl<'a> Parts<'a> {
    /// Appends `value`'s encoding to the head.
    pub fn put<T: Codec>(&mut self, value: &T) -> &mut Self {
        value.encode(&mut self.head);
        self
    }

    /// Appends `bytes` as a `Bytes` field — its length into the head,
    /// the bytes themselves by reference.
    pub fn bulk(&mut self, bytes: &'a [u8]) -> &mut Self {
        bytes.len().encode(&mut self.head);
        self.bulk.push((self.head.len(), bytes));
        self
    }

    /// Payload length.
    pub fn len(&self) -> usize {
        self.head.len() + self.bulk.iter().map(|(_, b)| b.len()).sum::<usize>()
    }

    /// True for an empty payload.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload's pieces in wire order (empty ones left out).
    pub fn pieces(&self) -> Vec<&[u8]> {
        let mut pieces = Vec::with_capacity(2 * self.bulk.len() + 1);
        let mut from = 0;
        for &(at, bytes) in &self.bulk {
            pieces.push(&self.head[from..at]);
            pieces.push(bytes);
            from = at;
        }
        pieces.push(&self.head[from..]);
        pieces.retain(|p| !p.is_empty());
        pieces
    }

    /// The payload as one buffer — a copy only a chaos-damaged frame
    /// needs.
    pub fn concat(&self) -> Vec<u8> {
        self.pieces().concat()
    }
}

/// The allocation behind `bytes`, emptied, as a spare for
/// [`FrameReader::read_into`] — if no other handle shares it and it is
/// large enough to take a frame a spare is offered for.
pub fn reclaim(mut bytes: Bytes) -> Option<Vec<u8>> {
    bytes.clear();
    let buf = Vec::from(bytes.try_into_mut().ok()?);
    (buf.capacity() >= SPARE_FLOOR).then_some(buf)
}

/// Encodes one complete frame (header + payload) for sequence number
/// `seq`. The chaos injector uses this to damage an encoded frame
/// before writing it raw; the normal path writes header and payload
/// separately without the extra copy.
pub fn encode_frame(seq: u64, payload: &[u8]) -> Result<Vec<u8>, NetError> {
    if payload.len() > MAX_FRAME {
        return Err(NetError::FrameTooLarge(payload.len()));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&frame_crc(seq, payload).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// The sending half of one direction: writes the preamble up front,
/// then frames with consecutive implicit sequence numbers.
pub struct FrameWriter<W: Write> {
    inner: W,
    seq: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `inner`, writing (not flushing) the preamble immediately.
    pub fn new(mut inner: W) -> Result<FrameWriter<W>, NetError> {
        inner.write_all(&preamble())?;
        Ok(FrameWriter { inner, seq: 0 })
    }

    /// Writes one frame. The caller flushes.
    pub fn write(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.write_pieces(&[payload])
    }

    /// Writes one frame from its parts, with no copy of their bytes.
    /// The caller flushes.
    pub fn write_parts(&mut self, parts: &Parts<'_>) -> Result<(), NetError> {
        self.write_pieces(&parts.pieces())
    }

    fn write_pieces(&mut self, pieces: &[&[u8]]) -> Result<(), NetError> {
        let len: usize = pieces.iter().map(|p| p.len()).sum();
        if len > MAX_FRAME {
            return Err(NetError::FrameTooLarge(len));
        }
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&(len as u32).to_be_bytes());
        header[4..].copy_from_slice(&pieces_crc(self.seq, pieces).to_be_bytes());
        self.inner.write_all(&header)?;
        for piece in pieces {
            self.inner.write_all(piece)?;
        }
        self.seq += 1;
        Ok(())
    }

    /// Encodes the next frame without writing it, advancing the
    /// sequence number as if it had been sent. The chaos injector
    /// mangles these bytes and writes them through
    /// [`FrameWriter::get_mut`].
    pub fn encode_next(&mut self, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let bytes = encode_frame(self.seq, payload)?;
        self.seq += 1;
        Ok(bytes)
    }

    /// Advances the sequence number without writing anything — a
    /// chaos-injected silent drop. The receiver detects the gap on
    /// the next delivered frame.
    pub fn skip(&mut self) {
        self.seq += 1;
    }

    /// Next frame's sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The wrapped writer (for flushing or raw chaos writes).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

/// The receiving half of one direction: checks the preamble, then
/// reads frames and verifies each against the implicit sequence
/// number.
pub struct FrameReader<R: Read> {
    inner: R,
    seq: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`; call [`FrameReader::expect_preamble`] before the
    /// first [`FrameReader::read`].
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader { inner, seq: 0 }
    }

    /// Rebuilds a reader from [`FrameReader::into_parts`], e.g. after
    /// re-wrapping the underlying stream.
    pub fn from_parts(inner: R, seq: u64) -> FrameReader<R> {
        FrameReader { inner, seq }
    }

    /// The wrapped reader and the next expected sequence number.
    pub fn into_parts(self) -> (R, u64) {
        (self.inner, self.seq)
    }

    /// The wrapped reader.
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// The wrapped reader, mutably (e.g. to adjust socket timeouts).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Reads and validates the peer's preamble. A wrong magic is a
    /// [`NetError::Version`] (the peer speaks a pre-preamble protocol
    /// or something else entirely); a right magic with a wrong
    /// version reports both versions.
    pub fn expect_preamble(&mut self) -> Result<(), NetError> {
        let mut p = [0u8; PREAMBLE_LEN];
        read_full(&mut self.inner, &mut p, "stream preamble")?;
        if p[..4] != WIRE_MAGIC {
            return Err(NetError::Version(format!(
                "bad wire magic {:02x?} (expected {:02x?}): peer speaks an \
                 incompatible or pre-v2 protocol",
                &p[..4],
                WIRE_MAGIC
            )));
        }
        let version = u32::from_be_bytes([p[4], p[5], p[6], p[7]]);
        if version != WIRE_VERSION {
            return Err(NetError::Version(format!(
                "peer speaks wire version {version}, this build speaks {WIRE_VERSION}"
            )));
        }
        Ok(())
    }

    /// Reads one frame, blocking until it is complete, and verifies
    /// its CRC against the expected sequence number.
    pub fn read(&mut self) -> Result<Bytes, NetError> {
        self.read_into(&mut None)
    }

    /// [`FrameReader::read`], with a spare buffer on offer: a payload of
    /// at least [`SPARE_FLOOR`] bytes takes `spare`, leaving it `None`.
    /// It lands in the spare when it fits; a spare too small is dropped
    /// before the frame's own buffer is allocated, so the allocator can
    /// hand its memory straight back — a peer's segment is often a few
    /// bytes longer than the sent one whose buffer is on offer. A
    /// smaller frame gets a buffer of its own and leaves `spare` alone.
    /// Either way the body is read straight into spare capacity, never
    /// zero-filled first.
    pub fn read_into(&mut self, spare: &mut Option<Vec<u8>>) -> Result<Bytes, NetError> {
        let mut header = [0u8; HEADER_LEN];
        read_full(&mut self.inner, &mut header, "frame header")?;
        let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let wire_crc = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
        if len > MAX_FRAME {
            return Err(NetError::FrameTooLarge(len));
        }
        let mut payload = match spare.take_if(|_| len >= SPARE_FLOOR) {
            Some(mut buf) if buf.capacity() >= len => {
                buf.clear();
                buf
            }
            short => {
                // Released first, so its memory can serve this frame.
                drop(short);
                Vec::with_capacity(len)
            }
        };
        (&mut self.inner)
            .take(len as u64)
            .read_to_end(&mut payload)
            .map_err(|e| NetError::Io(e.to_string()))?;
        if payload.len() < len {
            return Err(NetError::Io(
                "connection truncated inside frame body".into(),
            ));
        }
        let seq = self.seq;
        if frame_crc(seq, &payload) != wire_crc {
            return Err(NetError::Corrupt { seq });
        }
        self.seq += 1;
        Ok(Bytes::from(payload))
    }
}

/// Fills `buf` completely. EOF before the first byte is a clean
/// [`NetError::Closed`]; EOF mid-way is truncation named after `what`.
fn read_full(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Err(NetError::Closed),
            Ok(0) => {
                return Err(NetError::Io(format!("connection truncated inside {what}")));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A connected writer/reader pair over an in-memory buffer.
    fn round_trip_setup(payloads: &[&[u8]]) -> FrameReader<Cursor<Vec<u8>>> {
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        for p in payloads {
            w.write(p).unwrap();
        }
        let buf = std::mem::take(w.get_mut());
        let mut r = FrameReader::new(Cursor::new(buf));
        r.expect_preamble().unwrap();
        r
    }

    #[test]
    fn round_trip() {
        let mut r = round_trip_setup(&[b"hello", b"", &[0xAB; 1000]]);
        assert_eq!(r.read().unwrap().as_slice(), b"hello");
        assert_eq!(r.read().unwrap().as_slice(), b"");
        assert_eq!(r.read().unwrap().as_slice(), &[0xAB; 1000][..]);
        assert!(matches!(r.read(), Err(NetError::Closed)));
    }

    #[test]
    fn v1_style_stream_fails_the_version_check() {
        // A v1 peer opens with a length prefix, not the magic.
        let mut buf = Vec::new();
        buf.extend_from_slice(&5u32.to_be_bytes());
        buf.extend_from_slice(b"hello");
        let mut r = FrameReader::new(Cursor::new(buf));
        match r.expect_preamble() {
            Err(NetError::Version(msg)) => assert!(msg.contains("magic")),
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_reports_both_versions() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&WIRE_MAGIC);
        buf.extend_from_slice(&99u32.to_be_bytes());
        let mut r = FrameReader::new(Cursor::new(buf));
        match r.expect_preamble() {
            Err(NetError::Version(msg)) => {
                assert!(
                    msg.contains("99") && msg.contains(&WIRE_VERSION.to_string()),
                    "got: {msg}"
                )
            }
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn preamble_read_as_v1_length_is_rejected_before_allocation() {
        // The other direction of the cross-version handshake: a v1
        // reader interprets the magic as a frame length far above
        // MAX_FRAME, so it fails fast without allocating.
        let as_len = u32::from_be_bytes(WIRE_MAGIC) as usize;
        assert!(as_len > MAX_FRAME);
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        w.write(b"x").unwrap();
        let mut buf = std::mem::take(w.get_mut());
        // Overwrite the first frame's length with u32::MAX.
        buf[PREAMBLE_LEN..PREAMBLE_LEN + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut r = FrameReader::new(Cursor::new(buf));
        r.expect_preamble().unwrap();
        match r.read() {
            Err(NetError::FrameTooLarge(len)) => assert_eq!(len, u32::MAX as usize),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncation_inside_header_is_not_clean_close() {
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        w.write(b"payload").unwrap();
        let mut buf = std::mem::take(w.get_mut());
        buf.truncate(PREAMBLE_LEN + 3);
        let mut r = FrameReader::new(Cursor::new(buf));
        r.expect_preamble().unwrap();
        match r.read() {
            Err(NetError::Io(msg)) => assert!(msg.contains("frame header")),
            other => panic!("expected Io truncation, got {other:?}"),
        }
    }

    #[test]
    fn truncation_inside_body_is_not_clean_close() {
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        w.write(b"0123456789").unwrap();
        let mut buf = std::mem::take(w.get_mut());
        buf.truncate(buf.len() - 7);
        let mut r = FrameReader::new(Cursor::new(buf));
        r.expect_preamble().unwrap();
        match r.read() {
            Err(NetError::Io(msg)) => assert!(msg.contains("frame body")),
            other => panic!("expected Io truncation, got {other:?}"),
        }
    }

    #[test]
    fn truncated_preamble_is_reported() {
        let mut r = FrameReader::new(Cursor::new(vec![b'I', b'M']));
        match r.expect_preamble() {
            Err(NetError::Io(msg)) => assert!(msg.contains("preamble")),
            other => panic!("expected Io truncation, got {other:?}"),
        }
        let mut empty = FrameReader::new(Cursor::new(Vec::<u8>::new()));
        assert!(matches!(empty.expect_preamble(), Err(NetError::Closed)));
    }

    /// A reader that dribbles one byte per call, exercising the
    /// partial-read path for the preamble, header and body.
    struct OneByte<R: Read>(R);
    impl<R: Read> Read for OneByte<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let take = buf.len().min(1);
            self.0.read(&mut buf[..take])
        }
    }

    #[test]
    fn partial_reads_reassemble() {
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        w.write(b"fragmented payload").unwrap();
        let buf = std::mem::take(w.get_mut());
        let mut r = FrameReader::new(OneByte(Cursor::new(buf)));
        r.expect_preamble().unwrap();
        assert_eq!(r.read().unwrap().as_slice(), b"fragmented payload");
    }

    #[test]
    fn oversized_write_rejected() {
        struct NullSink;
        impl Write for NullSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let huge = vec![0u8; MAX_FRAME + 1];
        let mut w = FrameWriter::new(NullSink).unwrap();
        assert!(matches!(w.write(&huge), Err(NetError::FrameTooLarge(_))));
        assert_eq!(w.seq(), 0, "a rejected frame must not advance the sequence");
        assert!(matches!(
            encode_frame(0, &huge),
            Err(NetError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn any_single_bit_flip_past_the_length_is_detected() {
        // Flip every bit of the CRC and payload of one frame in turn:
        // each flip must surface as Corrupt on that frame. (Length
        // bits are excluded: the chaos injector never touches them,
        // because a wrong length desynchronizes instead of failing
        // fast — see chaos::FrameAction::Corrupt.)
        let payload = b"integrity matters";
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        w.write(payload).unwrap();
        let clean = std::mem::take(w.get_mut());
        let first_flippable = PREAMBLE_LEN + 4; // skip preamble + length
        for byte in first_flippable..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[byte] ^= 1 << bit;
                let mut r = FrameReader::new(Cursor::new(bad));
                r.expect_preamble().unwrap();
                match r.read() {
                    Err(NetError::Corrupt { seq: 0 }) => {}
                    other => panic!("flip at byte {byte} bit {bit}: got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn dropped_frame_is_detected_as_corrupt() {
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        w.skip(); // frame 0 silently dropped
        w.write(b"frame one").unwrap();
        let buf = std::mem::take(w.get_mut());
        let mut r = FrameReader::new(Cursor::new(buf));
        r.expect_preamble().unwrap();
        assert!(matches!(r.read(), Err(NetError::Corrupt { seq: 0 })));
    }

    #[test]
    fn duplicated_frame_is_detected_as_corrupt() {
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        let encoded = w.encode_next(b"dup me").unwrap();
        w.get_mut().extend_from_slice(&encoded);
        w.get_mut().extend_from_slice(&encoded);
        let buf = std::mem::take(w.get_mut());
        let mut r = FrameReader::new(Cursor::new(buf));
        r.expect_preamble().unwrap();
        assert_eq!(r.read().unwrap().as_slice(), b"dup me");
        assert!(matches!(r.read(), Err(NetError::Corrupt { seq: 1 })));
    }

    #[test]
    fn boundary_frame_at_exactly_max_frame_round_trips() {
        let payload = vec![0x5Au8; MAX_FRAME];
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        w.write(&payload).unwrap();
        let buf = std::mem::take(w.get_mut());
        let mut r = FrameReader::new(Cursor::new(buf));
        r.expect_preamble().unwrap();
        let got = r.read().unwrap();
        assert_eq!(got.len(), MAX_FRAME);
        assert_eq!(got.as_slice(), payload.as_slice());
    }

    #[test]
    fn sequence_continues_across_parts() {
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        w.write(b"one").unwrap();
        w.write(b"two").unwrap();
        let buf = std::mem::take(w.get_mut());
        let mut r = FrameReader::new(Cursor::new(buf));
        r.expect_preamble().unwrap();
        assert_eq!(r.read().unwrap().as_slice(), b"one");
        let (cursor, seq) = r.into_parts();
        assert_eq!(seq, 1);
        let mut r2 = FrameReader::from_parts(cursor, seq);
        assert_eq!(r2.read().unwrap().as_slice(), b"two");
    }

    /// A head with two bulk fields spliced in, one of them large.
    fn sample_parts<'a>(small: &'a [u8], large: &'a [u8]) -> Parts<'a> {
        let mut parts = Parts::default();
        parts
            .put(&4u8)
            .put(&2usize)
            .bulk(small)
            .put(&7u64)
            .bulk(large);
        parts
    }

    #[test]
    fn a_frame_from_parts_is_the_frame_of_their_concatenation() {
        let large = vec![0xC3u8; 3 * SPARE_FLOOR];
        let parts = sample_parts(b"tiny", &large);
        let whole = parts.concat();
        assert_eq!(parts.len(), whole.len());
        let mut from_parts = FrameWriter::new(Vec::new()).unwrap();
        let mut from_whole = FrameWriter::new(Vec::new()).unwrap();
        let mut chaos = FrameWriter::new(Vec::new()).unwrap();
        for _ in 0..3 {
            from_parts.write_parts(&parts).unwrap();
            from_whole.write(&whole).unwrap();
            // What the chaos injector damages: the same parts, joined.
            let encoded = chaos.encode_next(&parts.concat()).unwrap();
            chaos.get_mut().extend_from_slice(&encoded);
        }
        assert_eq!(from_parts.seq(), 3);
        assert_eq!(chaos.seq(), 3);
        let wire = std::mem::take(from_parts.get_mut());
        assert!(wire == *from_whole.get_mut(), "parts vs concatenation");
        assert!(wire == *chaos.get_mut(), "parts vs encode_next");
        let crc = u32::from_be_bytes(wire[PREAMBLE_LEN + 4..PREAMBLE_LEN + 8].try_into().unwrap());
        assert_eq!(crc, frame_crc(0, &whole));
        let mut r = FrameReader::new(Cursor::new(wire));
        r.expect_preamble().unwrap();
        for _ in 0..3 {
            assert!(r.read().unwrap() == whole);
        }
    }

    #[test]
    fn an_oversized_frame_from_parts_is_rejected_unsent() {
        let huge = vec![0u8; MAX_FRAME];
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        let parts = sample_parts(b"", &huge);
        assert!(matches!(
            w.write_parts(&parts),
            Err(NetError::FrameTooLarge(_))
        ));
        assert_eq!(w.seq(), 0);
        assert_eq!(w.get_mut().len(), PREAMBLE_LEN);
    }

    /// A reader over `payloads`, each written as one frame.
    fn reader_of(payloads: &[Vec<u8>]) -> FrameReader<Cursor<Vec<u8>>> {
        let slices: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        round_trip_setup(&slices)
    }

    #[test]
    fn a_large_frame_lands_in_the_spare() {
        let payload = vec![0x11u8; SPARE_FLOOR];
        let mut r = reader_of(&[payload.clone(), payload.clone()]);
        let spare = Vec::with_capacity(SPARE_FLOOR + 10);
        let at = spare.as_ptr();
        let mut spare = Some(spare);
        let got = r.read_into(&mut spare).unwrap();
        assert!(got == payload);
        assert_eq!(got.as_ptr(), at, "read into the spare's allocation");
        assert!(spare.is_none(), "the frame took the spare");
        // A spare that is too small is released for the frame's own.
        let mut short = Some(vec![0x44u8; SPARE_FLOOR - 1]);
        assert!(r.read_into(&mut short).unwrap() == payload);
        assert!(short.is_none(), "a large frame takes the spare");
    }

    #[test]
    fn a_small_frame_leaves_the_spare_where_it_is() {
        let mut r = reader_of(&[b"beat".to_vec(), vec![0x22u8; SPARE_FLOOR - 1]]);
        let mut spare = Some(Vec::with_capacity(4 * SPARE_FLOOR));
        let at = spare.as_ref().map(|s| s.as_ptr());
        assert_eq!(r.read_into(&mut spare).unwrap().as_slice(), b"beat");
        let below_floor = r.read_into(&mut spare).unwrap();
        assert_eq!(below_floor.len(), SPARE_FLOOR - 1);
        assert_ne!(Some(below_floor.as_ptr()), at);
        assert_eq!(spare.as_ref().map(|s| s.as_ptr()), at, "spare untouched");
    }

    #[test]
    fn a_hostile_length_fails_before_touching_the_spare() {
        for len in [MAX_FRAME as u32 + 1, u32::MAX] {
            let mut w = FrameWriter::new(Vec::new()).unwrap();
            w.write(b"x").unwrap();
            let mut buf = std::mem::take(w.get_mut());
            buf[PREAMBLE_LEN..PREAMBLE_LEN + 4].copy_from_slice(&len.to_be_bytes());
            let mut r = FrameReader::new(Cursor::new(buf));
            r.expect_preamble().unwrap();
            let mut spare = Some(Vec::with_capacity(SPARE_FLOOR));
            match r.read_into(&mut spare) {
                Err(NetError::FrameTooLarge(got)) => assert_eq!(got, len as usize),
                other => panic!("expected FrameTooLarge, got {other:?}"),
            }
            assert_eq!(spare.map(|s| s.capacity()), Some(SPARE_FLOOR));
        }
    }

    #[test]
    fn a_truncated_body_read_into_a_spare_is_not_a_clean_close() {
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        w.write(&vec![0x33u8; SPARE_FLOOR]).unwrap();
        let mut buf = std::mem::take(w.get_mut());
        buf.truncate(buf.len() - 1);
        let mut r = FrameReader::new(Cursor::new(buf));
        r.expect_preamble().unwrap();
        match r.read_into(&mut Some(Vec::with_capacity(SPARE_FLOOR))) {
            Err(NetError::Io(msg)) => assert!(msg.contains("frame body")),
            other => panic!("expected Io truncation, got {other:?}"),
        }
    }

    #[test]
    fn only_a_large_unshared_buffer_is_reclaimed() {
        let big = Bytes::from(vec![1u8; SPARE_FLOOR]);
        let at = big.as_ptr();
        let view = big.slice(5..);
        drop(big);
        let buf = reclaim(view).expect("unique and large");
        assert!(buf.is_empty());
        assert_eq!(buf.as_ptr(), at);
        assert!(buf.capacity() >= SPARE_FLOOR);

        let shared = Bytes::from(vec![1u8; SPARE_FLOOR]);
        let other = shared.clone();
        assert!(reclaim(shared).is_none(), "another handle still reads it");
        assert!(reclaim(other).is_some());
        assert!(reclaim(Bytes::from(vec![1u8; SPARE_FLOOR - 1])).is_none());
    }
}
