//! Property tests: hostile bytes on the wire never panic the frame
//! reader or the message decoders — every input yields a typed error
//! or a valid message, with no unbounded allocation.

use bytes::Bytes;
use imr_net::frame::{FrameReader, MAX_FRAME, PREAMBLE_LEN, WIRE_MAGIC, WIRE_VERSION};
use imr_net::proto::{
    PairCfg, PairDirs, PairMode, PairOutcome, PairPlan, ToCoord, ToWorker, WorkerSetup,
};
use imr_net::NetError;
use imr_records::{Codec, CodecError};
use proptest::prelude::*;

/// One valid message per `ToCoord` variant in `proto.rs`.
fn every_to_coord() -> Vec<ToCoord> {
    let payload = Bytes::from(vec![7u8; 56]);
    vec![
        ToCoord::Hello {
            pair: 3,
            generation: 2,
            job: 17,
        },
        ToCoord::Segment {
            dest: 1,
            payload: payload.clone(),
        },
        ToCoord::Credit { src: 2 },
        ToCoord::Gather {
            part: payload.clone(),
        },
        ToCoord::Beat {
            iteration: 12,
            busy_secs: 0.003,
            d: 1.5,
            has_prev: false,
            counts: vec![0, 4096, 0, 0, 0, 111_816, 0, 7, 0, 2, u64::MAX],
            events: payload.clone(),
        },
        ToCoord::Ckpt {
            iteration: 10,
            payload: payload.clone(),
        },
        ToCoord::ReadPart {
            dir: "/job/static".into(),
            part: 3,
        },
        ToCoord::Outcome(Ok(PairOutcome::Finished {
            final_data: payload,
            iterations: 4,
        })),
    ]
}

/// One valid message per `ToWorker` variant in `proto.rs`.
fn every_to_worker() -> Vec<ToWorker> {
    let payload = Bytes::from(vec![5u8; 17]);
    vec![
        ToWorker::Setup(Box::new(WorkerSetup {
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
        })),
        ToWorker::Segment {
            src: 0,
            payload: payload.clone(),
        },
        ToWorker::Credit { dest: 3 },
        ToWorker::GatherAll {
            parts: vec![payload.clone(), Bytes::new()],
        },
        ToWorker::PartData { payload },
        ToWorker::PartErr {
            message: "block lost".into(),
        },
        ToWorker::Poison,
        ToWorker::Drain,
    ]
}

/// The tags each direction assigns today, in `proto.rs` declaration
/// order. The gaps are retired tags, which are never reused.
const TO_COORD_TAGS: [u8; 8] = [0, 1, 2, 4, 6, 7, 8, 9];
const TO_WORKER_TAGS: [u8; 8] = [0, 1, 2, 4, 6, 7, 8, 9];

/// `ToCoord` tags that once carried a message: the barrier arrival (3),
/// the distance vote (5), delta segments (11) and delta counters (12)
/// until one gather, one segment class and counts-in-`Beat` replaced
/// them, the telemetry batch (14) until the worker's events became
/// its only observability frame, the trace batch (10) until those
/// events rode in `Beat`, and the warm-start patch receipt (13).
const RETIRED_TO_COORD_TAGS: [u8; 7] = [3, 5, 10, 11, 12, 13, 14];

/// `ToWorker` tags that once carried a message: the barrier release
/// (3), the distance total (5), delta segments (10) and the warm-start
/// patch expectation (11).
const RETIRED_TO_WORKER_TAGS: [u8; 4] = [3, 5, 10, 11];

fn decode_to_coord(frame: Vec<u8>) -> Result<ToCoord, NetError> {
    Ok(ToCoord::decode(&mut Bytes::from(frame))?)
}

fn decode_to_worker(frame: Vec<u8>) -> Result<ToWorker, NetError> {
    Ok(ToWorker::decode(&mut Bytes::from(frame))?)
}

#[test]
fn every_variant_owns_one_tag_and_the_retired_ones_stay_dead() {
    let coord: Vec<u8> = every_to_coord().iter().map(|m| m.to_bytes()[0]).collect();
    let worker: Vec<u8> = every_to_worker().iter().map(|m| m.to_bytes()[0]).collect();
    assert_eq!(coord, TO_COORD_TAGS);
    assert_eq!(worker, TO_WORKER_TAGS);
    // A well-formed frame of the old shape behind each retired tag (a
    // tag plus a length-prefixed payload covers the old Delta, Distance
    // and telemetry layouts alike; the bare tag covers BarrierArrive /
    // BarrierRelease) is a typed codec error, as is every other tag
    // outside the live set.
    let mut old_body = vec![0u8];
    old_body.extend_from_slice(&Bytes::from(vec![3u8; 248]).to_bytes());
    for tag in 0..=u8::MAX {
        let mut old = old_body.clone();
        old[0] = tag;
        if !TO_COORD_TAGS.contains(&tag) {
            assert!(matches!(
                decode_to_coord(old.clone()),
                Err(NetError::Codec(_))
            ));
            assert!(matches!(
                decode_to_coord(vec![tag]),
                Err(NetError::Codec(_))
            ));
        }
        if !TO_WORKER_TAGS.contains(&tag) {
            assert!(matches!(decode_to_worker(old), Err(NetError::Codec(_))));
            assert!(matches!(
                decode_to_worker(vec![tag]),
                Err(NetError::Codec(_))
            ));
        }
    }
    for tag in RETIRED_TO_COORD_TAGS {
        assert!(!TO_COORD_TAGS.contains(&tag), "ToCoord tag {tag} reused");
    }
    for tag in RETIRED_TO_WORKER_TAGS {
        assert!(!TO_WORKER_TAGS.contains(&tag), "ToWorker tag {tag} reused");
    }
}

#[test]
fn a_version_2_preamble_is_refused_at_handshake() {
    // A peer built before the message set shrank (v2), before `Ckpt`
    // and `Outcome` were reshaped (v3), before `Beat` carried the
    // trace events (v4) or before `PairCfg` carried one mode (v5)
    // still frames the same way; only the preamble tells them apart,
    // so it must.
    for version in [2u32, 3, 4, 5] {
        let mut old = Vec::new();
        old.extend_from_slice(&WIRE_MAGIC);
        old.extend_from_slice(&version.to_be_bytes());
        let mut r = FrameReader::new(std::io::Cursor::new(old));
        match r.expect_preamble() {
            Err(NetError::Version(msg)) => assert!(
                msg.contains(&format!("version {version}"))
                    && msg.contains(&WIRE_VERSION.to_string())
            ),
            other => panic!("expected a Version error, got {other:?}"),
        }
    }
}

#[test]
fn a_setup_frame_with_an_unknown_mode_tag_is_corrupt() {
    let Some(ToWorker::Setup(setup)) = every_to_worker().into_iter().next() else {
        panic!("the first ToWorker sample is the setup frame");
    };
    // The frame up to the mode: tag, job, epoch, observed, then the
    // config's three shared fields.
    let cfg = &setup.cfg;
    let head = (0u8, setup.job, (setup.epoch, setup.observed)).encoded_len()
        + (cfg.n, cfg.max_iters, cfg.checkpoint_interval).encoded_len();
    let mut frame = ToWorker::Setup(setup).to_bytes().to_vec();
    assert_eq!(frame[head], 3, "the delta mode's tag");
    // Every one-byte tag no mode owns.
    for tag in 4..0x80 {
        frame[head] = tag;
        let decoded = ToWorker::decode(&mut Bytes::from(frame.clone()));
        assert!(
            matches!(decoded, Err(CodecError::Corrupt(_))),
            "mode tag {tag}: {decoded:?}"
        );
    }
}

proptest! {
    #[test]
    fn arbitrary_payload_behind_every_tag_decodes_or_fails_typed(body in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Every tag byte — live, retired, unassigned — in front of the
        // same hostile body: each decoder arm sees it, none may panic.
        for tag in 0..=u8::MAX {
            let mut frame = vec![tag];
            frame.extend_from_slice(&body);
            let _ = decode_to_coord(frame.clone());
            let _ = decode_to_worker(frame);
        }
    }

    #[test]
    fn damaged_valid_messages_decode_or_fail_typed(cut in 0usize..512, flip in 0usize..4096) {
        // Truncations and single-bit flips of a real encoding reach the
        // length-prefixed fields (payloads, strings, vectors) deep inside
        // each variant, which random bytes behind a tag rarely do.
        let encodings = every_to_coord()
            .into_iter()
            .map(|m| m.to_bytes().to_vec())
            .chain(every_to_worker().into_iter().map(|m| m.to_bytes().to_vec()));
        for bytes in encodings {
            let mut flipped = bytes.clone();
            let bit = flip % (flipped.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            let truncated = bytes[..cut % bytes.len()].to_vec();
            for frame in [flipped, truncated] {
                let _ = decode_to_coord(frame.clone());
                let _ = decode_to_worker(frame);
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_reader(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let mut r = FrameReader::new(std::io::Cursor::new(data));
        // Preamble check first (the real handshake order), then keep
        // reading frames until the stream errors out or ends. Both
        // calls must return, never panic.
        if r.expect_preamble().is_ok() {
            for _ in 0..64 {
                match r.read() {
                    Ok(payload) => {
                        // Whatever survived framing feeds the decoders;
                        // they must also fail typed, never panic.
                        let mut b = payload.clone();
                        let _ = ToWorker::decode(&mut b);
                        let mut b = payload;
                        let _ = ToCoord::decode(&mut b);
                    }
                    Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn corrupt_length_prefixes_never_allocate_above_max_frame(len_word in any::<u32>()) {
        // A frame whose length prefix decodes above MAX_FRAME must be
        // rejected before the body allocation.
        let len_bytes = len_word.to_be_bytes();
        let mut data = Vec::new();
        data.extend_from_slice(&imr_net::frame::preamble());
        data.extend_from_slice(&len_bytes);
        data.extend_from_slice(&[0u8; 4]); // crc
        let mut r = FrameReader::new(std::io::Cursor::new(data));
        r.expect_preamble().unwrap();
        let len = u32::from_be_bytes(len_bytes) as usize;
        match r.read() {
            Err(NetError::FrameTooLarge(l)) => prop_assert!(l > MAX_FRAME && l == len),
            Err(_) => prop_assert!(len <= MAX_FRAME),
            Ok(payload) => prop_assert!(payload.is_empty() && len == 0),
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut b = Bytes::from(data.clone());
        let _ = ToWorker::decode(&mut b);
        let mut b = Bytes::from(data);
        let _ = ToCoord::decode(&mut b);
    }

    #[test]
    fn truncating_a_valid_stream_is_a_typed_error(cut in 0usize..64) {
        use imr_net::frame::FrameWriter;
        let mut w = FrameWriter::new(Vec::new()).unwrap();
        w.write(b"0123456789abcdef0123456789abcdef").unwrap();
        let mut buf = std::mem::take(w.get_mut());
        let keep = buf.len().saturating_sub(cut);
        buf.truncate(keep);
        let mut r = FrameReader::new(std::io::Cursor::new(buf));
        if keep < PREAMBLE_LEN {
            prop_assert!(r.expect_preamble().is_err());
        } else {
            r.expect_preamble().unwrap();
            match r.read() {
                Ok(payload) => prop_assert_eq!(payload.as_slice(), &b"0123456789abcdef0123456789abcdef"[..]),
                Err(NetError::Io(_)) | Err(NetError::Closed) => {}
                Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
            }
        }
    }
}
