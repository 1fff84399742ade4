//! Property test: the distributed executive's frame codec is a perfect
//! inverse of itself under *any* stream segmentation. TCP guarantees
//! byte order but not message boundaries — a frame can arrive split at
//! every byte, or ten frames can arrive fused in one read — so the
//! decoder must reconstruct exactly the encoded frame sequence no
//! matter how the byte stream is chopped up.

use proptest::prelude::*;
use warp_core::event::EventId;
use warp_core::gvt::GvtToken;
use warp_core::{Event, LpId, ObjectId, VirtualTime};
use warp_net::frame::{Frame, FrameDecoder, PROTO_VERSION};
use warp_net::PhysMsg;

/// A peer still speaking protocol v9 must be refused at `Hello`: its
/// `GvtNews` lacks the checkpoint tag a v10 decoder reads, and its
/// `SnapshotReq` carries a horizon v10 no longer has.
#[test]
fn v9_peer_is_refused_at_hello() {
    use std::io::Write;
    use warp_net::{bind_loopback, TcpMesh, TcpMeshConfig};

    const { assert!(PROTO_VERSION >= 10, "GvtNews gained its tag in v10") };
    let listener = bind_loopback().unwrap();
    let addr = listener.local_addr().unwrap();
    let v9 = std::thread::spawn(move || {
        let s = std::net::TcpStream::connect(addr).unwrap();
        let hello = Frame::Hello {
            version: 9,
            proc_id: 1,
            n_procs: 2,
            session: 0,
        };
        (&s).write_all(&hello.encode()).unwrap();
        // Hold the socket open long enough for the refusal to happen.
        std::thread::sleep(std::time::Duration::from_millis(500));
    });
    let err = match TcpMesh::establish(TcpMeshConfig::new(0, 2), listener, &[], |_| None) {
        Ok(_) => panic!("establishment must fail against a v9 peer"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("version"), "{err}");
    v9.join().unwrap();
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        any::<u32>(),   // sender object
        any::<u64>(),   // serial
        any::<u32>(),   // destination object
        0u64..u64::MAX, // send time (finite)
        0u64..u64::MAX, // receive time (finite)
        any::<u16>(),   // kind
        proptest::collection::vec(any::<u8>(), 0..48),
        any::<bool>(), // make it an anti-message?
    )
        .prop_map(|(sender, serial, dst, st, rt, kind, payload, anti)| {
            let e = Event::new(
                EventId {
                    sender: ObjectId(sender),
                    serial,
                },
                ObjectId(dst),
                VirtualTime::new(st),
                VirtualTime::new(rt),
                kind,
                payload,
            );
            if anti {
                e.to_anti()
            } else {
                e
            }
        })
}

fn arb_frame() -> BoxedStrategy<Frame> {
    prop_oneof![
        (any::<u16>(), any::<u32>(), any::<u32>(), any::<u32>()).prop_map(
            |(version, proc_id, n_procs, session)| {
                Frame::Hello {
                    version,
                    proc_id,
                    n_procs,
                    session,
                }
            }
        ),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec(arb_event(), 0..5),
        )
            .prop_map(|(seq, epoch, src, dst, events)| Frame::Data {
                seq,
                epoch,
                msg: PhysMsg {
                    src: LpId(src),
                    dst: LpId(dst),
                    events: events.into(),
                },
            }),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<i64>()).prop_map(
            |(dst_lp, round, min, count)| Frame::Token {
                dst_lp,
                token: GvtToken {
                    round,
                    // from_ticks: ∞ is legitimate on the wire.
                    min: VirtualTime::from_ticks(min),
                    count,
                },
            }
        ),
        (any::<u32>(), any::<u64>()).prop_map(|(dst_lp, gvt)| Frame::GvtNews {
            dst_lp,
            gvt: VirtualTime::from_ticks(gvt),
            ckpt: None,
        }),
        // A round the controller LP tagged for a checkpoint.
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(dst_lp, gvt, ckpt)| {
            Frame::GvtNews {
                dst_lp,
                gvt: VirtualTime::from_ticks(gvt),
                ckpt: Some(ckpt),
            }
        }),
        Just(Frame::Heartbeat),
        proptest::collection::vec(any::<u8>(), 0..96).prop_map(Frame::Report),
        Just(Frame::Bye),
        any::<u64>().prop_map(|gvt| Frame::Progress {
            gvt: VirtualTime::from_ticks(gvt),
        }),
        any::<u32>().prop_map(|ckpt| Frame::SnapshotReq { ckpt }),
        (
            any::<u32>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..128),
        )
            .prop_map(|(ckpt, gvt, payload)| Frame::Snapshot {
                ckpt,
                gvt: VirtualTime::from_ticks(gvt),
                payload,
            }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u32>(),
            any::<bool>(),
            proptest::collection::vec(any::<u8>(), 0..128),
        )
            .prop_map(|(session, gvt, seq, last, payload)| Frame::ResumeChunk {
                session,
                gvt: VirtualTime::from_ticks(gvt),
                seq,
                last,
                payload,
            }),
        proptest::collection::vec(any::<u8>(), 0..96).prop_map(Frame::Telemetry),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(gvt, lp, executed, rolled_back, retained, lvt_lead)| {
                Frame::LoadReport {
                    gvt: VirtualTime::from_ticks(gvt),
                    lp,
                    executed,
                    rolled_back,
                    retained,
                    lvt_lead,
                }
            }),
        (any::<u16>(), any::<u32>()).prop_map(|(version, pid)| Frame::Join { version, pid }),
        proptest::collection::vec(any::<u8>(), 0..96).prop_map(Frame::Control),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        .. ProptestConfig::default()
    })]

    /// encode → chop at arbitrary boundaries → decode ≡ identity.
    #[test]
    fn frames_survive_arbitrary_segmentation(
        frames in proptest::collection::vec(arb_frame(), 1..8),
        chunks in proptest::collection::vec(1usize..31, 1..40),
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            f.encode_into(&mut stream);
        }

        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut pos = 0;
        let mut turn = 0;
        while pos < stream.len() {
            let n = chunks[turn % chunks.len()].min(stream.len() - pos);
            turn += 1;
            dec.push(&stream[pos..pos + n]);
            pos += n;
            loop {
                match dec.next() {
                    Ok(Some(f)) => got.push(f),
                    Ok(None) => break,
                    Err(e) => return Err(proptest::prelude::TestCaseError(format!(
                        "decoder rejected a valid stream: {e}"
                    ))),
                }
            }
        }

        prop_assert_eq!(&got, &frames);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// A resume payload split into `ResumeChunk` frames at *arbitrary*
    /// chunk boundaries — then pushed through the codec with *arbitrary*
    /// TCP segmentation on top — reassembles to exactly the original
    /// bytes, with the sequence numbers contiguous and only the final
    /// chunk flagged `last`. This is the wire half of the streamed
    /// resume protocol (the executive's reassembly loop applies the
    /// same seq/last rules).
    #[test]
    fn resume_chunk_streams_reassemble_under_any_segmentation(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        cuts in proptest::collection::vec(1usize..97, 1..16),
        tcp_chunks in proptest::collection::vec(1usize..53, 1..24),
    ) {
        // Split the payload into chunk frames at the given widths
        // (cycled); always at least one chunk, even for empty payloads.
        let mut frames = Vec::new();
        let mut off = 0;
        let mut seq = 0u32;
        loop {
            let width = cuts[seq as usize % cuts.len()].min(payload.len() - off);
            let end = off + width;
            let last = end == payload.len();
            frames.push(Frame::ResumeChunk {
                session: 7,
                gvt: VirtualTime::from_ticks(42),
                seq,
                last,
                payload: payload[off..end].to_vec(),
            });
            seq += 1;
            off = end;
            if last {
                break;
            }
        }

        let mut stream = Vec::new();
        for f in &frames {
            f.encode_into(&mut stream);
        }

        // Decode under arbitrary TCP segmentation and reassemble.
        let mut dec = FrameDecoder::new();
        let mut rebuilt = Vec::new();
        let mut next_seq = 0u32;
        let mut finished = false;
        let mut pos = 0;
        let mut turn = 0;
        while pos < stream.len() {
            let n = tcp_chunks[turn % tcp_chunks.len()].min(stream.len() - pos);
            turn += 1;
            dec.push(&stream[pos..pos + n]);
            pos += n;
            loop {
                match dec.next() {
                    Ok(Some(Frame::ResumeChunk { session, gvt, seq, last, payload })) => {
                        prop_assert_eq!(session, 7);
                        prop_assert_eq!(gvt, VirtualTime::from_ticks(42));
                        prop_assert_eq!(seq, next_seq);
                        prop_assert!(!finished, "chunk after the last chunk");
                        next_seq += 1;
                        rebuilt.extend_from_slice(&payload);
                        finished = last;
                    }
                    Ok(Some(other)) => return Err(proptest::prelude::TestCaseError(format!(
                        "non-ResumeChunk frame decoded: {other:?}"
                    ))),
                    Ok(None) => break,
                    Err(e) => return Err(proptest::prelude::TestCaseError(format!(
                        "decoder rejected a valid stream: {e}"
                    ))),
                }
            }
        }

        prop_assert!(finished, "no chunk carried the last flag");
        prop_assert_eq!(&rebuilt, &payload);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// A frame's encoding is deterministic and self-contained: encoding
    /// twice yields identical bytes, and each frame decodes alone.
    #[test]
    fn single_frame_roundtrip_and_determinism(frame in arb_frame()) {
        let a = frame.encode();
        let b = frame.encode();
        prop_assert_eq!(&a, &b);

        let mut dec = FrameDecoder::new();
        dec.push(&a);
        match dec.next() {
            Ok(Some(back)) => prop_assert_eq!(back, frame),
            other => return Err(proptest::prelude::TestCaseError(format!(
                "expected one frame, got {other:?}"
            ))),
        }
        prop_assert_eq!(dec.pending(), 0);
    }
}
