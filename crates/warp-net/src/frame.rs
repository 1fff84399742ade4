//! The distributed executive's wire protocol: length-prefixed, versioned
//! frames over a byte stream.
//!
//! Every frame is `[u32 length (LE)][u8 tag][body]`, with the body
//! encoded by the canonical `warp_core::wire` writers — the same
//! encoding lazy cancellation relies on, so event bytes are identical on
//! every platform and a digest computed from decoded events equals one
//! computed locally. The codec is transport-agnostic: [`FrameDecoder`]
//! consumes bytes in arbitrary chunks (TCP segment boundaries carry no
//! meaning), and [`Frame::encode`] produces the exact byte run to write.
//!
//! Frame taxonomy:
//!
//! * `Hello` — handshake; first frame on every connection, carrying the
//!   protocol version and the sender's process coordinates. A version
//!   mismatch aborts the connection before any simulation traffic.
//! * `Data` — a physical message (aggregated events) tagged with the
//!   sender's Mattern epoch.
//! * `Token` / `GvtNews` — the circulating GVT token and the controller's
//!   round results, addressed to a destination LP so the receiving
//!   process can route them to the right LP thread.
//! * `Heartbeat` — idle-link liveness probe; carries nothing and never
//!   reaches LP threads.
//! * `Report` — a worker's end-of-run summary (opaque JSON bytes; the
//!   executive layer owns the schema).
//! * `Telemetry` — a worker's periodic observability batch (opaque JSON
//!   bytes, same ownership rule as `Report`), piggybacked on GVT rounds
//!   so the coordinator can stream cluster-wide metric series without a
//!   side channel.
//! * `LoadReport` — one LP's cumulative progress counters at a GVT round
//!   (same advisory contract as `Telemetry`); the coordinator's balance
//!   controller samples these to decide LP migrations.
//! * `Join` — opens every worker's control socket, naming its OS pid
//!   (v11).
//! * `Control` — every later message on a control socket (v11; opaque
//!   JSON bytes, `warp-exec` owns the schema), a scale-in retiree's
//!   notice to leave included. No frame ends a session early: the
//!   coordinator drops its mesh links without `Bye`, and every worker
//!   treats that as the loss it is (v14).
//! * `Bye` — graceful shutdown: the peer finished sending and will close
//!   once the other side's `Bye` is read. A connection that dies
//!   *without* `Bye` is a crash.
//! * `Progress` / `SnapshotReq` / `Snapshot` / `ResumeChunk` — the
//!   checkpoint/recovery plane. Workers report committed GVT
//!   (`Progress`); the coordinator requests a checkpoint (`SnapshotReq`),
//!   the controller LP tags its next GVT round with it (`GvtNews::ckpt`),
//!   and each worker answers with its LPs' images of that round's GVT
//!   (`Snapshot`). After a failure the latest images re-seed each worker
//!   for a new session epoch. They travel as a `ResumeChunk` stream (v5):
//!   a contiguous sequence of bounded slices, so a large model's images
//!   are never limited by the frame-size cap.
//!
//! `Hello` additionally carries a *session epoch*: recovery re-establishes
//! the mesh under an incremented session, so connection attempts left over
//! from a dead session fail the handshake instead of leaking stale frames
//! into the resumed run. `Data` frames carry a per-link sequence number,
//! letting receivers drop duplicates, reorder delayed frames back into
//! send order, and detect gaps (lost frames) as an unclean link failure.

use crate::aggregate::{EventBatch, PhysMsg};
use std::fmt;
use warp_core::gvt::GvtToken;
use warp_core::wire::{
    decode_event, encode_event, read_vt, write_vt, PayloadReader, PayloadWriter,
};
use warp_core::{LpId, VirtualTime};

/// Protocol version carried in `Hello`; bump on any frame-format change.
/// v2: session epochs in `Hello`, per-link `Data` sequence numbers, and
/// the checkpoint/recovery frames. v3: the `Telemetry` streaming frame.
/// v4: the load-balance plane (`LoadReport`, `Rebalance`). v5: the
/// chunked `ResumeChunk` stream replacing monolithic `Resume` payloads.
/// v6: the elastic membership plane (`Join`, `Retire`, `DrainAck`).
/// v7: the failover plane (tag 20, a parked worker's handshake
/// re-admitting itself to a restarted coordinator). v8: a per-link
/// batch frame (tag 21). v9: that frame is gone again — events are
/// aggregated once, by the LP's DyMA buffers — so a v8 peer, which could
/// still send one, is refused at `Hello`. v10: checkpoints ride the GVT news — `GvtNews`
/// carries the checkpoint id of a tagged round, and `SnapshotReq` no
/// longer names a horizon (the controller LP picks it). v11: one control
/// socket per worker — `Join` names the dialer's OS pid, and the
/// `Control` frame carries what used to be stdio lines. v12: checkpoints
/// are images, so a worker keeps no restore point to acknowledge:
/// `SnapshotAck` (tag 11) is gone and the re-admission handshake names
/// no horizon. v13: a resumed coordinator spawns every worker afresh, so
/// no worker re-admits itself: tag 20 is gone, and a v12 worker that
/// presents it is dropped at the admission point. v14: every session
/// that stops short of the finish ends by the coordinator dropping its
/// links, and a scale-in retiree is told to leave on its control
/// socket: `Rebalance`, `Retire` and `DrainAck` (tags 15, 18, 19) are
/// gone.
pub const PROTO_VERSION: u16 = 14;

/// Default upper bound on a frame body. Protects the decoder from
/// allocating gigabytes off a corrupt or malicious length prefix.
/// [`FrameDecoder::with_limit`] can lower (or raise) the bound per link.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// One protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Connection handshake; must be the first frame both ways.
    Hello {
        /// Sender's [`PROTO_VERSION`].
        version: u16,
        /// Sender's process id in the mesh (0 = coordinator).
        proc_id: u32,
        /// Total process count the sender was configured with.
        n_procs: u32,
        /// Mesh session epoch (0 on a fresh run; incremented by each
        /// recovery re-establishment). Both sides must agree.
        session: u32,
    },
    /// Application events between two LPs.
    Data {
        /// Per-link monotone sequence number, assigned by the sending
        /// link. Lets the receiver deduplicate, restore send order, and
        /// detect frame loss.
        seq: u64,
        /// Sender's Mattern epoch at transmission time.
        epoch: u32,
        /// The physical message (src/dst LPs + events).
        msg: PhysMsg,
    },
    /// The circulating GVT token, addressed to a specific LP.
    Token {
        /// Global LP the token is bound for.
        dst_lp: u32,
        /// The token itself.
        token: GvtToken,
    },
    /// A freshly computed GVT, addressed to a specific LP (∞ = shut down).
    GvtNews {
        /// Global LP the news is bound for.
        dst_lp: u32,
        /// The new commit horizon.
        gvt: VirtualTime,
        /// Set on the round the controller LP tagged for a requested
        /// checkpoint (v10): every LP checkpoints at `gvt` under this id
        /// before it fossil-collects.
        ckpt: Option<u32>,
    },
    /// Idle-link liveness probe.
    Heartbeat,
    /// A worker's end-of-run summary (opaque to the transport).
    Report(Vec<u8>),
    /// Graceful end-of-stream announcement.
    Bye,
    /// Worker → coordinator: a freshly announced commit horizon.
    Progress {
        /// The GVT the worker's controller LP just announced.
        gvt: VirtualTime,
    },
    /// Coordinator → the worker hosting LP 0: take a checkpoint. The
    /// controller LP tags its next completed GVT round with `ckpt`, and
    /// that round's GVT is the horizon (v10; before, the coordinator
    /// named one it had already seen applied).
    SnapshotReq {
        /// Checkpoint id, monotone within a session.
        ckpt: u32,
    },
    /// Worker → coordinator: this worker's LPs' images of one
    /// checkpoint's horizon (opaque `warp_core::wire` bytes; `warp-exec`
    /// owns the schema).
    Snapshot {
        /// Checkpoint id being answered.
        ckpt: u32,
        /// The checkpoint horizon: the GVT of the tagged round.
        gvt: VirtualTime,
        /// The worker's image set.
        payload: Vec<u8>,
    },
    /// Coordinator → worker at the start of a recovery session: one
    /// slice of the streamed resume payload (protocol v5) the worker
    /// restores from before resuming at `gvt`. The coordinator splits
    /// the images of the worker's LPs (schema owned by `warp-exec`) at a
    /// configurable chunk size and sends the pieces in `seq` order over
    /// the same FIFO link; the worker concatenates payloads until `last`
    /// and then decodes the whole. This keeps individual frames far
    /// below the frame-size cap however large a model's images are.
    ResumeChunk {
        /// The session epoch this resume belongs to.
        session: u32,
        /// The restore horizon (the last persisted checkpoint GVT).
        gvt: VirtualTime,
        /// Zero-based chunk index; must arrive contiguously.
        seq: u32,
        /// True on the final chunk of the stream.
        last: bool,
        /// This chunk's slice of the encoded images.
        payload: Vec<u8>,
    },
    /// Worker → coordinator: a streamed observability batch (opaque to
    /// the transport; `warp-exec` owns the JSON schema). Purely advisory:
    /// loss or reordering never affects simulation correctness.
    Telemetry(Vec<u8>),
    /// Worker → coordinator: one LP's cumulative load counters at a GVT
    /// round — the sampled output `O` of the cluster-level balance
    /// controller. Advisory like `Telemetry`: loss only delays a
    /// migration decision, never affects correctness.
    LoadReport {
        /// The GVT round the sample belongs to.
        gvt: VirtualTime,
        /// The reporting LP (global id).
        lp: u32,
        /// Events executed so far, including ones later rolled back.
        executed: u64,
        /// Events undone by rollback so far.
        rolled_back: u64,
        /// Retained history items (input queue + output log + state
        /// snapshots) at the sample instant.
        retained: u64,
        /// `lvt_front - gvt` in ticks: the LP's speculation lead over
        /// the committed horizon.
        lvt_lead: u64,
    },
    /// Worker → coordinator: first frame on a control socket (v6), the
    /// stream a worker dials at the coordinator's admission endpoint and
    /// keeps for life. A version mismatch drops the connection before any
    /// control traffic.
    Join {
        /// Joiner's [`PROTO_VERSION`].
        version: u16,
        /// The dialer's OS process id (v11): pairs a child the
        /// coordinator spawned with its slot.
        pid: u32,
    },
    /// Either way on a control socket (v11): one control message.
    Control(Vec<u8>),
}

const TAG_HELLO: u8 = 1;
const TAG_DATA: u8 = 2;
const TAG_TOKEN: u8 = 3;
const TAG_GVT_NEWS: u8 = 4;
const TAG_HEARTBEAT: u8 = 5;
const TAG_REPORT: u8 = 6;
const TAG_BYE: u8 = 7;
const TAG_PROGRESS: u8 = 8;
const TAG_SNAPSHOT_REQ: u8 = 9;
const TAG_SNAPSHOT: u8 = 10;
// 11 is retired (`SnapshotAck`, before v12); do not reuse it.
// 12 is retired (the monolithic `Resume`); do not reuse it.
const TAG_TELEMETRY: u8 = 13;
const TAG_LOAD_REPORT: u8 = 14;
// 15 is retired (the migration's session end, before v14); do not
// reuse it.
const TAG_RESUME_CHUNK: u8 = 16;
const TAG_JOIN: u8 = 17;
// 18 and 19 are retired (the scale-in retiree's notice and its answer,
// before v14); do not reuse them.
// 20 is retired (the parked worker's re-admission, v7 to v12); do not
// reuse it.
// 21 is retired (the per-link batch of v8); do not reuse it.
const TAG_CONTROL: u8 = 22;

/// Why a byte stream failed to decode as frames.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// Unknown frame tag — desynchronized stream or version skew.
    BadTag(u8),
    /// Declared frame length exceeds the decoder's frame-body cap
    /// ([`MAX_FRAME_BYTES`] unless lowered via
    /// [`FrameDecoder::with_limit`]).
    TooLarge(usize),
    /// The body did not decode as the tag's schema.
    Malformed(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadTag(t) => write!(f, "unknown frame tag {t:#x}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the receiver's frame cap")
            }
            FrameError::Malformed(m) => write!(f, "malformed frame body: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// Encode as a complete length-prefixed frame, appended to `out`.
    /// The body is written in place behind a length placeholder patched
    /// at the end, so a payload is copied once, into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let mut w = PayloadWriter::appending_to(std::mem::take(out));
        w.u32(0);
        match self {
            Frame::Hello {
                version,
                proc_id,
                n_procs,
                session,
            } => {
                w.u8(TAG_HELLO)
                    .u16(*version)
                    .u32(*proc_id)
                    .u32(*n_procs)
                    .u32(*session);
            }
            Frame::Data { seq, epoch, msg } => {
                w.reserve(
                    25 + msg
                        .events
                        .iter()
                        .map(warp_core::wire::encoded_event_len)
                        .sum::<usize>(),
                );
                w.u8(TAG_DATA)
                    .u64(*seq)
                    .u32(*epoch)
                    .u32(msg.src.0)
                    .u32(msg.dst.0)
                    .u32(msg.events.len() as u32);
                for e in &msg.events {
                    encode_event(&mut w, e);
                }
            }
            Frame::Token { dst_lp, token } => {
                w.u8(TAG_TOKEN).u32(*dst_lp).u32(token.round);
                write_vt(&mut w, token.min);
                w.i64(token.count);
            }
            Frame::GvtNews { dst_lp, gvt, ckpt } => {
                w.u8(TAG_GVT_NEWS).u32(*dst_lp);
                write_vt(&mut w, *gvt);
                match ckpt {
                    None => w.u8(0),
                    Some(k) => w.u8(1).u32(*k),
                };
            }
            Frame::Heartbeat => {
                w.u8(TAG_HEARTBEAT);
            }
            Frame::Report(bytes) => {
                w.u8(TAG_REPORT).bytes(bytes);
            }
            Frame::Bye => {
                w.u8(TAG_BYE);
            }
            Frame::Progress { gvt } => {
                w.u8(TAG_PROGRESS);
                write_vt(&mut w, *gvt);
            }
            Frame::SnapshotReq { ckpt } => {
                w.u8(TAG_SNAPSHOT_REQ).u32(*ckpt);
            }
            Frame::Snapshot { ckpt, gvt, payload } => {
                w.u8(TAG_SNAPSHOT).u32(*ckpt);
                write_vt(&mut w, *gvt);
                w.bytes(payload);
            }
            Frame::ResumeChunk {
                session,
                gvt,
                seq,
                last,
                payload,
            } => {
                w.u8(TAG_RESUME_CHUNK).u32(*session);
                write_vt(&mut w, *gvt);
                w.u32(*seq).u8(u8::from(*last)).bytes(payload);
            }
            Frame::Telemetry(bytes) => {
                w.u8(TAG_TELEMETRY).bytes(bytes);
            }
            Frame::LoadReport {
                gvt,
                lp,
                executed,
                rolled_back,
                retained,
                lvt_lead,
            } => {
                w.u8(TAG_LOAD_REPORT);
                write_vt(&mut w, *gvt);
                w.u32(*lp)
                    .u64(*executed)
                    .u64(*rolled_back)
                    .u64(*retained)
                    .u64(*lvt_lead);
            }
            Frame::Join { version, pid } => {
                w.u8(TAG_JOIN).u16(*version).u32(*pid);
            }
            Frame::Control(bytes) => {
                w.u8(TAG_CONTROL).bytes(bytes);
            }
        }
        *out = w.finish().into_vec();
        let len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Encode as a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
        let mal = |e: warp_core::KernelError| FrameError::Malformed(e.to_string());
        let mut r = PayloadReader::new(body);
        let tag = r.u8().map_err(mal)?;
        let frame = match tag {
            TAG_HELLO => Frame::Hello {
                version: r.u16().map_err(mal)?,
                proc_id: r.u32().map_err(mal)?,
                n_procs: r.u32().map_err(mal)?,
                session: r.u32().map_err(mal)?,
            },
            TAG_DATA => {
                let seq = r.u64().map_err(mal)?;
                let epoch = r.u32().map_err(mal)?;
                let src = LpId(r.u32().map_err(mal)?);
                let dst = LpId(r.u32().map_err(mal)?);
                let n = r.u32().map_err(mal)? as usize;
                if n > body.len() {
                    // Each event needs ≥ 1 byte; an impossible count is
                    // corruption, not a huge allocation request.
                    return Err(FrameError::Malformed(format!(
                        "event count {n} exceeds body size {}",
                        body.len()
                    )));
                }
                // A lone event is decoded in place, without a block.
                let events = if n == 1 {
                    EventBatch::one(decode_event(&mut r).map_err(mal)?)
                } else {
                    let mut events = Vec::with_capacity(n);
                    for _ in 0..n {
                        events.push(decode_event(&mut r).map_err(mal)?);
                    }
                    EventBatch::from(events)
                };
                Frame::Data {
                    seq,
                    epoch,
                    msg: PhysMsg { src, dst, events },
                }
            }
            TAG_TOKEN => Frame::Token {
                dst_lp: r.u32().map_err(mal)?,
                token: GvtToken {
                    round: r.u32().map_err(mal)?,
                    min: read_vt(&mut r).map_err(mal)?,
                    count: r.i64().map_err(mal)?,
                },
            },
            TAG_GVT_NEWS => Frame::GvtNews {
                dst_lp: r.u32().map_err(mal)?,
                gvt: read_vt(&mut r).map_err(mal)?,
                ckpt: match r.u8().map_err(mal)? {
                    0 => None,
                    1 => Some(r.u32().map_err(mal)?),
                    other => {
                        return Err(FrameError::Malformed(format!(
                            "GvtNews checkpoint flag must be 0 or 1, got {other}"
                        )))
                    }
                },
            },
            TAG_HEARTBEAT => Frame::Heartbeat,
            TAG_REPORT => Frame::Report(r.bytes().map_err(mal)?.to_vec()),
            TAG_BYE => Frame::Bye,
            TAG_PROGRESS => Frame::Progress {
                gvt: read_vt(&mut r).map_err(mal)?,
            },
            TAG_SNAPSHOT_REQ => Frame::SnapshotReq {
                ckpt: r.u32().map_err(mal)?,
            },
            TAG_SNAPSHOT => Frame::Snapshot {
                ckpt: r.u32().map_err(mal)?,
                gvt: read_vt(&mut r).map_err(mal)?,
                payload: r.bytes().map_err(mal)?.to_vec(),
            },
            TAG_RESUME_CHUNK => {
                let session = r.u32().map_err(mal)?;
                let gvt = read_vt(&mut r).map_err(mal)?;
                let seq = r.u32().map_err(mal)?;
                let last = match r.u8().map_err(mal)? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(FrameError::Malformed(format!(
                            "ResumeChunk `last` flag must be 0 or 1, got {other}"
                        )))
                    }
                };
                Frame::ResumeChunk {
                    session,
                    gvt,
                    seq,
                    last,
                    payload: r.bytes().map_err(mal)?.to_vec(),
                }
            }
            TAG_TELEMETRY => Frame::Telemetry(r.bytes().map_err(mal)?.to_vec()),
            TAG_LOAD_REPORT => Frame::LoadReport {
                gvt: read_vt(&mut r).map_err(mal)?,
                lp: r.u32().map_err(mal)?,
                executed: r.u64().map_err(mal)?,
                rolled_back: r.u64().map_err(mal)?,
                retained: r.u64().map_err(mal)?,
                lvt_lead: r.u64().map_err(mal)?,
            },
            TAG_JOIN => Frame::Join {
                version: r.u16().map_err(mal)?,
                pid: r.u32().map_err(mal)?,
            },
            TAG_CONTROL => Frame::Control(r.bytes().map_err(mal)?.to_vec()),
            other => return Err(FrameError::BadTag(other)),
        };
        if r.remaining() != 0 {
            return Err(FrameError::Malformed(format!(
                "{} trailing bytes after frame body",
                r.remaining()
            )));
        }
        Ok(frame)
    }
}

/// Incremental frame decoder over an arbitrarily-chunked byte stream.
///
/// Feed bytes with [`push`](FrameDecoder::push) as they arrive, then
/// drain complete frames with [`next`](FrameDecoder::next). Partial
/// frames stay buffered until their remaining bytes arrive; decode
/// errors are sticky (a desynchronized stream cannot be resynchronized).
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    poisoned: bool,
    limit: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::with_limit(MAX_FRAME_BYTES)
    }
}

impl FrameDecoder {
    /// Fresh decoder with an empty buffer and the default
    /// [`MAX_FRAME_BYTES`] body cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh decoder enforcing a custom frame-body cap. Tests and
    /// memory-constrained deployments lower it; the sender must keep
    /// its frames (chunked resume payloads in particular) under the
    /// receiver's cap or the link is declared corrupt.
    pub fn with_limit(limit: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            poisoned: false,
            limit,
        }
    }

    /// Append received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily so long sessions don't grow the buffer forever.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 64 << 10) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (diagnostics).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete frame, `Ok(None)` if more bytes are
    /// needed. After an error every subsequent call errors too.
    // Not `Iterator`: `Ok(None)` means "need more bytes", not "done".
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.poisoned {
            return Err(FrameError::Malformed("stream already failed".into()));
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len > self.limit {
            self.poisoned = true;
            return Err(FrameError::TooLarge(len));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = &avail[4..4 + len];
        match Frame::decode_body(body) {
            Ok(frame) => {
                self.pos += 4 + len;
                Ok(Some(frame))
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_core::event::EventId;
    use warp_core::{Event, ObjectId};

    fn ev(serial: u64, rt: u64) -> Event {
        Event::new(
            EventId {
                sender: ObjectId(2),
                serial,
            },
            ObjectId(5),
            VirtualTime::new(1),
            VirtualTime::new(rt),
            3,
            vec![serial as u8; 4],
        )
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTO_VERSION,
                proc_id: 2,
                n_procs: 3,
                session: 7,
            },
            Frame::Data {
                seq: 41,
                epoch: 4,
                msg: PhysMsg {
                    src: LpId(1),
                    dst: LpId(0),
                    events: vec![ev(1, 10), ev(2, 11).to_anti()].into(),
                },
            },
            Frame::Token {
                dst_lp: 2,
                token: GvtToken {
                    round: 9,
                    min: VirtualTime::new(44),
                    count: -2,
                },
            },
            Frame::GvtNews {
                dst_lp: 1,
                gvt: VirtualTime::INFINITY,
                ckpt: None,
            },
            Frame::GvtNews {
                dst_lp: 0,
                gvt: VirtualTime::new(17),
                ckpt: Some(3),
            },
            Frame::Heartbeat,
            Frame::Report(b"{\"lp\":0}".to_vec()),
            Frame::Bye,
            Frame::Progress {
                gvt: VirtualTime::new(17),
            },
            Frame::SnapshotReq { ckpt: 3 },
            Frame::Snapshot {
                ckpt: 3,
                gvt: VirtualTime::new(17),
                payload: vec![0xAA; 9],
            },
            Frame::ResumeChunk {
                session: 2,
                gvt: VirtualTime::new(17),
                seq: 3,
                last: true,
                payload: vec![0x5C; 7],
            },
            Frame::Telemetry(b"{\"samples\":[]}".to_vec()),
            Frame::LoadReport {
                gvt: VirtualTime::new(17),
                lp: 5,
                executed: 420,
                rolled_back: 12,
                retained: 96,
                lvt_lead: 33,
            },
            Frame::Join {
                version: PROTO_VERSION,
                pid: 4242,
            },
            Frame::Control(br#"{"Listen":"127.0.0.1:9"}"#.to_vec()),
        ]
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            let mut d = FrameDecoder::new();
            d.push(&bytes);
            assert_eq!(d.next().unwrap(), Some(frame));
            assert_eq!(d.next().unwrap(), None);
            assert_eq!(d.pending(), 0);
        }
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let mut stream = Vec::new();
        for f in sample_frames() {
            f.encode_into(&mut stream);
        }
        let mut d = FrameDecoder::new();
        let mut got = Vec::new();
        for b in stream {
            d.push(&[b]);
            while let Some(f) = d.next().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, sample_frames());
    }

    #[test]
    fn custom_decoder_limit_rejects_frames_the_default_allows() {
        let big = Frame::Telemetry(vec![0u8; 4096]);
        let bytes = big.encode();
        let mut strict = FrameDecoder::with_limit(1024);
        strict.push(&bytes);
        assert!(matches!(strict.next(), Err(FrameError::TooLarge(_))));
        let mut lax = FrameDecoder::new();
        lax.push(&bytes);
        assert_eq!(lax.next().unwrap(), Some(big));
    }

    #[test]
    fn resume_chunk_bad_last_flag_is_malformed() {
        let f = Frame::ResumeChunk {
            session: 1,
            gvt: VirtualTime::new(5),
            seq: 0,
            last: false,
            payload: vec![1, 2, 3],
        };
        let mut raw = f.encode();
        // The `last` flag is the byte just before the length-prefixed
        // payload (u32 len + 3 payload bytes) at the end of the frame.
        let flag_pos = raw.len() - 3 - 4 - 1;
        assert_eq!(raw[flag_pos], 0, "expected the cleared `last` flag here");
        raw[flag_pos] = 7;
        let mut d = FrameDecoder::new();
        d.push(&raw);
        assert!(matches!(d.next(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn gvt_news_bad_checkpoint_flag_is_malformed() {
        let mut raw = Frame::GvtNews {
            dst_lp: 1,
            gvt: VirtualTime::new(5),
            ckpt: None,
        }
        .encode();
        // The flag is the last byte of an untagged round's body.
        let flag = raw.len() - 1;
        assert_eq!(raw[flag], 0);
        raw[flag] = 2;
        let mut d = FrameDecoder::new();
        d.push(&raw);
        assert!(matches!(d.next(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_and_sticky() {
        let mut d = FrameDecoder::new();
        d.push(&(u32::MAX).to_le_bytes());
        assert!(matches!(d.next(), Err(FrameError::TooLarge(_))));
        d.push(&Frame::Heartbeat.encode());
        assert!(d.next().is_err(), "poisoned decoder must stay failed");
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let mut raw = Frame::Heartbeat.encode();
        raw[4] = 0xEE; // the tag byte
        let mut d = FrameDecoder::new();
        d.push(&raw);
        assert_eq!(d.next(), Err(FrameError::BadTag(0xEE)));
        // The retired tags (checkpoint ack, monolithic `Resume`, the
        // migration's session end, the retiree's notice and answer,
        // parked re-admission, the v8 per-link batch) are just more bad
        // tags.
        for tag in [11, 12, 15, 18, 19, 20, 21] {
            assert_eq!(Frame::decode_body(&[tag]), Err(FrameError::BadTag(tag)));
        }
    }

    #[test]
    fn trailing_garbage_in_body_is_an_error() {
        let mut raw = Frame::Bye.encode();
        raw[0] += 1; // claim one extra body byte...
        raw.push(0xAB); // ...and provide it
        let mut d = FrameDecoder::new();
        d.push(&raw);
        assert!(matches!(d.next(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn impossible_event_count_is_rejected_without_allocation() {
        let mut w = warp_core::wire::PayloadWriter::new();
        w.u8(2).u64(0).u32(0).u32(0).u32(1).u32(u32::MAX);
        let body = w.finish();
        let mut raw = (body.len() as u32).to_le_bytes().to_vec();
        raw.extend_from_slice(&body);
        let mut d = FrameDecoder::new();
        d.push(&raw);
        assert!(matches!(d.next(), Err(FrameError::Malformed(_))));
    }
}
