//! Recovery images: an object's committed state at a checkpoint horizon,
//! in bytes.
//!
//! At a horizon `g` (a GVT: everything received below it is committed
//! everywhere) an object's image holds the newest state snapshot below
//! `g` and the ≤ χ inputs after it, which a restore coasts through; the
//! committed sends crossing `g` that the object keeps track of (its own
//! to other LPs; those from its own LP sit in its input queue), which a
//! restore delivers again; and the digest, committed count and next send
//! serial at `g`. An LP's image is its objects' images in slot order
//! behind a header naming the LP and `g`. The byte layout is in
//! `docs/recovery-store.md`.
//!
//! Decoding is total: any input yields an image or a [`KernelError`],
//! never a panic, and allocates no more than the input's length
//! justifies. A decoded image also satisfies everything a restore relies
//! on (ids, orders, which side of the horizon each event lies on).

use crate::error::KernelError;
use crate::event::{Event, EventKey, Sign};
use crate::ids::{LpId, ObjectId};
use crate::object::{DynState, ErasedState};
use crate::queues::state::StatePos;
use crate::time::VirtualTime;
use crate::trace::TraceDigest;
use crate::wire::{
    decode_event, encode_event, read_vt, write_vt, PayloadReader, PayloadWriter, EVENT_WIRE_BYTES,
};

/// One object's image of a horizon (see the module docs).
#[derive(Clone, Debug)]
pub struct ObjectImage {
    /// The object.
    pub id: ObjectId,
    /// Serial of the object's next send: above every serial it has used,
    /// so a restored object never reuses an event id.
    pub serial_next: u64,
    /// Committed events below the horizon.
    pub committed: u64,
    /// Trace digest of the committed events before `inputs`.
    pub digest: TraceDigest,
    /// Position of `state`.
    pub pos: StatePos,
    /// The newest snapshot below the horizon.
    pub state: ErasedState,
    /// Processed inputs from the snapshot's own event up to the horizon,
    /// in key order.
    pub inputs: Vec<Event>,
    /// Committed sends that cross the horizon: the object's own to other
    /// LPs, and those it received from its own LP.
    pub frontier: Vec<Event>,
}

/// An LP's image of a horizon: its objects' images in slot order.
#[derive(Clone, Debug)]
pub struct LpImage {
    /// The LP.
    pub lp: LpId,
    /// The horizon.
    pub horizon: VirtualTime,
    /// One image per object of the LP, in slot order.
    pub objects: Vec<ObjectImage>,
}

/// An object image's fields by reference: what the encoder writes,
/// whether they come from a live runtime's queues or a decoded image.
pub(crate) struct ObjectImageRef<'a, F> {
    pub id: ObjectId,
    pub serial_next: u64,
    pub committed: u64,
    pub digest: TraceDigest,
    pub pos: StatePos,
    pub state: &'a ErasedState,
    pub inputs: &'a [Event],
    pub frontier: F,
}

impl<'a, F: Iterator<Item = &'a Event> + Clone> ObjectImageRef<'a, F> {
    pub(crate) fn encode(self, w: &mut PayloadWriter) {
        w.u32(self.id.0)
            .u64(self.serial_next)
            .u64(self.committed)
            .u64(self.digest.value())
            .u64(self.digest.count());
        write_pos(w, self.pos);
        let mut state = PayloadWriter::new();
        self.state.encode_state(&mut state);
        w.bytes(state.as_bytes());
        w.u32(self.inputs.len() as u32);
        for ev in self.inputs {
            encode_event(w, ev);
        }
        w.u32(self.frontier.clone().count() as u32);
        for ev in self.frontier {
            encode_event(w, ev);
        }
    }
}

fn write_pos(w: &mut PayloadWriter, pos: StatePos) {
    match pos {
        None => {
            w.u8(0);
        }
        Some(k) => {
            w.u8(1);
            write_vt(w, k.recv_time);
            w.u32(k.sender.0).u64(k.content_tag).u64(k.serial);
        }
    }
}

fn read_pos(r: &mut PayloadReader<'_>) -> Result<StatePos, KernelError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(EventKey {
            recv_time: read_vt(r)?,
            sender: ObjectId(r.u32()?),
            content_tag: r.u64()?,
            serial: r.u64()?,
        })),
        other => Err(corrupt(format!("bad state position tag {other:#x}"))),
    }
}

fn corrupt(detail: String) -> KernelError {
    KernelError::CorruptImage(detail)
}

impl ObjectImage {
    /// Append the image's encoding.
    pub fn encode(&self, w: &mut PayloadWriter) {
        ObjectImageRef {
            id: self.id,
            serial_next: self.serial_next,
            committed: self.committed,
            digest: self.digest,
            pos: self.pos,
            state: &self.state,
            inputs: &self.inputs,
            frontier: self.frontier.iter(),
        }
        .encode(w)
    }

    /// Decode object `id`'s image of `horizon`. `proto` is a state of
    /// the object's own type, which the state bytes must decode as.
    pub fn decode(
        r: &mut PayloadReader<'_>,
        id: ObjectId,
        horizon: VirtualTime,
        proto: &dyn DynState,
    ) -> Result<Self, KernelError> {
        let got = ObjectId(r.u32()?);
        if got != id {
            return Err(corrupt(format!("image of {got} where {id} was expected")));
        }
        let serial_next = r.u64()?;
        let committed = r.u64()?;
        let digest = TraceDigest::resume(r.u64()?, r.u64()?);
        let pos = read_pos(r)?;
        if pos.is_some_and(|k| k.recv_time >= horizon) {
            return Err(corrupt(format!("{id}: snapshot at or past the horizon")));
        }
        let mut sr = PayloadReader::new(r.bytes()?);
        let state = proto.decode_like(&mut sr)?;
        if sr.remaining() != 0 {
            return Err(corrupt(format!("{id}: state has trailing bytes")));
        }

        let n = r.count(EVENT_WIRE_BYTES)?;
        let mut inputs: Vec<Event> = Vec::with_capacity(n);
        for _ in 0..n {
            let ev = decode_event(r)?;
            let ordered = inputs.last().is_none_or(|prev| prev.key() < ev.key());
            if ev.dst != id || ev.sign != Sign::Positive || ev.recv_time >= horizon || !ordered {
                return Err(corrupt(format!(
                    "{id}: input {:?} at {} out of place",
                    ev.id, ev.recv_time
                )));
            }
            inputs.push(ev);
        }
        if let Some(k) = pos {
            if inputs.first().is_none_or(|e| e.key() != k) {
                return Err(corrupt(format!(
                    "{id}: inputs do not start at the snapshot's event"
                )));
            }
        }

        let m = r.count(EVENT_WIRE_BYTES)?;
        let mut frontier: Vec<Event> = Vec::with_capacity(m);
        for _ in 0..m {
            let ev = decode_event(r)?;
            let ours = ev.id.sender == id || ev.dst == id;
            if !ours
                || ev.sign != Sign::Positive
                || ev.send_time >= horizon
                || ev.recv_time < horizon
            {
                return Err(corrupt(format!(
                    "{id}: frontier send {:?} at {} out of place",
                    ev.id, ev.recv_time
                )));
            }
            frontier.push(ev);
        }
        Ok(ObjectImage {
            id,
            serial_next,
            committed,
            digest,
            pos,
            state,
            inputs,
            frontier,
        })
    }
}

/// Write an LP image's header; the object images follow.
pub(crate) fn write_lp_header(w: &mut PayloadWriter, lp: LpId, horizon: VirtualTime, n: usize) {
    w.u32(lp.0);
    write_vt(w, horizon);
    w.u32(n as u32);
}

impl LpImage {
    /// Encode the image (the bytes [`crate::LpRuntime::checkpoint`]
    /// produces for the same content).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        write_lp_header(&mut w, self.lp, self.horizon, self.objects.len());
        for o in &self.objects {
            o.encode(&mut w);
        }
        w.finish().into_vec()
    }

    /// Decode LP `lp`'s image. `protos` gives each of the LP's objects,
    /// in slot order, with a state of its type.
    pub fn decode(
        bytes: &[u8],
        lp: LpId,
        protos: &[(ObjectId, &dyn DynState)],
    ) -> Result<Self, KernelError> {
        let mut r = PayloadReader::new(bytes);
        let got = LpId(r.u32()?);
        if got != lp {
            return Err(corrupt(format!("image of {got} where {lp} was expected")));
        }
        let horizon = read_vt(&mut r)?;
        if horizon.is_infinite() {
            return Err(corrupt("image of an infinite horizon".into()));
        }
        let n = r.u32()? as usize;
        if n != protos.len() {
            return Err(corrupt(format!(
                "{lp}: image of {n} objects, the LP has {}",
                protos.len()
            )));
        }
        let objects = protos
            .iter()
            .map(|&(id, proto)| ObjectImage::decode(&mut r, id, horizon, proto))
            .collect::<Result<Vec<_>, _>>()?;
        if r.remaining() != 0 {
            return Err(corrupt(format!("{lp}: image has trailing bytes")));
        }
        Ok(LpImage {
            lp,
            horizon,
            objects,
        })
    }
}
