//! Events and anti-messages.
//!
//! An event is a time-stamped message from one simulation object to
//! another (possibly itself). Under Time Warp every sent event may later
//! prove premature, so each positive event has a potential *anti-message*
//! twin: an identical envelope with negative sign whose arrival annihilates
//! the positive copy (and rolls the receiver back if the positive had
//! already been executed).

use crate::ids::ObjectId;
use crate::time::VirtualTime;
use core::fmt;
use serde::{Deserialize, Serialize};

/// Sign of a message: ordinary event or its cancelling anti-message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Sign {
    /// An ordinary application event.
    Positive,
    /// The annihilating twin of a previously sent positive event.
    Anti,
}

/// Globally unique identity of a *send*: the sending object plus a
/// per-sender serial number. An anti-message carries the same `EventId`
/// as the positive message it cancels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventId {
    /// Object that sent the message.
    pub sender: ObjectId,
    /// Per-sender serial number, strictly increasing over the sender's
    /// (committed and rolled-back) lifetime — never reused, so a serial
    /// identifies one send even across rollbacks.
    pub serial: u64,
}

/// Total order key for events at a receiver.
///
/// Virtual time alone is only a partial order: simultaneous events must
/// still be processed in a deterministic sequence for runs to be
/// reproducible and for the sequential golden model to agree with the
/// optimistic executions. Ties break on sender id, then a *content tag*,
/// then the serial.
///
/// The content tag matters because serials are rollback-volatile: under
/// lazy cancellation a kept-back original retains its old (small) serial
/// while interleaved regenerated messages get fresh (large) ones, so two
/// same-sender same-time messages could commit in a different relative
/// order than the sequential engine's — observably so when their
/// contents differ. Ordering by content hash first makes equal-time
/// ordering independent of serial assignment; the serial only breaks
/// ties between *content-identical* messages, whose relative order is
/// semantically irrelevant. (Distinct contents colliding in the 64-bit
/// tag would re-expose the serial order; at ~2⁻⁶⁴ per same-sender
/// same-time pair this is ignored.)
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventKey {
    /// Receive (execution) time of the event.
    pub recv_time: VirtualTime,
    /// Sending object (first tie-break).
    pub sender: ObjectId,
    /// Content hash (second tie-break; see type docs).
    pub content_tag: u64,
    /// Sender serial (final tie-break).
    pub serial: u64,
}

/// A time-stamped event message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Unique send identity; shared between a positive and its anti twin.
    pub id: EventId,
    /// Destination simulation object.
    pub dst: ObjectId,
    /// Sender's LVT at the moment of sending.
    pub send_time: VirtualTime,
    /// Virtual time at which the destination must execute the event.
    pub recv_time: VirtualTime,
    /// Positive event or anti-message.
    pub sign: Sign,
    /// Application-defined message discriminant.
    pub kind: u16,
    /// Content tag for equal-time ordering (see [`EventKey`]). Computed
    /// with [`Event::tag_for`] at construction; an anti-message copies
    /// its positive twin's tag so both occupy the same key.
    pub content_tag: u64,
    /// Canonical payload bytes (see [`crate::wire`]).
    pub payload: Payload,
}

/// Fixed per-event envelope size in bytes, used by the communication cost
/// model: id (12) + dst (4) + two timestamps (16) + sign/kind (3).
pub const EVENT_HEADER_BYTES: usize = 35;

impl Event {
    /// Construct a positive event, computing its content tag.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: EventId,
        dst: ObjectId,
        send_time: VirtualTime,
        recv_time: VirtualTime,
        kind: u16,
        payload: impl Into<Payload>,
    ) -> Event {
        let payload = payload.into();
        let content_tag = Event::tag_for(kind, &payload);
        Event {
            id,
            dst,
            send_time,
            recv_time,
            sign: Sign::Positive,
            kind,
            content_tag,
            payload,
        }
    }

    /// The content tag of a `(kind, payload)` pair: FNV-1a over both.
    pub fn tag_for(kind: u16, payload: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in kind.to_le_bytes().iter().chain(payload.iter()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The receiver-side ordering key.
    #[inline]
    pub fn key(&self) -> EventKey {
        EventKey {
            recv_time: self.recv_time,
            sender: self.id.sender,
            content_tag: self.content_tag,
            serial: self.id.serial,
        }
    }

    /// True iff this is an anti-message.
    #[inline]
    pub fn is_anti(&self) -> bool {
        self.sign == Sign::Anti
    }

    /// Construct the anti-message twin of a positive event. The payload is
    /// dropped: annihilation matches on identity, not content.
    #[must_use]
    pub fn to_anti(&self) -> Event {
        debug_assert_eq!(self.sign, Sign::Positive, "anti of an anti is meaningless");
        Event {
            id: self.id,
            dst: self.dst,
            send_time: self.send_time,
            recv_time: self.recv_time,
            sign: Sign::Anti,
            kind: self.kind,
            // The twin must land on the positive's exact key.
            content_tag: self.content_tag,
            payload: Payload::new(),
        }
    }

    /// Wire size of this event for communication cost accounting.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        EVENT_HEADER_BYTES + self.payload.len()
    }

    /// Content equality as used by lazy cancellation: does a regenerated
    /// message reproduce a prematurely-sent one? Identity (serial) is
    /// deliberately excluded — the regenerated copy has a fresh serial —
    /// while destination, receive time, kind and payload must all match.
    #[inline]
    pub fn same_content(&self, other: &Event) -> bool {
        self.dst == other.dst
            && self.recv_time == other.recv_time
            && self.kind == other.kind
            && self.payload == other.payload
    }
}

/// Payload bytes a [`Payload`] holds in place, without a heap block:
/// enough for every message of the benchmark models (SMMP's 28-byte
/// token is the largest), and what keeps an [`Event`] within 80 bytes.
pub const INLINE_PAYLOAD_BYTES: usize = 30;

/// An event's payload: up to [`INLINE_PAYLOAD_BYTES`] bytes stored in
/// place, longer ones on the heap. Sending, copying into the output
/// queue and decoding a short payload off the wire therefore allocate
/// nothing. It reads as a `[u8]` ([`Deref`](core::ops::Deref)); equality
/// is byte equality, whichever way the bytes are stored.
#[derive(Clone)]
pub struct Payload(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [u8; INLINE_PAYLOAD_BYTES],
    },
    Heap(Vec<u8>),
}

impl Payload {
    /// The empty payload.
    pub const fn new() -> Self {
        Payload(Repr::Inline {
            len: 0,
            buf: [0; INLINE_PAYLOAD_BYTES],
        })
    }

    /// An empty payload with room for `n` bytes: in place up to
    /// [`INLINE_PAYLOAD_BYTES`], else a heap block of that capacity.
    #[inline]
    pub fn with_capacity(n: usize) -> Self {
        if n <= INLINE_PAYLOAD_BYTES {
            Payload::new()
        } else {
            Payload(Repr::Heap(Vec::with_capacity(n)))
        }
    }

    /// A payload that keeps `buf`'s heap block, whatever its length, so
    /// [`into_vec`](Self::into_vec) hands the same block back.
    pub(crate) fn on_heap(buf: Vec<u8>) -> Self {
        Payload(Repr::Heap(buf))
    }

    /// Whether the bytes are stored in place (no heap block).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Append `bytes`, moving to the heap once the total outgrows the
    /// inline buffer.
    #[inline]
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        if let Repr::Inline { len, buf } = &mut self.0 {
            let n = *len as usize;
            if let Some(dst) = buf.get_mut(n..n + bytes.len()) {
                dst.copy_from_slice(bytes);
                *len += bytes.len() as u8;
                return;
            }
            self.spill(bytes.len());
        }
        if let Repr::Heap(v) = &mut self.0 {
            v.extend_from_slice(bytes);
        }
    }

    /// Make room for `n` more bytes.
    pub fn reserve(&mut self, n: usize) {
        match &mut self.0 {
            Repr::Heap(v) => v.reserve(n),
            Repr::Inline { len, .. } => {
                if *len as usize + n > INLINE_PAYLOAD_BYTES {
                    self.spill(n);
                }
            }
        }
    }

    /// Move the inline bytes to a heap block with room for `more` bytes
    /// after them.
    #[cold]
    fn spill(&mut self, more: usize) {
        let mut v = Vec::with_capacity((self.len() + more).max(2 * INLINE_PAYLOAD_BYTES));
        v.extend_from_slice(self);
        self.0 = Repr::Heap(v);
    }

    /// The bytes as a `Vec`: the heap block itself when there is one.
    pub fn into_vec(self) -> Vec<u8> {
        match self.0 {
            Repr::Inline { len, buf } => buf[..len as usize].to_vec(),
            Repr::Heap(v) => v,
        }
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::new()
    }
}

impl core::ops::Deref for Payload {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        let mut p = Payload::with_capacity(bytes.len());
        p.extend_from_slice(bytes);
        p
    }
}

impl From<Vec<u8>> for Payload {
    /// Short vectors are copied in place (and their block freed); longer
    /// ones are kept as they are.
    fn from(v: Vec<u8>) -> Self {
        if v.len() <= INLINE_PAYLOAD_BYTES {
            Payload::from(&v[..])
        } else {
            Payload(Repr::Heap(v))
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(sender: u32, serial: u64, dst: u32, st: u64, rt: u64) -> Event {
        Event::new(
            EventId {
                sender: ObjectId(sender),
                serial,
            },
            ObjectId(dst),
            VirtualTime::new(st),
            VirtualTime::new(rt),
            1,
            vec![1, 2, 3],
        )
    }

    #[test]
    fn key_orders_by_time_then_sender_then_serial() {
        let a = ev(0, 5, 9, 0, 10).key();
        let b = ev(1, 0, 9, 0, 10).key();
        let c = ev(0, 6, 9, 0, 11).key();
        assert!(a < b, "same time: lower sender first");
        assert!(b < c, "earlier time first");
        let d = ev(0, 6, 9, 0, 10).key();
        assert!(a < d, "same time+sender: lower serial first");
    }

    #[test]
    fn anti_twin_shares_identity() {
        let e = ev(2, 7, 3, 4, 9);
        let a = e.to_anti();
        assert_eq!(a.id, e.id);
        assert_eq!(a.key(), e.key());
        assert!(a.is_anti());
        assert!(a.payload.is_empty());
        assert_eq!(a.recv_time, e.recv_time);
    }

    #[test]
    fn same_content_ignores_identity() {
        let e1 = ev(2, 7, 3, 4, 9);
        let mut e2 = ev(2, 99, 3, 5, 9); // different serial and send time
        assert!(e1.same_content(&e2));
        e2.payload = vec![9].into();
        assert!(!e1.same_content(&e2));
        let mut e3 = ev(2, 7, 4, 4, 9); // different destination
        assert!(!e1.same_content(&e3));
        e3.dst = ObjectId(3);
        e3.recv_time = VirtualTime::new(10);
        assert!(!e1.same_content(&e3));
    }

    #[test]
    fn an_event_with_its_payload_in_place_fits_80_bytes() {
        assert_eq!(std::mem::size_of::<Payload>(), INLINE_PAYLOAD_BYTES + 2);
        assert!(std::mem::size_of::<Event>() <= 80);
    }

    #[test]
    fn payloads_of_30_bytes_stay_in_place_and_31_spill() {
        assert_eq!(INLINE_PAYLOAD_BYTES, 30);
        let short = Payload::from(&[7u8; INLINE_PAYLOAD_BYTES][..]);
        assert!(short.is_inline());
        let long = Payload::from(&[7u8; INLINE_PAYLOAD_BYTES + 1][..]);
        assert!(!long.is_inline());
        // Growing across the boundary spills and keeps every byte.
        let mut grown = short.clone();
        grown.extend_from_slice(&[7]);
        assert!(!grown.is_inline());
        assert_eq!(grown, long);
        assert_eq!(grown.into_vec(), vec![7u8; INLINE_PAYLOAD_BYTES + 1]);
        assert!(Payload::from(vec![1; INLINE_PAYLOAD_BYTES]).is_inline());
    }

    #[test]
    fn size_accounts_header_and_payload() {
        let e = ev(0, 0, 0, 0, 1);
        assert_eq!(e.size_bytes(), EVENT_HEADER_BYTES + 3);
        assert_eq!(e.to_anti().size_bytes(), EVENT_HEADER_BYTES);
    }
}
