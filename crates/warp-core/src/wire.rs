//! Deterministic, byte-stable payload encoding for event messages.
//!
//! Lazy cancellation decides whether a regenerated message equals a
//! previously-sent one by comparing the two messages' *contents*. For that
//! comparison to be meaningful the encoding must be canonical: the same
//! logical value always produces the same bytes, on every platform. These
//! little-endian writer/reader helpers give models exactly that without
//! pulling in a serialization framework on the hot path.

use crate::error::KernelError;
use crate::event::{Event, EventId, Payload, Sign};
use crate::ids::ObjectId;
use crate::time::VirtualTime;

/// Append-only canonical encoder. It writes into a [`Payload`], so a
/// message of up to [`crate::event::INLINE_PAYLOAD_BYTES`] bytes is
/// encoded without touching the heap.
#[derive(Debug, Default, Clone)]
pub struct PayloadWriter {
    buf: Payload,
}

impl PayloadWriter {
    /// New empty writer.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// New writer with pre-reserved capacity.
    #[inline]
    pub fn with_capacity(n: usize) -> Self {
        PayloadWriter {
            buf: Payload::with_capacity(n),
        }
    }

    /// A writer that continues at the end of `buf`, keeping its bytes
    /// and its capacity ([`finish`](Self::finish) hands both back, and
    /// [`Payload::into_vec`] the block itself).
    pub fn appending_to(buf: Vec<u8>) -> Self {
        PayloadWriter {
            buf: Payload::on_heap(buf),
        }
    }

    /// Finish and take the encoded bytes.
    #[inline]
    pub fn finish(self) -> Payload {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Write a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.extend_from_slice(&[v]);
        self
    }

    /// Write a `u16` (little-endian).
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a `u32` (little-endian).
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write a `u64` (little-endian).
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an `i64` (little-endian, two's complement).
    #[inline]
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Write an `f64` as its IEEE-754 bit pattern. NaNs are canonicalized
    /// so logically-equal payloads stay byte-equal.
    #[inline]
    pub fn f64(&mut self, v: f64) -> &mut Self {
        let bits = if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        };
        self.buf.extend_from_slice(&bits.to_le_bytes());
        self
    }

    /// Write a length-prefixed byte slice.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Write raw bytes with no length prefix (fixed-layout records).
    #[inline]
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Write a `bool` as one byte (0 or 1).
    #[inline]
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(v as u8)
    }

    /// Write a length-prefixed `u64` sequence.
    pub fn u64s(&mut self, v: &[u64]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.reserve(v.len() * 8);
        for x in v {
            self.u64(*x);
        }
        self
    }

    /// Pre-reserve space for `n` more bytes (codec call sites that know
    /// their exact encoded size, e.g. via [`encoded_event_len`]).
    pub fn reserve(&mut self, n: usize) -> &mut Self {
        self.buf.reserve(n);
        self
    }
}

/// Sequential canonical decoder over a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Start reading from the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], KernelError> {
        if self.remaining() < n {
            return Err(KernelError::PayloadUnderrun {
                wanted: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, KernelError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, KernelError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, KernelError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, KernelError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `i64`.
    pub fn i64(&mut self) -> Result<i64, KernelError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64`.
    pub fn f64(&mut self) -> Result<f64, KernelError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], KernelError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Read a `bool` written by [`PayloadWriter::bool`]; any byte but 0
    /// or 1 is an error.
    pub fn bool(&mut self) -> Result<bool, KernelError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(KernelError::InvalidConfig(format!(
                "invalid bool byte {other:#x} on the wire"
            ))),
        }
    }

    /// Read an item count (a `u32`) and refuse one whose items, each at
    /// least `min_item_bytes` long, the remaining input cannot hold. A
    /// decoder that sizes an allocation by the count then never
    /// allocates more than its input justifies.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, KernelError> {
        let n = self.u32()? as usize;
        let needed = n.saturating_mul(min_item_bytes.max(1));
        if needed > self.remaining() {
            return Err(KernelError::PayloadUnderrun {
                wanted: needed,
                available: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Read a sequence written by [`PayloadWriter::u64s`].
    pub fn u64s(&mut self) -> Result<Vec<u64>, KernelError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.u64()).collect()
    }
}

/// Append a virtual time as raw ticks (infinity travels as `u64::MAX`).
pub fn write_vt(w: &mut PayloadWriter, t: VirtualTime) {
    w.u64(t.ticks());
}

/// Read a virtual time written by [`write_vt`].
pub fn read_vt(r: &mut PayloadReader<'_>) -> Result<VirtualTime, KernelError> {
    Ok(VirtualTime::from_ticks(r.u64()?))
}

/// Byte length of the fixed (Pod-style) event envelope that precedes
/// the payload on the wire and in checkpoints. Layout, all
/// little-endian, offsets in bytes:
///
/// ```text
/// 0        4        12       16       24       32   33   35       43       47
/// | sender | serial | dst    | send_vt| recv_vt|sign|kind| tag    | len    | payload...
/// |  u32   |  u64   |  u32   |  u64   |  u64   | u8 |u16 |  u64   |  u32   |
/// ```
///
/// Distinct from [`crate::event::EVENT_HEADER_BYTES`], which is the
/// paper's *modeled* per-message overhead used by the cost model.
pub const EVENT_WIRE_BYTES: usize = 47;

/// Exact encoded size of an event: fixed envelope + payload.
pub fn encoded_event_len(e: &Event) -> usize {
    EVENT_WIRE_BYTES + e.payload.len()
}

/// Append a full event envelope + payload in canonical form. The
/// `content_tag` is carried verbatim rather than recomputed on decode:
/// an anti-message's tag is its positive twin's, not a function of its
/// own (empty) payload.
///
/// The envelope is assembled in a fixed-layout stack buffer and copied
/// in one append ([`EVENT_WIRE_BYTES`] has the byte diagram); the bytes
/// are identical to the former field-by-field encoding.
pub fn encode_event(w: &mut PayloadWriter, e: &Event) {
    let mut h = [0u8; EVENT_WIRE_BYTES];
    h[0..4].copy_from_slice(&e.id.sender.0.to_le_bytes());
    h[4..12].copy_from_slice(&e.id.serial.to_le_bytes());
    h[12..16].copy_from_slice(&e.dst.0.to_le_bytes());
    h[16..24].copy_from_slice(&e.send_time.ticks().to_le_bytes());
    h[24..32].copy_from_slice(&e.recv_time.ticks().to_le_bytes());
    h[32] = match e.sign {
        Sign::Positive => 0,
        Sign::Anti => 1,
    };
    h[33..35].copy_from_slice(&e.kind.to_le_bytes());
    h[35..43].copy_from_slice(&e.content_tag.to_le_bytes());
    h[43..47].copy_from_slice(&(e.payload.len() as u32).to_le_bytes());
    w.reserve(EVENT_WIRE_BYTES + e.payload.len());
    w.raw(&h);
    w.raw(&e.payload);
}

#[inline]
fn le_u32(h: &[u8; EVENT_WIRE_BYTES], at: usize) -> u32 {
    u32::from_le_bytes(h[at..at + 4].try_into().expect("fixed offset"))
}

#[inline]
fn le_u64(h: &[u8; EVENT_WIRE_BYTES], at: usize) -> u64 {
    u64::from_le_bytes(h[at..at + 8].try_into().expect("fixed offset"))
}

/// Decode an event written by [`encode_event`]: one bounds check for
/// the whole fixed envelope, then field reads at fixed offsets, then
/// one bounds-checked payload copy.
pub fn decode_event(r: &mut PayloadReader<'_>) -> Result<Event, KernelError> {
    let h: &[u8; EVENT_WIRE_BYTES] = r
        .take(EVENT_WIRE_BYTES)?
        .try_into()
        .expect("take returns exactly EVENT_WIRE_BYTES");
    let sign = match h[32] {
        0 => Sign::Positive,
        1 => Sign::Anti,
        other => {
            return Err(KernelError::InvalidConfig(format!(
                "invalid event sign byte {other:#x} on the wire"
            )))
        }
    };
    let len = le_u32(h, 43) as usize;
    let payload = Payload::from(r.take(len)?);
    Ok(Event {
        id: EventId {
            sender: ObjectId(le_u32(h, 0)),
            serial: le_u64(h, 4),
        },
        dst: ObjectId(le_u32(h, 12)),
        send_time: VirtualTime::from_ticks(le_u64(h, 16)),
        recv_time: VirtualTime::from_ticks(le_u64(h, 24)),
        sign,
        kind: u16::from_le_bytes(h[33..35].try_into().expect("fixed offset")),
        content_tag: le_u64(h, 35),
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_scalars() {
        let mut w = PayloadWriter::new();
        w.u8(7)
            .u16(300)
            .u32(70_000)
            .u64(1 << 40)
            .i64(-12345)
            .f64(2.5)
            .bytes(b"hello");
        let buf = w.finish();
        let mut r = PayloadReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i64().unwrap(), -12345);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn identical_values_encode_identically() {
        let enc = |x: u64, f: f64| {
            let mut w = PayloadWriter::new();
            w.u64(x).f64(f);
            w.finish()
        };
        assert_eq!(enc(9, 1.25), enc(9, 1.25));
        assert_ne!(enc(9, 1.25), enc(10, 1.25));
        // NaN canonicalization keeps equal-looking payloads byte-equal.
        assert_eq!(
            enc(1, f64::NAN),
            enc(1, f64::from_bits(0x7FF8_0000_0000_0001))
        );
    }

    #[test]
    fn underrun_is_an_error_not_a_panic() {
        let buf = [1u8, 2];
        let mut r = PayloadReader::new(&buf);
        assert!(r.u32().is_err());
        // Failed read consumes nothing.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.u16().unwrap(), 0x0201);
    }

    #[test]
    fn length_prefix_bounds_checked() {
        let mut w = PayloadWriter::new();
        w.u32(100); // lie about the length
        let buf = w.finish();
        let mut r = PayloadReader::new(&buf);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn event_round_trips_positive_and_anti() {
        let e = Event::new(
            EventId {
                sender: ObjectId(3),
                serial: 77,
            },
            ObjectId(9),
            VirtualTime::new(10),
            VirtualTime::new(25),
            4,
            vec![1, 2, 3, 4, 5],
        );
        for msg in [e.clone(), e.to_anti()] {
            let mut w = PayloadWriter::new();
            encode_event(&mut w, &msg);
            let buf = w.finish();
            let mut r = PayloadReader::new(&buf);
            let back = decode_event(&mut r).unwrap();
            assert_eq!(back, msg);
            assert_eq!(r.remaining(), 0);
            // The ordering key survives the wire — anti twins included,
            // whose tag is not derivable from their own payload.
            assert_eq!(back.key(), msg.key());
        }
    }

    #[test]
    fn vt_round_trips_infinity() {
        let mut w = PayloadWriter::new();
        write_vt(&mut w, VirtualTime::INFINITY);
        write_vt(&mut w, VirtualTime::new(42));
        let buf = w.finish();
        let mut r = PayloadReader::new(&buf);
        assert_eq!(read_vt(&mut r).unwrap(), VirtualTime::INFINITY);
        assert_eq!(read_vt(&mut r).unwrap(), VirtualTime::new(42));
    }

    #[test]
    fn truncated_event_is_an_error() {
        let e = Event::new(
            EventId {
                sender: ObjectId(0),
                serial: 1,
            },
            ObjectId(1),
            VirtualTime::ZERO,
            VirtualTime::new(5),
            0,
            vec![9; 16],
        );
        let mut w = PayloadWriter::new();
        encode_event(&mut w, &e);
        let buf = w.finish();
        for cut in [0, 1, 10, buf.len() - 1] {
            let mut r = PayloadReader::new(&buf[..cut]);
            assert!(decode_event(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn pod_envelope_layout_is_pinned() {
        // Golden bytes: the fixed-layout fast path must stay identical
        // to the original field-by-field encoding (wire protocol and
        // checkpoint compatibility).
        let e = Event {
            id: EventId {
                sender: ObjectId(0x0102_0304),
                serial: 0x1112_1314_1516_1718,
            },
            dst: ObjectId(0x2122_2324),
            send_time: VirtualTime::new(0x3132_3334_3536_3738),
            recv_time: VirtualTime::new(0x4142_4344_4546_4748),
            sign: Sign::Anti,
            kind: 0x5152,
            content_tag: 0x6162_6364_6566_6768,
            payload: vec![0xAA, 0xBB].into(),
        };
        let mut w = PayloadWriter::new();
        encode_event(&mut w, &e);
        let buf = w.finish();
        assert_eq!(buf.len(), EVENT_WIRE_BYTES + 2);
        assert_eq!(buf.len(), encoded_event_len(&e));
        // Reference encoding via the generic writer, field by field.
        let mut r = PayloadWriter::new();
        r.u32(e.id.sender.0).u64(e.id.serial).u32(e.dst.0);
        r.u64(e.send_time.ticks()).u64(e.recv_time.ticks());
        r.u8(1).u16(e.kind).u64(e.content_tag).bytes(&e.payload);
        assert_eq!(buf, r.finish());
        // Spot-check the documented offsets.
        assert_eq!(&buf[0..4], &0x0102_0304u32.to_le_bytes());
        assert_eq!(buf[32], 1, "sign byte at offset 32");
        assert_eq!(&buf[33..35], &0x5152u16.to_le_bytes());
        assert_eq!(&buf[43..47], &2u32.to_le_bytes());
    }

    #[test]
    fn bad_sign_byte_rejected() {
        let e = Event::new(
            EventId {
                sender: ObjectId(0),
                serial: 1,
            },
            ObjectId(1),
            VirtualTime::ZERO,
            VirtualTime::new(5),
            0,
            vec![],
        );
        let mut w = PayloadWriter::new();
        encode_event(&mut w, &e);
        let mut buf = w.finish().into_vec();
        buf[32] = 7; // the sign byte: 4+8+4+8+8 = 32 bytes in
        let mut r = PayloadReader::new(&buf);
        assert!(matches!(
            decode_event(&mut r),
            Err(KernelError::InvalidConfig(_))
        ));
    }
}
