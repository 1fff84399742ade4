//! Committed-event trace digests.
//!
//! The strongest correctness statement a Time Warp kernel can make is
//! that, per simulation object, the *committed* event history equals the
//! history a sequential simulator produces. This module provides the
//! digest both engines hash their histories with so the comparison is one
//! `u64` per object.
//!
//! The digest deliberately covers only *semantic* content — receive time,
//! sending object, kind, payload — and excludes send serials, which are
//! volatile across rollbacks (a lazily-kept original message and its
//! regenerated twin carry different serials but identical semantics).

use crate::event::Event;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a digest over an event sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceDigest {
    state: u64,
    count: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceDigest {
    /// Fresh digest.
    pub fn new() -> Self {
        TraceDigest {
            state: FNV_OFFSET,
            count: 0,
        }
    }

    #[inline]
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.state ^= x as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold one executed event into the digest.
    pub fn update(&mut self, ev: &Event) {
        self.bytes(&ev.recv_time.ticks().to_le_bytes());
        self.bytes(&ev.id.sender.0.to_le_bytes());
        self.bytes(&ev.kind.to_le_bytes());
        self.bytes(&(ev.payload.len() as u32).to_le_bytes());
        self.bytes(&ev.payload);
        self.count += 1;
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.state
    }

    /// Events folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// A digest resumed from its [`value`](Self::value) and
    /// [`count`](Self::count): a recovery image carries both, and the
    /// fold continues where it stopped.
    pub fn resume(value: u64, count: u64) -> Self {
        TraceDigest {
            state: value,
            count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::ids::ObjectId;
    use crate::time::VirtualTime;

    fn ev(sender: u32, serial: u64, rt: u64, payload: Vec<u8>) -> Event {
        Event::new(
            EventId {
                sender: ObjectId(sender),
                serial,
            },
            ObjectId(0),
            VirtualTime::ZERO,
            VirtualTime::new(rt),
            3,
            payload,
        )
    }

    #[test]
    fn serial_is_excluded_send_semantics_included() {
        let mut a = TraceDigest::new();
        let mut b = TraceDigest::new();
        a.update(&ev(1, 5, 10, vec![1, 2]));
        b.update(&ev(1, 99, 10, vec![1, 2])); // regenerated twin: new serial
        assert_eq!(a.value(), b.value());
        assert_eq!(a.count(), 1);

        let mut c = TraceDigest::new();
        c.update(&ev(1, 5, 10, vec![1, 3]));
        assert_ne!(a.value(), c.value(), "payload matters");
        let mut d = TraceDigest::new();
        d.update(&ev(2, 5, 10, vec![1, 2]));
        assert_ne!(a.value(), d.value(), "sender matters");
        let mut e = TraceDigest::new();
        e.update(&ev(1, 5, 11, vec![1, 2]));
        assert_ne!(a.value(), e.value(), "time matters");
    }

    #[test]
    fn order_sensitive() {
        let x = ev(1, 0, 10, vec![1]);
        let y = ev(1, 1, 20, vec![2]);
        let mut ab = TraceDigest::new();
        ab.update(&x);
        ab.update(&y);
        let mut ba = TraceDigest::new();
        ba.update(&y);
        ba.update(&x);
        assert_ne!(ab.value(), ba.value());
    }

    #[test]
    fn empty_digests_agree() {
        assert_eq!(TraceDigest::new().value(), TraceDigest::new().value());
        assert_eq!(TraceDigest::new().count(), 0);
    }
}
