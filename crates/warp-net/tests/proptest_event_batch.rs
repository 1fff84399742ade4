//! Property: an `EventBatch` is its events. Holding a lone event in place
//! or several in a heap block, it reads, iterates, compares, costs and
//! wire-encodes exactly as the `Vec<Event>` it replaced, for none, one
//! and many events.

use proptest::prelude::*;
use warp_core::event::EventId;
use warp_core::wire::{encode_event, PayloadWriter};
use warp_core::{CostModel, Event, LpId, ObjectId, Sign, VirtualTime};
use warp_net::frame::{Frame, FrameDecoder};
use warp_net::{EventBatch, PhysMsg};

fn arb_event() -> impl Strategy<Value = Event> {
    (
        any::<u32>(),
        any::<u64>(),
        0u64..1 << 40, // receive time
        proptest::collection::vec(any::<u8>(), 0..40),
        any::<bool>(),
    )
        .prop_map(|(sender, serial, rt, payload, anti)| {
            let e = Event::new(
                EventId {
                    sender: ObjectId(sender),
                    serial,
                },
                ObjectId(sender ^ 1),
                VirtualTime::new(rt / 2),
                VirtualTime::new(rt),
                7,
                payload,
            );
            if anti {
                e.to_anti()
            } else {
                e
            }
        })
}

/// What `PhysMsg::min_recv_time` computed over a `Vec<Event>`.
fn min_recv_time(events: &[Event]) -> VirtualTime {
    events
        .iter()
        .map(|e| e.recv_time)
        .fold(VirtualTime::INFINITY, VirtualTime::min)
}

/// What `PhysMsg::payload_bytes` computed over a `Vec<Event>`.
fn payload_bytes(events: &[Event]) -> usize {
    events.iter().map(Event::size_bytes).sum()
}

/// What `PhysMsg::transit_time` computed over a `Vec<Event>`: the
/// jitter's salt is the first event's identity.
fn transit_time(events: &[Event], cost: &CostModel) -> f64 {
    let salt = events
        .first()
        .map(|e| {
            (e.id.sender.0 as u64) << 32
                ^ e.id.serial.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (e.sign == Sign::Anti) as u64
        })
        .unwrap_or(0);
    cost.transit_time_jittered(payload_bytes(events), salt)
}

/// A `Data` frame written field by field from a `Vec<Event>`: the
/// encoding before `EventBatch` existed.
fn data_frame(seq: u64, epoch: u32, src: u32, dst: u32, events: &[Event]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u8(2).u64(seq).u32(epoch).u32(src).u32(dst);
    w.u32(events.len() as u32);
    for e in events {
        encode_event(&mut w, e);
    }
    let body = w.finish();
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
}

proptest! {
    #[test]
    fn an_event_batch_is_the_vector_it_replaces(
        events in proptest::collection::vec(arb_event(), 2..6),
        seq in any::<u64>(),
        epoch in any::<u32>(),
    ) {
        let cost = CostModel::sparc_now_10mbps();
        for len in 0..=events.len() {
            let v = events[..len].to_vec();
            // The ways a batch is built: from a vector (tests, the
            // decoder's many-event path), collected (the aggregator's
            // flush), and a lone event in place.
            let mut batches = vec![EventBatch::from(v.clone()), v.iter().cloned().collect()];
            if len == 1 {
                batches.push(EventBatch::one(v[0].clone()));
            }
            for batch in batches {
                prop_assert_eq!(batch.is_inline(), len == 1);
                prop_assert_eq!(&*batch, &v[..]);
                prop_assert_eq!((&batch).into_iter().collect::<Vec<_>>(), v.iter().collect::<Vec<_>>());
                let by_value = batch.clone().into_iter();
                prop_assert_eq!(by_value.size_hint(), (len, Some(len)));
                prop_assert_eq!(by_value.collect::<Vec<_>>(), v.clone());
                // Equality is the events', however they are stored.
                prop_assert_eq!(&batch, &EventBatch::from(v.clone()));
                for other in 0..=events.len() {
                    let w: EventBatch = events[..other].iter().cloned().collect();
                    prop_assert_eq!(batch == w, other == len);
                }

                let msg = PhysMsg { src: LpId(3), dst: LpId(4), events: batch };
                prop_assert_eq!(msg.min_recv_time(), min_recv_time(&v));
                prop_assert_eq!(msg.payload_bytes(), payload_bytes(&v));
                prop_assert_eq!(msg.transit_time(&cost).to_bits(), transit_time(&v, &cost).to_bits());

                let frame = Frame::Data { seq, epoch, msg };
                let bytes = frame.encode();
                prop_assert_eq!(&bytes, &data_frame(seq, epoch, 3, 4, &v));
                let mut decoder = FrameDecoder::new();
                decoder.push(&bytes);
                let back = decoder.next().expect("a well-formed frame");
                if let Some(Frame::Data { msg, .. }) = &back {
                    prop_assert_eq!(msg.events.is_inline(), len == 1);
                }
                prop_assert_eq!(back, Some(frame));
            }
        }
    }
}
