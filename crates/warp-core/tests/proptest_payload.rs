//! Property: a `Payload` is its bytes. Stored in place or spilled to the
//! heap, it compares, tags and wire-encodes exactly as the `Vec<u8>` it
//! replaced, over every length from empty to past twice the inline size.

use proptest::prelude::*;
use warp_core::event::{Event, EventId, Payload, INLINE_PAYLOAD_BYTES};
use warp_core::wire::{decode_event, encode_event, PayloadReader, PayloadWriter};
use warp_core::{ObjectId, VirtualTime};

fn event(payload: Payload) -> Event {
    Event::new(
        EventId {
            sender: ObjectId(3),
            serial: 77,
        },
        ObjectId(9),
        VirtualTime::new(10),
        VirtualTime::new(25),
        4,
        payload,
    )
}

/// The envelope and payload field by field, with the payload as a
/// length-prefixed `Vec<u8>`: the encoding before `Payload` existed.
fn reference_encoding(e: &Event, bytes: &[u8]) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    w.u32(e.id.sender.0).u64(e.id.serial).u32(e.dst.0);
    w.u64(e.send_time.ticks()).u64(e.recv_time.ticks());
    w.u8(0).u16(e.kind).u64(e.content_tag).bytes(bytes);
    w.finish().into_vec()
}

proptest! {
    #[test]
    fn payloads_in_place_or_spilled_are_the_bytes_they_replace(
        content in proptest::collection::vec(any::<u8>(), 64),
        other in proptest::collection::vec(any::<u8>(), 0..=64),
    ) {
        for len in 0..=64 {
            let bytes = content[..len].to_vec();
            // The three ways a payload is built: from a slice (the wire
            // decoder), by a writer (a model's send), from a vector.
            let from_slice = Payload::from(&bytes[..]);
            let mut writer = PayloadWriter::new();
            writer.raw(&bytes);
            let written = writer.finish();
            let from_vec = Payload::from(bytes.clone());
            // And one forced onto the heap whatever its length.
            let mut spilled = Payload::with_capacity(2 * INLINE_PAYLOAD_BYTES + 1);
            spilled.extend_from_slice(&bytes);
            prop_assert!(!spilled.is_inline());

            let inline = bytes.len() <= INLINE_PAYLOAD_BYTES;
            for p in [&from_slice, &written, &from_vec] {
                prop_assert_eq!(p.is_inline(), inline);
            }
            for p in [&from_slice, &written, &from_vec, &spilled] {
                prop_assert_eq!(&p[..], &bytes[..]);
                prop_assert_eq!(p, &bytes);
                prop_assert!(*p == from_slice);
                prop_assert_eq!(*p == Payload::from(&other[..]), bytes == other);
                prop_assert_eq!(
                    Event::tag_for(4, p),
                    Event::tag_for(4, &bytes)
                );
                let e = event(p.clone());
                prop_assert!(e.same_content(&event(from_slice.clone())));
                let mut w = PayloadWriter::new();
                encode_event(&mut w, &e);
                let wire = w.finish().into_vec();
                prop_assert_eq!(&wire, &reference_encoding(&e, &bytes));
                let back = decode_event(&mut PayloadReader::new(&wire)).expect("decodes");
                prop_assert_eq!(back.payload.is_inline(), inline);
                prop_assert_eq!(&back, &e);
                prop_assert_eq!(p.clone().into_vec(), bytes.clone());
            }
        }
    }
}
