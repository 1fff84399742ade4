//! Property-based tests: the history queues against naive reference
//! models, under randomized operation sequences.

use proptest::prelude::*;
use warp_core::event::{Event, EventId, EventKey};
use warp_core::object::ObjectState;
use warp_core::queues::{InputQueue, Inserted, StateQueue};
use warp_core::wire::{PayloadReader, PayloadWriter};
use warp_core::{ObjectId, VirtualTime};

fn ev(sender: u32, serial: u64, rt: u64) -> Event {
    Event::new(
        EventId {
            sender: ObjectId(sender),
            serial,
        },
        ObjectId(0),
        VirtualTime::ZERO,
        VirtualTime::new(rt),
        0,
        vec![],
    )
}

/// Strategy: a batch of events with unique (sender, serial) identities
/// and bounded times so collisions in time are common.
fn arb_events(max: usize) -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec((0u32..4, 0u64..64), 1..max).prop_map(|pairs| {
        let mut seen = std::collections::HashSet::new();
        pairs
            .into_iter()
            .enumerate()
            .filter_map(|(i, (sender, rt))| {
                let serial = i as u64;
                if seen.insert((sender, serial)) {
                    Some(ev(sender, serial, rt))
                } else {
                    None
                }
            })
            .collect()
    })
}

proptest! {
    /// Inserting events in any order yields the same processed sequence
    /// as processing the sorted batch.
    #[test]
    fn input_queue_processes_in_key_order(events in arb_events(40)) {
        let mut q = InputQueue::new();
        for e in &events {
            prop_assert!(matches!(q.insert(e.clone()), Inserted::Enqueued));
        }
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| e.key());
        let mut got = Vec::new();
        while q.next_unprocessed().is_some() {
            got.push(q.mark_processed().key());
        }
        prop_assert_eq!(got, sorted.iter().map(|e| e.key()).collect::<Vec<_>>());
    }

    /// Positive/anti pairs always annihilate, whatever the interleaving:
    /// after delivering every positive and every anti (in an arbitrary
    /// interleaving that never processes), the queue is empty.
    #[test]
    fn annihilation_is_complete(
        events in arb_events(24),
        order in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let mut q = InputQueue::new();
        let mut positives: Vec<Event> = events.clone();
        let mut antis: Vec<Event> = events.iter().map(Event::to_anti).collect();
        let mut oi = 0;
        while !positives.is_empty() || !antis.is_empty() {
            let take_pos = order.get(oi).copied().unwrap_or(true);
            oi += 1;
            if take_pos && !positives.is_empty() || antis.is_empty() {
                q.insert(positives.pop().unwrap());
            } else {
                q.insert(antis.pop().unwrap());
            }
        }
        prop_assert!(q.is_empty(), "{} events left", q.len());
        prop_assert_eq!(q.pending_len(), 0);
    }

    /// Straggler classification matches a reference rule: an insert is a
    /// straggler iff its key precedes the last processed key.
    #[test]
    fn straggler_detection_matches_reference(
        batch1 in arb_events(20),
        late_sender in 4u32..6,
        late_rt in 0u64..64,
    ) {
        let mut q = InputQueue::new();
        for e in &batch1 {
            q.insert(e.clone());
        }
        // Process half.
        let n = q.pending_len() / 2;
        for _ in 0..n {
            q.mark_processed();
        }
        let last = q.last_processed_key();
        let late = ev(late_sender, 1_000, late_rt);
        let expect_straggler = last.is_some_and(|k| late.key() < k);
        let got = q.insert(late.clone());
        if expect_straggler {
            prop_assert_eq!(got, Inserted::Straggler(late.key()));
        } else {
            prop_assert_eq!(got, Inserted::Enqueued);
        }
    }

    /// unprocess_from + reprocessing reproduces the same total order.
    #[test]
    fn rollback_preserves_order(events in arb_events(30), cut in 0usize..30) {
        let mut q = InputQueue::new();
        for e in &events {
            q.insert(e.clone());
        }
        let total = q.pending_len();
        let mut first_pass = Vec::new();
        while q.next_unprocessed().is_some() {
            first_pass.push(q.mark_processed().key());
        }
        let cut = cut.min(total.saturating_sub(1));
        if let Some(&key) = first_pass.get(cut) {
            let expected_unprocessed = total - cut;
            let got = q.unprocess_from(EventKey { ..key });
            prop_assert_eq!(got as usize, expected_unprocessed);
            let mut second_pass = Vec::new();
            while q.next_unprocessed().is_some() {
                second_pass.push(q.mark_processed().key());
            }
            prop_assert_eq!(&second_pass[..], &first_pass[cut..]);
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
struct S(u64);
impl ObjectState for S {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u64(self.0);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        Ok(S(r.u64()?))
    }
}

fn key_at(t: u64) -> EventKey {
    EventKey {
        recv_time: VirtualTime::new(t),
        sender: ObjectId(0),
        content_tag: 0,
        serial: t,
    }
}

proptest! {
    /// restore_before matches a linear-scan reference over any save
    /// pattern, before and after fossil collection.
    #[test]
    fn state_queue_restore_matches_reference(
        times in proptest::collection::btree_set(1u64..200, 1..20),
        probe in 1u64..210,
        gvt in 1u64..200,
    ) {
        let times: Vec<u64> = times.into_iter().collect();
        let mut q = StateQueue::new();
        q.save(None, &S(0));
        for &t in &times {
            q.save(Some(key_at(t)), &S(t));
        }

        let reference = |p: u64| -> u64 {
            // Newest snapshot strictly before key_at(p); 0 = initial.
            times.iter().copied().filter(|&t| key_at(t) < key_at(p)).max().unwrap_or(0)
        };

        let (pos, state) = q.restore_before(key_at(probe)).expect("always restorable");
        let expect = reference(probe);
        prop_assert_eq!(state.get::<S>(), &S(expect));
        prop_assert_eq!(pos, if expect == 0 { None } else { Some(key_at(expect)) });

        // Fossil collect at `gvt`, then a probe at or above gvt must
        // still restore correctly.
        if let Some(bound) = q.fossil_bound(VirtualTime::new(gvt)) {
            q.fossil_collect_before(bound);
        }
        let probe2 = probe.max(gvt);
        let (_, state) = q
            .restore_before(key_at(probe2))
            .expect("post-fossil restore above GVT must work");
        prop_assert_eq!(state.get::<S>(), &S(reference(probe2)));
    }

    /// Truncation then re-saving keeps the queue consistent.
    #[test]
    fn state_queue_truncate_then_save(
        times in proptest::collection::btree_set(1u64..100, 2..12),
        cut in 1u64..100,
    ) {
        let times: Vec<u64> = times.into_iter().collect();
        let mut q = StateQueue::new();
        q.save(None, &S(0));
        for &t in &times {
            q.save(Some(key_at(t)), &S(t));
        }
        q.truncate_from(key_at(cut));
        // All retained positions are strictly below the cut.
        for pos in q.positions().into_iter().flatten() {
            prop_assert!(pos < key_at(cut));
        }
        // Saving at the cut position is legal again.
        q.save(Some(key_at(cut)), &S(cut));
        let (pos, _) = q.restore_before(key_at(cut + 1)).unwrap();
        prop_assert_eq!(pos, Some(key_at(cut)));
    }
}

/// A snapshot whose reported size is part of its value, so the byte
/// counter sees snapshots of many sizes.
#[derive(Clone, Debug)]
struct Blob(usize);
impl ObjectState for Blob {
    fn size_bytes(&self) -> usize {
        self.0
    }
    fn encode(&self, w: &mut PayloadWriter) {
        w.u64(self.0 as u64);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        Ok(Blob(r.u64()? as usize))
    }
}

proptest! {
    /// The O(1) running byte counter equals the recomputed sum after any
    /// interleaving of saves, rollback truncations and fossil passes.
    #[test]
    fn state_queue_byte_counter_matches_recomputation(
        ops in proptest::collection::vec((0u8..4, 1u64..40), 1..80),
    ) {
        let mut q = StateQueue::new();
        q.save(None, &Blob(11));
        // Time of the newest retained snapshot (0 = the initial one).
        let mut newest = 0u64;
        for (op, x) in ops {
            match op {
                // Saves outnumber the rest, as in a run.
                0 | 1 => {
                    newest += x;
                    q.save(Some(key_at(newest)), &Blob(x as usize * 17));
                }
                2 => {
                    let cut = newest.saturating_sub(x).max(1);
                    q.truncate_from(key_at(cut));
                    newest = cut - 1;
                }
                _ => {
                    if let Some(bound) = q.fossil_bound(VirtualTime::new(newest.saturating_sub(x))) {
                        q.fossil_collect_before(bound);
                    }
                }
            }
            prop_assert_eq!(q.retained_bytes(), q.bytes());
        }
    }
}
