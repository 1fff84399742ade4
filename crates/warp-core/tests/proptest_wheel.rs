//! Property-based equivalence: the timing-wheel-backed [`InputQueue`]
//! against a naive sorted-`Vec` reference model, under arbitrary
//! interleavings of insert / annihilate / process / rollback / fossil.
//!
//! The reference implements the queue contract the straightforward way
//! (two sorted `Vec`s, binary searches everywhere); the real queue
//! implements it with the hierarchical wheel of
//! `warp_core::queues::wheel`. Every observable — the [`Inserted`]
//! classification, processed order, pending contents, `next_time`,
//! rollback counts — must match after every operation.

use proptest::prelude::*;
use std::collections::HashSet;
use warp_core::event::{Event, EventId, EventKey};
use warp_core::queues::{InputQueue, Inserted};
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

/// The contract, implemented naively: sorted history + sorted pending.
#[derive(Default)]
struct RefQueue {
    history: Vec<Event>,
    pending: Vec<Event>,
    orphans: HashSet<EventId>,
}

impl RefQueue {
    fn insert(&mut self, e: Event) -> Inserted {
        match e.sign {
            warp_core::event::Sign::Positive => {
                if self.orphans.remove(&e.id) {
                    return Inserted::Annihilated;
                }
                let key = e.key();
                let pos = self.pending.partition_point(|p| p.key() < key);
                self.pending.insert(pos, e);
                if self.history.last().is_some_and(|l| key < l.key()) {
                    Inserted::Straggler(key)
                } else {
                    Inserted::Enqueued
                }
            }
            warp_core::event::Sign::Anti => {
                let key = e.key();
                if let Some(i) = self.pending.iter().position(|p| p.key() == key) {
                    self.pending.remove(i);
                    return Inserted::Annihilated;
                }
                if let Some(i) = self.history.iter().position(|p| p.key() == key) {
                    self.history.remove(i);
                    return Inserted::AntiStraggler(key);
                }
                self.orphans.insert(e.id);
                Inserted::OrphanStored
            }
        }
    }

    fn process(&mut self) -> Option<EventKey> {
        if self.pending.is_empty() {
            return None;
        }
        let e = self.pending.remove(0);
        let k = e.key();
        self.history.push(e);
        Some(k)
    }

    fn unprocess_from(&mut self, key: EventKey) -> u64 {
        let first = self.history.partition_point(|e| e.key() < key);
        let moved: Vec<Event> = self.history.drain(first..).collect();
        let n = moved.len();
        self.pending.extend(moved);
        self.pending.sort_by_key(|e| e.key());
        n as u64
    }

    fn fossil_collect_before(&mut self, bound: EventKey) -> u64 {
        let keep = self.history.partition_point(|e| e.key() < bound);
        self.history.drain(..keep);
        keep as u64
    }

    fn next_time(&self) -> VirtualTime {
        self.pending
            .first()
            .map_or(VirtualTime::INFINITY, |e| e.recv_time)
    }
}

/// One scripted operation, decoded from a fuzzed `(selector, index)`
/// pair so the strategy space stays simple under the vendored proptest.
#[derive(Debug, Clone, Copy)]
enum Op {
    InsertNext,
    InsertAnti(usize),
    Process,
    Rollback(usize),
    Fossil,
}

fn decode_ops(raw: &[(u8, u16)]) -> Vec<Op> {
    raw.iter()
        .map(|&(sel, idx)| match sel % 8 {
            0..=2 => Op::InsertNext,
            3 | 4 => Op::Process,
            5 => Op::InsertAnti(idx as usize),
            6 => Op::Rollback(idx as usize),
            _ => Op::Fossil,
        })
        .collect()
}

fn check_equal(q: &InputQueue, r: &RefQueue) -> Result<(), TestCaseError> {
    prop_assert_eq!(q.next_time(), r.next_time(), "next_time diverged");
    prop_assert_eq!(
        q.processed_events()
            .iter()
            .map(|e| e.key())
            .collect::<Vec<_>>(),
        r.history.iter().map(|e| e.key()).collect::<Vec<_>>(),
        "history diverged"
    );
    prop_assert_eq!(
        q.pending().iter().map(|e| e.key()).collect::<Vec<_>>(),
        r.pending.iter().map(|e| e.key()).collect::<Vec<_>>(),
        "pending diverged"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Arbitrary interleavings of insert / annihilate / process /
    /// rollback / fossil produce identical observable state on the
    /// wheel-backed queue and the sorted-`Vec` reference.
    #[test]
    fn wheel_queue_matches_reference_model(
        pool in proptest::collection::vec((0u32..4, 0u64..96), 4..48),
        raw_ops in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..96),
    ) {
        // Unique identities; times deliberately collide and span
        // several wheel windows when scaled.
        let pool: Vec<Event> = pool
            .into_iter()
            .enumerate()
            .map(|(i, (sender, rt))| ev(sender, i as u64, rt * 37))
            .collect();
        let ops = decode_ops(&raw_ops);

        let mut q = InputQueue::new();
        let mut r = RefQueue::default();
        let mut next_pool = 0usize;
        let mut delivered: Vec<Event> = Vec::new();

        // The queue contract (and the LP runtime) requires an immediate
        // rollback on a straggler classification before anything else
        // executes; the driver honors it like `ObjectRuntime::deliver`.
        let rollback_if_straggler =
            |q: &mut InputQueue, r: &mut RefQueue, res: &Inserted| -> Result<(), TestCaseError> {
                if let Inserted::Straggler(k) | Inserted::AntiStraggler(k) = res {
                    let a = q.unprocess_from(*k);
                    let b = r.unprocess_from(*k);
                    prop_assert_eq!(a, b, "straggler rollback count diverged");
                }
                Ok(())
            };

        for op in ops {
            match op {
                Op::InsertNext => {
                    if next_pool < pool.len() {
                        let e = pool[next_pool].clone();
                        next_pool += 1;
                        delivered.push(e.clone());
                        let a = q.insert(e.clone());
                        let b = r.insert(e);
                        prop_assert_eq!(&a, &b, "positive insert classification diverged");
                        rollback_if_straggler(&mut q, &mut r, &a)?;
                    }
                }
                Op::InsertAnti(i) => {
                    if !delivered.is_empty() {
                        // Anti for a delivered positive — may hit pending,
                        // history, or (after annihilation) nothing, in
                        // which case both sides must store an orphan.
                        let e = delivered[i % delivered.len()].to_anti();
                        let a = q.insert(e.clone());
                        let b = r.insert(e);
                        prop_assert_eq!(&a, &b, "anti insert classification diverged");
                        rollback_if_straggler(&mut q, &mut r, &a)?;
                    }
                }
                Op::Process => {
                    if q.next_unprocessed().is_some() {
                        let got = q.mark_processed().key();
                        let want = r.process().expect("reference had pending too");
                        prop_assert_eq!(got, want, "processed order diverged");
                    } else {
                        prop_assert!(r.pending.is_empty());
                    }
                }
                Op::Rollback(i) => {
                    if q.processed_len() > 0 {
                        let key = q.processed_at(i % q.processed_len()).key();
                        let a = q.unprocess_from(key);
                        let b = r.unprocess_from(key);
                        prop_assert_eq!(a, b, "rollback count diverged");
                    }
                }
                Op::Fossil => {
                    // Collect up to (not including) the newest processed
                    // event, as a GVT-bounded collection would.
                    if let Some(bound) = q.last_processed_key() {
                        let a = q.fossil_collect_before(bound).len() as u64;
                        let b = r.fossil_collect_before(bound);
                        prop_assert_eq!(a, b, "fossil count diverged");
                    }
                }
            }
            check_equal(&q, &r)?;
        }

        // Drain to the end: total order must agree.
        while q.next_unprocessed().is_some() {
            let got = q.mark_processed().key();
            let want = r.process().expect("reference drains in lockstep");
            prop_assert_eq!(got, want, "drain order diverged");
        }
        prop_assert!(r.pending.is_empty());
        check_equal(&q, &r)?;
    }

    /// Straggler classification is exactly "keyed before the newest
    /// executed event", regardless of how the wheel has cascaded.
    #[test]
    fn straggler_detection_matches_reference(
        pool in proptest::collection::vec((0u32..4, 0u64..64), 8..32),
        split in any::<u16>(),
    ) {
        let pool: Vec<Event> = pool
            .into_iter()
            .enumerate()
            .map(|(i, (sender, rt))| ev(sender, i as u64, rt))
            .collect();
        let cut = 1 + (split as usize) % (pool.len() - 1);
        let mut q = InputQueue::new();
        for e in &pool[..cut] {
            q.insert(e.clone());
        }
        let n = q.pending_len();
        for _ in 0..n {
            q.mark_processed();
        }
        let last = q.last_processed_key().unwrap();
        for e in &pool[cut..] {
            let got = q.insert(e.clone());
            if e.key() < last {
                prop_assert_eq!(got, Inserted::Straggler(e.key()));
            } else {
                prop_assert_eq!(got, Inserted::Enqueued);
            }
        }
    }
}
