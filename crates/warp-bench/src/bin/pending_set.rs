//! `pending_set OUT.json` — pending-set microbench: the heap-backed
//! [`InputQueue`] against a faithful replica of the legacy sorted-`Vec` +
//! cursor queue, on an identical deterministic
//! insert/pop/annihilate/rollback/fossil mix at 1k, 4k and 100k pending
//! events.
//!
//! Both queues consume the same LCG-scripted operation stream, so their
//! processed-key checksums must agree — the run aborts if the two
//! implementations ever diverge. Reported per (queue, pending-size)
//! cell: operations per second over the steady-state mix.
//!
//! The output path is a required argument — no artifact is checked in;
//! the measured table lives in `docs/hot-path.md` §1.
//! `WARP_BENCH_SMOKE=1` shrinks the iteration counts for CI.

use std::time::Instant;
use warp_core::event::{Event, EventId, EventKey};
use warp_core::queues::{InputQueue, Inserted};
use warp_core::{ObjectId, VirtualTime};

/// Pending-set sizes swept: the small sets of three workloads, the
/// 4 096 per object of `phold-dense`, and a far larger one.
const SIZES: [usize; 3] = [1_000, 4_096, 100_000];
/// Virtual-time spread of fresh insertions past the LVT.
const HORIZON: u64 = 1 << 14;
/// Recent insertions the annihilate op picks its victims from.
const RECENT: usize = 64;
/// Deepest rollback issued by the mix, in executed events.
const MAX_ROLLBACK: usize = 32;

/// The first pending set, replicated verbatim from the old
/// `warp-core` input queue: one `Vec<Event>` sorted by [`EventKey`] with
/// a cursor splitting executed history from the pending future. Insert
/// is a binary search plus `Vec::insert` memmove over everything later;
/// pop and rollback are cursor moves.
#[derive(Default)]
struct LegacyQueue {
    events: Vec<Event>,
    processed: usize,
}

impl LegacyQueue {
    fn pending_len(&self) -> usize {
        self.events.len() - self.processed
    }

    fn insert(&mut self, ev: Event) {
        let key = ev.key();
        let pos = self.events.partition_point(|e| e.key() < key);
        self.events.insert(pos, ev);
        if pos < self.processed {
            self.processed += 1; // straggler: keep the cursor over the same set
        }
    }

    fn mark_processed(&mut self) -> &Event {
        self.processed += 1;
        &self.events[self.processed - 1]
    }

    fn processed_at(&self, i: usize) -> &Event {
        &self.events[i]
    }

    fn unprocess_from(&mut self, key: EventKey) -> u64 {
        let new = self.events[..self.processed].partition_point(|e| e.key() < key);
        let n = self.processed - new;
        self.processed = new;
        n as u64
    }

    fn fossil_collect_before(&mut self, bound: EventKey) -> u64 {
        let keep = self.events[..self.processed].partition_point(|e| e.key() < bound);
        self.events.drain(..keep);
        self.processed -= keep;
        keep as u64
    }
}

/// The operations both queues must support to run the scripted mix.
trait PendingSet {
    fn pending_len(&self) -> usize;
    fn processed_len(&self) -> usize;
    fn insert(&mut self, ev: Event);
    /// Pop the minimum pending event; returns its recv tick.
    fn pop(&mut self) -> u64;
    fn processed_key_at(&self, i: usize) -> EventKey;
    fn last_processed_key(&self) -> Option<EventKey>;
    /// Cancel a pending event by key (the anti-message path).
    fn annihilate(&mut self, ev: &Event);
    fn rollback_to(&mut self, key: EventKey) -> u64;
    fn fossil(&mut self) -> u64;
}

impl PendingSet for InputQueue {
    fn pending_len(&self) -> usize {
        self.pending_len()
    }
    fn processed_len(&self) -> usize {
        self.processed_len()
    }
    fn insert(&mut self, ev: Event) {
        self.insert(ev);
    }
    fn pop(&mut self) -> u64 {
        self.mark_processed().recv_time.ticks()
    }
    fn processed_key_at(&self, i: usize) -> EventKey {
        self.processed_at(i).key()
    }
    fn last_processed_key(&self) -> Option<EventKey> {
        self.last_processed_key()
    }
    fn annihilate(&mut self, ev: &Event) {
        let out = self.insert(ev.to_anti());
        assert_eq!(
            out,
            Inserted::Annihilated,
            "annihilated a non-pending event"
        );
    }
    fn rollback_to(&mut self, key: EventKey) -> u64 {
        self.unprocess_from(key)
    }
    fn fossil(&mut self) -> u64 {
        match self.last_processed_key() {
            Some(bound) => self.fossil_collect_before(bound).len() as u64,
            None => 0,
        }
    }
}

impl PendingSet for LegacyQueue {
    fn pending_len(&self) -> usize {
        self.pending_len()
    }
    fn processed_len(&self) -> usize {
        self.processed
    }
    fn insert(&mut self, ev: Event) {
        self.insert(ev);
    }
    fn pop(&mut self) -> u64 {
        self.mark_processed().recv_time.ticks()
    }
    fn processed_key_at(&self, i: usize) -> EventKey {
        self.processed_at(i).key()
    }
    fn last_processed_key(&self) -> Option<EventKey> {
        self.processed.checked_sub(1).map(|i| self.events[i].key())
    }
    fn annihilate(&mut self, ev: &Event) {
        let key = ev.key();
        let pos = self.processed + self.events[self.processed..].partition_point(|e| e.key() < key);
        assert!(
            self.events.get(pos).is_some_and(|e| e.key() == key),
            "annihilated a non-pending event"
        );
        self.events.remove(pos);
    }
    fn rollback_to(&mut self, key: EventKey) -> u64 {
        self.unprocess_from(key)
    }
    fn fossil(&mut self) -> u64 {
        match self.processed.checked_sub(1) {
            Some(i) => {
                let bound = self.events[i].key();
                self.fossil_collect_before(bound)
            }
            None => 0,
        }
    }
}

/// Splitmix-style deterministic generator; identical streams drive both
/// queue implementations.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

fn ev(serial: u64, rt: u64) -> Event {
    Event::new(
        EventId {
            sender: ObjectId((serial % 7) as u32),
            serial,
        },
        ObjectId(0),
        VirtualTime::ZERO,
        VirtualTime::new(rt),
        0,
        vec![],
    )
}

/// Outcome of one measured mix: throughput plus a checksum of every
/// processed recv tick, used to prove the two queues executed the same
/// schedule.
struct MixResult {
    ops_per_second: f64,
    ops: u64,
    checksum: u64,
}

/// Prefill `size` pending events (sorted bulk load, off the clock), then
/// run `ops` scripted operations of the steady-state mix: 7/16 insert,
/// 6/16 pop, 1/16 annihilate one of the last [`RECENT`] insertions by
/// key if it is still pending, 1/16 rollback (up to [`MAX_ROLLBACK`]
/// deep), 1/16 fossil collect, with guards that keep the pending
/// population near `size`.
fn run_mix<Q: PendingSet>(q: &mut Q, size: usize, ops: u64, seed: u64) -> MixResult {
    let mut rng = Lcg(seed);
    let mut serial = 0u64;
    let mut prefill: Vec<Event> = (0..size)
        .map(|_| {
            serial += 1;
            ev(serial, rng.next() % HORIZON)
        })
        .collect();
    prefill.sort_by_key(|e| e.key());
    for e in prefill {
        q.insert(e);
    }

    // `(serial, recv tick)` of recent insertions; serial 0 is a free slot.
    let mut recent = [(0u64, 0u64); RECENT];
    let mut lvt = 0u64; // recv tick of the newest executed event
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..ops {
        let r = rng.next();
        let pending = q.pending_len();
        let op = if pending < size / 2 {
            0 // refill
        } else if pending > size + size / 2 {
            7 // drain
        } else {
            r % 16
        };
        match op {
            0..=6 => {
                serial += 1;
                // Always at/after LVT: stragglers are exercised by the
                // explicit rollback op, not by accidental causality
                // violations in the driver.
                let rt = lvt + 1 + (r >> 4) % HORIZON;
                recent[serial as usize % RECENT] = (serial, rt);
                q.insert(ev(serial, rt));
            }
            7..=12 => {
                if q.pending_len() > 0 {
                    let t = q.pop();
                    lvt = t;
                    checksum = checksum.wrapping_mul(31).wrapping_add(t);
                }
            }
            13 => {
                let slot = &mut recent[(r >> 4) as usize % RECENT];
                let victim = ev(slot.0, slot.1);
                // Skip victims already annihilated or executed (an
                // executed one may be gone to fossil collection, so an
                // empty history proves nothing).
                if slot.0 != 0 && q.last_processed_key().is_some_and(|k| k < victim.key()) {
                    q.annihilate(&victim);
                    *slot = (0, 0);
                }
            }
            14 => {
                let n = q.processed_len();
                if n > 0 {
                    let depth = 1 + (r >> 4) as usize % MAX_ROLLBACK.min(n);
                    let key = q.processed_key_at(n - depth);
                    q.rollback_to(key);
                }
            }
            _ => {
                q.fossil();
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    MixResult {
        ops_per_second: ops as f64 / secs,
        ops,
        checksum,
    }
}

fn main() {
    let Some(out) = std::env::args().nth(1) else {
        eprintln!("usage: pending_set OUT.json");
        std::process::exit(2);
    };
    let seed = 11u64;
    println!(
        "== BENCH pending_set — insert/pop/annihilate/rollback mix, heap vs legacy sorted Vec =="
    );
    let mut sizes_json: Vec<(String, serde_json::Value)> = Vec::new();
    let mut speedup_at_max = 0.0f64;
    for size in SIZES {
        // The legacy queue pays an O(pending) memmove per insert, so the
        // op budget shrinks with the population to keep runs bounded.
        let ops: u64 = if std::env::var("WARP_BENCH_SMOKE").is_ok_and(|v| v == "1") {
            20_000
        } else if size >= 100_000 {
            200_000
        } else {
            2_000_000
        };
        let mut heap = InputQueue::new();
        let h = run_mix(&mut heap, size, ops, seed);
        let mut legacy = LegacyQueue::default();
        let l = run_mix(&mut legacy, size, ops, seed);
        assert_eq!(
            h.checksum, l.checksum,
            "heap and legacy executed different schedules at size {size}"
        );
        let speedup = h.ops_per_second / l.ops_per_second;
        println!(
            "  {size:>7} pending: heap {:>12.0} ops/s  legacy {:>12.0} ops/s  ({speedup:.2}x)",
            h.ops_per_second, l.ops_per_second
        );
        sizes_json.push((
            size.to_string(),
            serde_json::json!({
                "ops": h.ops,
                "heap_ops_per_second": h.ops_per_second,
                "legacy_ops_per_second": l.ops_per_second,
                "speedup": speedup,
            }),
        ));
        speedup_at_max = speedup;
    }
    let json = serde_json::json!({
        "id": "pending_set",
        "seed": seed,
        "horizon_ticks": HORIZON,
        "mix": "7/16 insert, 6/16 pop, 1/16 annihilate, 1/16 rollback(<=32), 1/16 fossil",
        "sizes": serde_json::Value::Map(sizes_json),
        "speedup_at_100k": speedup_at_max,
    });
    std::fs::write(
        &out,
        serde_json::to_vec_pretty(&json).expect("serialize artifact"),
    )
    .unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("written to {out}");
}
