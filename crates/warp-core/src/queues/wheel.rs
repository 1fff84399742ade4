//! Hierarchical timing wheel over the pending (unprocessed) event set.
//!
//! The pending side of the input queue used to be a sorted `Vec`, which
//! makes every insert an `O(n)` memmove and every straggler insert a
//! binary search plus shift. This wheel turns the common operations —
//! insert a future event, pop the minimum, annihilate by key — into
//! near-constant-time slot pushes and bitmap scans, following the
//! `Clock<Object, SLOTS, HEIGHT>` shape of hashed hierarchical timer
//! wheels (see `docs/hot-path.md` for the full geometry).
//!
//! Geometry: [`SLOTS`] = 64 slots per level (one `u64` occupancy bitmap
//! each), [`HEIGHT`] = 3 levels. Level 0 resolves single ticks over the
//! origin's current 64-tick window; level 1 resolves 64-tick slots over
//! the current 4096-tick window; level 2 resolves 4096-tick slots over
//! the current 2^18-tick window. Anything further out sits in a
//! `BTreeMap` *overflow* keyed by [`EventKey`] and is promoted into the
//! wheel in window-sized chunks when virtual time reaches it.
//!
//! Invariants (maintained by every mutator):
//!
//! * Every stored event has `recv_time >= origin`; an insert below
//!   `origin` (a rollback re-inserting history, or a straggler far in
//!   the past) triggers a *rebase* that moves
//!   the origin back and re-slots the in-wheel events.
//! * Level `h` holds exactly the events that share the origin's level
//!   `h+1` window but not its level `h` window (level 0: share the
//!   64-tick window). Overflow holds events beyond the origin's 2^18
//!   window — always strictly later than everything in the wheel.
//! * After any mutation, if the wheel is non-empty the global minimum
//!   lives in level 0 and its location and key are cached: peeking the
//!   next event is two array indexes on `&self`, reading its key (all
//!   `next_time()` needs) is one load.

use crate::event::{Event, EventKey};
use std::collections::BTreeMap;

/// Slots per level: one bit of a `u64` occupancy bitmap each.
pub const SLOTS: usize = 64;
/// Number of wheel levels; beyond `SLOTS^HEIGHT` ticks events overflow
/// into the ordered far-future map.
pub const HEIGHT: usize = 3;

const SLOT_BITS: u32 = 6; // log2(SLOTS)
const MASK: u64 = (SLOTS as u64) - 1;

/// Hierarchical timing wheel + far-future overflow. The pending half of
/// [`super::InputQueue`].
#[derive(Debug)]
pub struct PendingWheel {
    /// Absolute tick the wheel windows are anchored at. Only meaningful
    /// while `len > 0`.
    origin: u64,
    /// `HEIGHT * SLOTS` buckets, flattened (`level * SLOTS + slot`).
    /// Buckets are unsorted; a level-0 bucket holds events of a single
    /// tick, so ordering within it is the key tie-break only.
    buckets: Box<[Vec<Event>]>,
    /// Per-level occupancy bitmaps (bit `s` set ⇔ bucket `s` non-empty).
    occ: [u64; HEIGHT],
    /// Far-future events, beyond the origin's top-level window. Always
    /// strictly later than every in-wheel event.
    overflow: BTreeMap<EventKey, Event>,
    /// Cached location of the minimum: `(slot, index)` into level 0,
    /// plus its key. `None` iff empty.
    min: Option<(u32, u32, EventKey)>,
    /// Total stored events (wheel + overflow).
    len: usize,
}

impl Default for PendingWheel {
    fn default() -> Self {
        PendingWheel {
            origin: 0,
            buckets: (0..HEIGHT * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; HEIGHT],
            overflow: BTreeMap::new(),
            min: None,
            len: 0,
        }
    }
}

/// Level `h` window id of tick `t`: times sharing it are within the
/// same `SLOTS^(h+1)`-tick aligned span.
#[inline]
fn window(t: u64, level: u32) -> u64 {
    t >> (SLOT_BITS * (level + 1))
}

/// Slot of tick `t` within its level-`h` window.
#[inline]
fn slot_of(t: u64, level: u32) -> usize {
    ((t >> (SLOT_BITS * level)) & MASK) as usize
}

impl PendingWheel {
    /// Empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The minimum-key pending event, if any. Two array indexes off the
    /// cached location.
    pub fn peek_min(&self) -> Option<&Event> {
        self.min
            .map(|(slot, idx, _)| &self.buckets[slot as usize][idx as usize])
    }

    /// Key of the minimum pending event, if any.
    pub fn min_key(&self) -> Option<EventKey> {
        self.min.map(|(_, _, k)| k)
    }

    /// Insert an event. Amortized O(1): a slot push plus (rarely) a
    /// cascade or rebase.
    pub fn insert(&mut self, ev: Event) {
        let t = ev.recv_time.ticks();
        if self.len == 0 {
            self.origin = t;
        } else if t < self.origin {
            self.rebase(t);
        }
        debug_assert!(
            !self.contains(&ev.key()),
            "duplicate pending key {:?}",
            ev.key()
        );
        self.place(ev);
        self.len += 1;
        self.refresh_min();
    }

    /// Remove the event with exactly this key (annihilation by an
    /// anti-message). Keys embed `(sender, serial)`, so a key match is
    /// an identity match.
    pub fn remove(&mut self, key: &EventKey) -> Option<Event> {
        if self.len == 0 || key.recv_time.ticks() < self.origin {
            return None;
        }
        let t = key.recv_time.ticks();
        let ev = if window(t, (HEIGHT - 1) as u32) != window(self.origin, (HEIGHT - 1) as u32) {
            self.overflow.remove(key)?
        } else {
            let (level, slot) = self.coords(t);
            let bucket = &mut self.buckets[level * SLOTS + slot];
            let i = bucket.iter().position(|e| e.key() == *key)?;
            let ev = bucket.swap_remove(i);
            if bucket.is_empty() {
                self.occ[level] &= !(1 << slot);
            }
            ev
        };
        self.len -= 1;
        self.refresh_min();
        Some(ev)
    }

    /// Pop the minimum-key event. Amortized O(1) via the cascades.
    pub fn pop_min(&mut self) -> Option<Event> {
        let (slot, idx, _) = self.min?;
        let bucket = &mut self.buckets[slot as usize];
        let ev = bucket.swap_remove(idx as usize);
        if bucket.is_empty() {
            self.occ[0] &= !(1 << slot);
        }
        self.len -= 1;
        self.refresh_min();
        Some(ev)
    }

    /// Every pending event, in no particular order but the same one for
    /// the same insert and remove history.
    pub fn iter(&self) -> impl Iterator<Item = &Event> + Clone {
        self.buckets.iter().flatten().chain(self.overflow.values())
    }

    /// All pending events in key order (diagnostics / tests — O(n log n)).
    pub fn sorted(&self) -> Vec<Event> {
        let mut v: Vec<Event> = self
            .buckets
            .iter()
            .flatten()
            .chain(self.overflow.values())
            .cloned()
            .collect();
        v.sort_by_key(|e| e.key());
        v
    }

    /// True if an event with this key is stored (debug helper).
    pub fn contains(&self, key: &EventKey) -> bool {
        let t = key.recv_time.ticks();
        if self.len == 0 || t < self.origin {
            return false;
        }
        if window(t, (HEIGHT - 1) as u32) != window(self.origin, (HEIGHT - 1) as u32) {
            return self.overflow.contains_key(key);
        }
        let (level, slot) = self.coords(t);
        self.buckets[level * SLOTS + slot]
            .iter()
            .any(|e| e.key() == *key)
    }

    /// Level and slot for an in-wheel tick (`t >= origin`, within the
    /// top-level window).
    #[inline]
    fn coords(&self, t: u64) -> (usize, usize) {
        debug_assert!(t >= self.origin);
        for level in 0..HEIGHT as u32 {
            if window(t, level) == window(self.origin, level) {
                return (level as usize, slot_of(t, level));
            }
        }
        unreachable!("coords called for an overflow tick")
    }

    /// Put one event into its bucket (or overflow). `recv_time` must be
    /// `>= origin`. Does not touch `len` or the min cache.
    fn place(&mut self, ev: Event) {
        let t = ev.recv_time.ticks();
        if window(t, (HEIGHT - 1) as u32) != window(self.origin, (HEIGHT - 1) as u32) {
            self.overflow.insert(ev.key(), ev);
            return;
        }
        let (level, slot) = self.coords(t);
        self.buckets[level * SLOTS + slot].push(ev);
        self.occ[level] |= 1 << slot;
    }

    /// Move the origin *backwards* to `t` (an insert below the current
    /// window — rollback re-delivery or a deep straggler) and re-slot
    /// the in-wheel events. O(in-wheel events); overflow entries stay
    /// put (they are strictly later than any in-wheel time, hence
    /// strictly later than any time valid under the new origin too).
    fn rebase(&mut self, t: u64) {
        debug_assert!(t < self.origin);
        let mut moved: Vec<Event> = Vec::new();
        for b in self.buckets.iter_mut() {
            moved.append(b);
        }
        self.occ = [0; HEIGHT];
        self.origin = t;
        for ev in moved {
            self.place(ev);
        }
    }

    /// Re-establish the invariant that the minimum lives in level 0 and
    /// is cached: cascade higher-level buckets (or an overflow chunk)
    /// down until level 0 is populated, then scan its first occupied
    /// bucket. Each event moves down a level at most `HEIGHT` times
    /// between insert and pop, so cascades are amortized O(1).
    fn refresh_min(&mut self) {
        loop {
            if self.occ[0] != 0 {
                let slot = self.occ[0].trailing_zeros();
                let bucket = &self.buckets[slot as usize];
                // A level-0 bucket holds a single tick, so this scan is
                // the equal-time tie-break only (usually 1-2 events).
                let mut best = 0;
                for i in 1..bucket.len() {
                    if bucket[i].key() < bucket[best].key() {
                        best = i;
                    }
                }
                self.min = Some((slot, best as u32, bucket[best].key()));
                return;
            }
            for level in 1..HEIGHT {
                if self.occ[level] != 0 {
                    // Promote the earliest occupied bucket of this level:
                    // advance the origin to the bucket's window start and
                    // re-place its events one level down.
                    let slot = self.occ[level].trailing_zeros() as usize;
                    let shift = SLOT_BITS * level as u32;
                    let window_base = (self.origin >> (shift + SLOT_BITS)) << (shift + SLOT_BITS);
                    self.origin = window_base | ((slot as u64) << shift);
                    let moved = std::mem::take(&mut self.buckets[level * SLOTS + slot]);
                    self.occ[level] &= !(1 << slot);
                    for ev in moved {
                        self.place(ev);
                    }
                    break;
                }
            }
            if self.occ.iter().all(|&o| o == 0) {
                // Wheel part is drained: promote the next overflow chunk
                // (everything in the first pending top-level window).
                let Some((first, _)) = self.overflow.first_key_value() else {
                    self.min = None;
                    return;
                };
                self.origin = first.recv_time.ticks();
                let top = (HEIGHT - 1) as u32;
                let keep = self
                    .overflow
                    .split_off(&EventKey::window_bound(window(self.origin, top) + 1, top));
                for (_, ev) in std::mem::replace(&mut self.overflow, keep) {
                    self.place(ev);
                }
            }
        }
    }
}

impl EventKey {
    /// Smallest possible key at the first tick of top-level window `w`
    /// (used to split the overflow map at a window boundary).
    fn window_bound(w: u64, level: u32) -> EventKey {
        EventKey {
            recv_time: crate::time::VirtualTime::from_ticks(w << (SLOT_BITS * (level + 1))),
            sender: crate::ids::ObjectId(0),
            content_tag: 0,
            serial: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::ids::ObjectId;
    use crate::time::VirtualTime;

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

    #[test]
    fn pops_in_key_order_across_levels_and_overflow() {
        let mut w = PendingWheel::new();
        // One event per region: level 0, level 1, level 2, overflow.
        let times = [5u64, 100, 10_000, 1_000_000, 5, 6, 1 << 40];
        for (i, &t) in times.iter().enumerate() {
            w.insert(ev(i as u32, i as u64, t));
        }
        let mut got: Vec<u64> = Vec::new();
        while let Some(e) = w.pop_min() {
            got.push(e.recv_time.ticks());
        }
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(w.is_empty());
    }

    #[test]
    fn equal_time_ties_break_by_key() {
        let mut w = PendingWheel::new();
        w.insert(ev(9, 0, 10));
        w.insert(ev(1, 0, 10));
        w.insert(ev(5, 0, 10));
        assert_eq!(w.pop_min().unwrap().id.sender, ObjectId(1));
        assert_eq!(w.pop_min().unwrap().id.sender, ObjectId(5));
        assert_eq!(w.pop_min().unwrap().id.sender, ObjectId(9));
    }

    #[test]
    fn insert_below_origin_rebases() {
        let mut w = PendingWheel::new();
        w.insert(ev(1, 0, 1000));
        w.insert(ev(1, 1, 2000));
        assert_eq!(w.pop_min().unwrap().recv_time.ticks(), 1000);
        // Origin has advanced; a rollback re-inserts an earlier event.
        w.insert(ev(2, 0, 3));
        assert_eq!(w.peek_min().unwrap().recv_time.ticks(), 3);
        assert_eq!(w.pop_min().unwrap().recv_time.ticks(), 3);
        assert_eq!(w.pop_min().unwrap().recv_time.ticks(), 2000);
    }

    #[test]
    fn remove_by_key_everywhere() {
        let mut w = PendingWheel::new();
        let near = ev(1, 0, 10);
        let mid = ev(1, 1, 500);
        let far = ev(1, 2, 1 << 30);
        for e in [&near, &mid, &far] {
            w.insert(e.clone());
        }
        assert_eq!(w.remove(&mid.key()).unwrap().id, mid.id);
        assert_eq!(w.remove(&far.key()).unwrap().id, far.id);
        assert!(w.remove(&far.key()).is_none());
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_min().unwrap().id, near.id);
    }

    #[test]
    fn min_cache_tracks_mutations() {
        let mut w = PendingWheel::new();
        assert!(w.peek_min().is_none());
        w.insert(ev(1, 0, 50));
        w.insert(ev(1, 1, 20));
        assert_eq!(w.min_key().unwrap().recv_time.ticks(), 20);
        w.remove(&ev(1, 1, 20).key());
        assert_eq!(w.min_key().unwrap().recv_time.ticks(), 50);
        w.pop_min();
        assert!(w.peek_min().is_none());
    }

    #[test]
    fn overflow_promotes_in_window_chunks() {
        let mut w = PendingWheel::new();
        // All far-future relative to the first event at t=0.
        w.insert(ev(0, 0, 0));
        let far: Vec<u64> = (0..200).map(|i| (1 << 20) + i * 7919).collect();
        for (i, &t) in far.iter().enumerate() {
            w.insert(ev(1, i as u64, t));
        }
        let mut got = vec![w.pop_min().unwrap().recv_time.ticks()];
        while let Some(e) = w.pop_min() {
            got.push(e.recv_time.ticks());
        }
        let mut want = far.clone();
        want.push(0);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn dense_random_order_matches_sorted_reference() {
        let mut w = PendingWheel::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut want: Vec<(u64, u64)> = Vec::new();
        for serial in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = x % 3000;
            want.push((t, serial));
            w.insert(ev(3, serial, t));
        }
        want.sort_unstable();
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| w.pop_min())
            .map(|e| (e.recv_time.ticks(), e.id.serial))
            .collect();
        assert_eq!(got, want);
    }
}
