//! The pending (unprocessed) event set: a 4-ary implicit min-heap over
//! a `Vec<Event>`, ordered by [`EventKey`].
//!
//! One structure serves every size. `insert` is a push plus a sift-up,
//! `pop_min` a `swap_remove(0)` plus a sift-down, and the minimum is
//! always `heap[0]`. A rollback re-inserting executed events below the
//! minimum costs what any insert costs: there is no origin to move and
//! no window to re-slot. Four children per node halve the tree's height
//! against a binary heap and keep a node's children in one or two cache
//! lines (`docs/hot-path.md` §1).
//!
//! Invariant: every element's key is `>=` its parent's, the parent of
//! index `i > 0` being `(i - 1) / ARITY`.

use crate::event::{Event, EventKey};

/// Children per node.
const ARITY: usize = 4;

/// 4-ary min-heap keyed by [`EventKey`]. The pending half of
/// [`super::InputQueue`].
#[derive(Debug, Default)]
pub struct PendingHeap {
    heap: Vec<Event>,
}

impl PendingHeap {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The minimum-key pending event, if any.
    pub fn peek_min(&self) -> Option<&Event> {
        self.heap.first()
    }

    /// Key of the minimum pending event, if any.
    pub fn min_key(&self) -> Option<EventKey> {
        self.heap.first().map(Event::key)
    }

    /// Insert an event: a push plus a sift-up, O(log n).
    pub fn insert(&mut self, ev: Event) {
        debug_assert!(
            !self.contains(&ev.key()),
            "duplicate pending key {:?}",
            ev.key()
        );
        self.heap.push(ev);
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove the event with exactly this key (annihilation by an
    /// anti-message). Keys embed `(sender, serial)`, so a key match is
    /// an identity match.
    pub fn remove(&mut self, key: &EventKey) -> Option<Event> {
        let i = self.position(key)?;
        let ev = self.heap.swap_remove(i);
        if i < self.heap.len() {
            // The former last element now sits at `i`: it may be below
            // its new parent or above one of its new children.
            if i > 0 && self.heap[i].key() < self.heap[(i - 1) / ARITY].key() {
                self.sift_up(i);
            } else {
                self.sift_down(i);
            }
        }
        Some(ev)
    }

    /// Pop the minimum-key event: a `swap_remove(0)` plus a sift-down.
    pub fn pop_min(&mut self) -> Option<Event> {
        if self.heap.is_empty() {
            return None;
        }
        let ev = self.heap.swap_remove(0);
        self.sift_down(0);
        Some(ev)
    }

    /// Every pending event, in heap order: no particular order, but the
    /// same one for the same insert and remove history.
    pub fn iter(&self) -> impl Iterator<Item = &Event> + Clone {
        self.heap.iter()
    }

    /// All pending events in key order (diagnostics / tests — O(n log n)).
    pub fn sorted(&self) -> Vec<Event> {
        let mut v = self.heap.clone();
        v.sort_by_key(Event::key);
        v
    }

    /// True if an event with this key is stored (debug helper).
    pub fn contains(&self, key: &EventKey) -> bool {
        self.position(key).is_some()
    }

    /// Index of the event with this key: a depth-first search that skips
    /// every subtree whose root key is above `key`. Stackless: the walk
    /// moves to a node's first child, to its next sibling, or up to the
    /// parent once a last child (or the end of the array) is reached.
    fn position(&self, key: &EventKey) -> Option<usize> {
        let n = self.heap.len();
        let mut i = 0;
        while i < n {
            let k = self.heap[i].key();
            if k == *key {
                return Some(i);
            }
            if k < *key && ARITY * i + 1 < n {
                i = ARITY * i + 1;
                continue;
            }
            // Subtree done: the next sibling, climbing past last children.
            loop {
                if i == 0 {
                    return None;
                }
                if i % ARITY != 0 && i + 1 < n {
                    i += 1;
                    break;
                }
                i = (i - 1) / ARITY;
            }
        }
        None
    }

    /// Move the element at `i` up until its parent is not above it.
    fn sift_up(&mut self, mut i: usize) {
        let key = self.heap[i].key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if key >= self.heap[parent].key() {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    /// Move the element at `i` down until no child is below it.
    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        let Some(key) = self.heap.get(i).map(Event::key) else {
            return;
        };
        loop {
            let first = ARITY * i + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            let mut min_key = self.heap[first].key();
            for c in first + 1..(first + ARITY).min(n) {
                let k = self.heap[c].key();
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key >= key {
                break;
            }
            self.heap.swap(i, min);
            i = min;
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

    /// Receive ticks in array (heap) order.
    fn layout(h: &PendingHeap) -> Vec<u64> {
        h.iter().map(|e| e.recv_time.ticks()).collect()
    }

    /// Insert one event per tick, each from its own serial, in the order given.
    fn heap_of(ticks: &[u64]) -> PendingHeap {
        let mut h = PendingHeap::new();
        for (i, &t) in ticks.iter().enumerate() {
            h.insert(ev(1, i as u64, t));
        }
        h
    }

    fn assert_heap_order(h: &PendingHeap) {
        for i in 1..h.heap.len() {
            assert!(
                h.heap[(i - 1) / ARITY].key() <= h.heap[i].key(),
                "heap order broken at {i}: {:?}",
                layout(h)
            );
        }
    }

    fn drain(h: &mut PendingHeap) -> Vec<u64> {
        std::iter::from_fn(|| h.pop_min())
            .map(|e| e.recv_time.ticks())
            .collect()
    }

    #[test]
    fn pops_in_key_order_across_widely_spread_times() {
        let mut h = PendingHeap::new();
        let times = [5u64, 100, 10_000, 1_000_000, 5, 6, 1 << 40];
        for (i, &t) in times.iter().enumerate() {
            h.insert(ev(i as u32, i as u64, t));
        }
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(drain(&mut h), want);
        assert!(h.is_empty());
    }

    #[test]
    fn equal_time_ties_break_by_key() {
        let mut h = PendingHeap::new();
        h.insert(ev(9, 0, 10));
        h.insert(ev(1, 0, 10));
        h.insert(ev(5, 0, 10));
        assert_eq!(h.pop_min().unwrap().id.sender, ObjectId(1));
        assert_eq!(h.pop_min().unwrap().id.sender, ObjectId(5));
        assert_eq!(h.pop_min().unwrap().id.sender, ObjectId(9));
    }

    #[test]
    fn insert_below_the_minimum_becomes_the_minimum() {
        let mut h = PendingHeap::new();
        h.insert(ev(1, 0, 1000));
        h.insert(ev(1, 1, 2000));
        assert_eq!(h.pop_min().unwrap().recv_time.ticks(), 1000);
        // A rollback re-inserts an earlier event.
        h.insert(ev(2, 0, 3));
        assert_eq!(h.peek_min().unwrap().recv_time.ticks(), 3);
        assert_eq!(h.pop_min().unwrap().recv_time.ticks(), 3);
        assert_eq!(h.pop_min().unwrap().recv_time.ticks(), 2000);
    }

    #[test]
    fn remove_by_key_anywhere() {
        let mut h = PendingHeap::new();
        let near = ev(1, 0, 10);
        let mid = ev(1, 1, 500);
        let far = ev(1, 2, 1 << 30);
        for e in [&near, &mid, &far] {
            h.insert(e.clone());
        }
        assert_eq!(h.remove(&mid.key()).unwrap().id, mid.id);
        assert_eq!(h.remove(&far.key()).unwrap().id, far.id);
        assert!(h.remove(&far.key()).is_none());
        assert_eq!(h.len(), 1);
        assert_eq!(h.pop_min().unwrap().id, near.id);
    }

    #[test]
    fn min_tracks_mutations() {
        let mut h = PendingHeap::new();
        assert!(h.peek_min().is_none());
        h.insert(ev(1, 0, 50));
        h.insert(ev(1, 1, 20));
        assert_eq!(h.min_key().unwrap().recv_time.ticks(), 20);
        h.remove(&ev(1, 1, 20).key());
        assert_eq!(h.min_key().unwrap().recv_time.ticks(), 50);
        h.pop_min();
        assert!(h.peek_min().is_none());
    }

    #[test]
    fn remove_in_the_middle_sifts_the_last_element_up() {
        // Node 1 (tick 10) has children 5..=8; node 2 (tick 1) has child
        // 9 (tick 2). Inserted in this order, nothing moves.
        let mut h = heap_of(&[0, 10, 1, 11, 12, 20, 21, 22, 23, 2]);
        assert_eq!(layout(&h), [0, 10, 1, 11, 12, 20, 21, 22, 23, 2]);
        // Removing tick 20 moves tick 2 under tick 10: it must rise.
        assert_eq!(h.remove(&ev(1, 5, 20).key()).unwrap().id.serial, 5);
        assert_eq!(layout(&h), [0, 2, 1, 11, 12, 10, 21, 22, 23]);
        assert_heap_order(&h);
        assert_eq!(drain(&mut h), [0, 1, 2, 10, 11, 12, 21, 22, 23]);
    }

    #[test]
    fn remove_in_the_middle_sifts_the_last_element_down() {
        let ticks: Vec<u64> = (0..14).collect();
        let mut h = heap_of(&ticks);
        // Removing tick 1 moves tick 13 above node 1's children 5..=8.
        assert_eq!(h.remove(&ev(1, 1, 1).key()).unwrap().id.serial, 1);
        assert_eq!(layout(&h), [0, 5, 2, 3, 4, 13, 6, 7, 8, 9, 10, 11, 12]);
        assert_heap_order(&h);
        assert_eq!(drain(&mut h), [0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]);
    }

    #[test]
    fn removing_an_absent_key_changes_nothing() {
        let ticks = [40u64, 10, 30, 20, 50, 15, 35, 25, 45, 5];
        let mut h = heap_of(&ticks);
        let before = layout(&h);
        // Below the minimum, between stored keys, above the maximum, and
        // a stored tick under another identity.
        for key in [
            ev(1, 99, 1).key(),
            ev(1, 99, 22).key(),
            ev(1, 99, 60).key(),
            ev(2, 0, 40).key(),
        ] {
            assert!(h.remove(&key).is_none());
            assert!(!h.contains(&key));
        }
        assert_eq!(layout(&h), before);
        let mut want = ticks.to_vec();
        want.sort_unstable();
        assert_eq!(drain(&mut h), want);
    }

    #[test]
    fn removing_the_last_element_leaves_the_rest_in_place() {
        let mut h = heap_of(&[0, 1, 2, 3, 4, 5]);
        assert!(h.remove(&ev(1, 5, 5).key()).is_some());
        assert_eq!(layout(&h), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn dense_random_order_matches_sorted_reference() {
        let mut h = PendingHeap::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut want: Vec<(u64, u64)> = Vec::new();
        for serial in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = x % 3000;
            want.push((t, serial));
            h.insert(ev(3, serial, t));
        }
        assert_heap_order(&h);
        // Annihilate every third event by key, then drain.
        for serial in (0..2000u64).step_by(3) {
            let (t, _) = want.iter().find(|w| w.1 == serial).copied().unwrap();
            assert!(h.remove(&ev(3, serial, t).key()).is_some());
            assert_heap_order(&h);
        }
        want.retain(|w| w.1 % 3 != 0);
        want.sort_unstable();
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| h.pop_min())
            .map(|e| (e.recv_time.ticks(), e.id.serial))
            .collect();
        assert_eq!(got, want);
    }
}
