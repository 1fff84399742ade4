//! The input queue: every event received by a simulation object, split
//! into an executed *history* (a key-ordered `Vec`, append-only at the
//! tail, drained at the front by fossil collection) and an unprocessed
//! *pending set* (a hierarchical timing wheel, [`super::wheel`]).
//!
//! The queue is where optimism meets causality: an arriving positive event
//! keyed before the newest history entry is a *straggler* (the object
//! executed past it and must roll back); an arriving anti-message
//! annihilates its positive twin, rolling back first if the twin was
//! already executed.
//!
//! The split replaces the former single sorted `Vec` + cursor: the hot
//! operations (insert a future event, pop the minimum) no longer shift
//! half the array, and the history side keeps the `O(log n)` replay /
//! fossil scans it always had. See `docs/hot-path.md`.

use crate::event::{Event, EventKey, Sign};
use crate::queues::wheel::PendingWheel;
use crate::time::VirtualTime;
use std::collections::HashSet;

/// Result of inserting a message into the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inserted {
    /// Positive event enqueued in the unprocessed future. No action needed.
    Enqueued,
    /// Positive event ordered before the newest executed event: the
    /// receiver must roll back to this key, after which the event sits
    /// unprocessed (it is already in the pending set).
    Straggler(EventKey),
    /// The message met its twin (positive met a stored orphan anti, or
    /// anti met an unprocessed positive) and both vanished.
    Annihilated,
    /// Anti-message for an already-executed positive: the receiver must
    /// roll back to this key; the pair has been annihilated.
    AntiStraggler(EventKey),
    /// Anti-message arrived before its positive (possible under
    /// out-of-order transports); stored until the twin shows up.
    OrphanStored,
}

/// Executed history + pending timing wheel.
#[derive(Debug, Default)]
pub struct InputQueue {
    /// Executed events in key order. Fossil collection drains the
    /// front; rollback moves the tail back into `pending`.
    history: Vec<Event>,
    /// Unprocessed events, minimum-key first.
    pending: PendingWheel,
    /// Anti-messages whose positives have not arrived yet.
    orphan_antis: HashSet<crate::event::EventId>,
}

impl InputQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored events (processed + unprocessed).
    pub fn len(&self) -> usize {
        self.history.len() + self.pending.len()
    }

    /// True if no events are stored.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty() && self.pending.is_empty()
    }

    /// Number of executed events currently retained.
    pub fn processed_len(&self) -> usize {
        self.history.len()
    }

    /// Number of pending (unprocessed) events.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Key of the most recently executed event, if any is retained.
    pub fn last_processed_key(&self) -> Option<EventKey> {
        self.history.last().map(|e| e.key())
    }

    /// The next event to execute, if any.
    pub fn next_unprocessed(&self) -> Option<&Event> {
        self.pending.peek_min()
    }

    /// Receive time of the next unprocessed event
    /// ([`VirtualTime::INFINITY`] when idle) — the object's contribution
    /// to GVT alongside its LVT. One load: the wheel caches its minimum's
    /// key, which embeds the receive time, so the event is not visited.
    pub fn next_time(&self) -> VirtualTime {
        self.pending
            .min_key()
            .map_or(VirtualTime::INFINITY, |k| k.recv_time)
    }

    /// Move the minimum pending event into the history, returning a
    /// reference to it. Panics if the queue is exhausted (kernel bug).
    pub fn mark_processed(&mut self) -> &Event {
        let ev = self
            .pending
            .pop_min()
            .expect("mark_processed on exhausted queue");
        debug_assert!(
            self.history.last().is_none_or(|l| l.key() < ev.key()),
            "processing out of order (straggler not rolled back?)"
        );
        self.history.push(ev);
        self.history.last().expect("just pushed")
    }

    /// Processed event at absolute index `i` (`i < processed_len`), used
    /// by the coast-forward replay.
    pub fn processed_at(&self, i: usize) -> &Event {
        &self.history[i]
    }

    /// Insert a message, classifying the consequences. The returned
    /// variant tells the LP what to do; this method never executes
    /// rollbacks itself — see [`InputQueue::unprocess_from`].
    pub fn insert(&mut self, ev: Event) -> Inserted {
        match ev.sign {
            Sign::Positive => {
                if self.orphan_antis.remove(&ev.id) {
                    return Inserted::Annihilated;
                }
                let key = ev.key();
                self.pending.insert(ev);
                if self.history.last().is_some_and(|l| key < l.key()) {
                    // The object has executed past this event.
                    Inserted::Straggler(key)
                } else {
                    Inserted::Enqueued
                }
            }
            Sign::Anti => {
                // An anti annihilates the positive with the same identity;
                // keys embed (sender, serial), so key match ⇔ id match.
                let key = ev.key();
                if let Some(twin) = self.pending.remove(&key) {
                    debug_assert_eq!(twin.id, ev.id);
                    return Inserted::Annihilated;
                }
                let pos = self.history.partition_point(|e| e.key() < key);
                if self.history.get(pos).is_some_and(|e| e.id == ev.id) {
                    // Twin already executed: receiver must roll back to it
                    // first; the pair then disappears.
                    self.history.remove(pos);
                    Inserted::AntiStraggler(key)
                } else {
                    self.orphan_antis.insert(ev.id);
                    Inserted::OrphanStored
                }
            }
        }
    }

    /// Move every executed event with key `>= key` back to the pending
    /// set. Returns how many were un-processed (executed events only — a
    /// positive straggler that triggered the rollback is already
    /// pending and is not counted). This is the queue's part of a
    /// rollback; restoring state and coasting forward are the LP's.
    pub fn unprocess_from(&mut self, key: EventKey) -> u64 {
        let first = self.history.partition_point(|e| e.key() < key);
        let n = self.history.len() - first;
        // Re-insert in increasing key order so at most the first insert
        // rebases the wheel's origin backwards.
        for ev in self.history.drain(first..) {
            self.pending.insert(ev);
        }
        n as u64
    }

    /// Index of the first processed event with key `> pos` (or 0 for
    /// `None`): the coast-forward replay starts here after restoring the
    /// state snapshot tagged `pos`.
    pub fn replay_start(&self, pos: Option<EventKey>) -> usize {
        match pos {
            None => 0,
            Some(k) => {
                let idx = self.history.partition_point(|e| e.key() <= k);
                debug_assert!(
                    idx > 0 && self.history[idx - 1].key() == k,
                    "restored state's event {k:?} is no longer in the processed history \
                     (fossil collection raced GVT?)"
                );
                idx
            }
        }
    }

    /// Drop processed events with key strictly below `bound`; they can
    /// never be replayed again. Returns the number reclaimed.
    ///
    /// The caller must derive `bound` from the key of the newest retained
    /// state snapshot at or below GVT (see
    /// [`crate::queues::state::StateQueue::fossil_bound`]): any future
    /// rollback restores to that snapshot at the earliest and replays only
    /// events after it, so everything before it is fossil.
    pub fn fossil_collect_before(&mut self, bound: EventKey) -> u64 {
        let keep = self.history.partition_point(|e| e.key() < bound);
        self.history.drain(..keep);
        keep as u64
    }

    /// Key of the first *processed* event received at or after `at`, if
    /// any. An in-place rollback to a resume horizon `h` un-processes
    /// from exactly this key (or nothing, when the whole history is
    /// below `h`).
    pub fn first_processed_at_or_after(&self, at: VirtualTime) -> Option<EventKey> {
        let idx = self.history.partition_point(|e| e.recv_time < at);
        self.history.get(idx).map(|e| e.key())
    }

    /// Discard every unprocessed event and every stored orphan anti,
    /// returning how many events were dropped. Used by the in-place
    /// survivor restore: the dead session's in-flight traffic is
    /// discarded cluster-wide and the frontier is re-delivered, so a
    /// retained pending copy would collide with its re-sent twin.
    pub fn discard_unprocessed(&mut self) -> u64 {
        self.orphan_antis.clear();
        self.pending.clear()
    }

    /// All unprocessed events in key order (test/diagnostic helper —
    /// materializes a sorted copy).
    pub fn pending(&self) -> Vec<Event> {
        self.pending.sorted()
    }

    /// All processed events in execution order. At termination (and with
    /// fossil collection disabled) this is the committed history.
    pub fn processed_events(&self) -> &[Event] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::ids::ObjectId;

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
    fn fifo_processing_in_key_order() {
        let mut q = InputQueue::new();
        q.insert(ev(1, 0, 30));
        q.insert(ev(1, 1, 10));
        q.insert(ev(2, 0, 20));
        assert_eq!(q.next_time(), VirtualTime::new(10));
        assert_eq!(q.mark_processed().recv_time, VirtualTime::new(10));
        assert_eq!(q.mark_processed().recv_time, VirtualTime::new(20));
        assert_eq!(q.mark_processed().recv_time, VirtualTime::new(30));
        assert_eq!(q.next_time(), VirtualTime::INFINITY);
    }

    #[test]
    fn straggler_detected_and_left_pending() {
        let mut q = InputQueue::new();
        q.insert(ev(1, 0, 10));
        q.insert(ev(1, 1, 30));
        q.mark_processed();
        q.mark_processed();
        let out = q.insert(ev(2, 0, 20));
        let key = ev(2, 0, 20).key();
        assert_eq!(out, Inserted::Straggler(key));
        // The straggler sits in the pending set; the history still holds
        // the two executed events until the LP rolls back.
        assert_eq!(q.processed_len(), 2);
        assert_eq!(q.pending_len(), 1);
        let n = q.unprocess_from(key);
        assert_eq!(n, 1, "only the executed event after the straggler moves");
        assert_eq!(q.processed_len(), 1);
        assert_eq!(
            q.next_unprocessed().unwrap().recv_time,
            VirtualTime::new(20)
        );
    }

    #[test]
    fn equal_time_straggler_uses_tie_break() {
        let mut q = InputQueue::new();
        q.insert(ev(5, 0, 10));
        q.mark_processed();
        // Same time, lower sender id: orders before the processed event.
        assert!(matches!(q.insert(ev(1, 0, 10)), Inserted::Straggler(_)));
        // Same time, higher sender id: orders after; no straggler.
        assert_eq!(q.insert(ev(9, 0, 10)), Inserted::Enqueued);
    }

    #[test]
    fn anti_annihilates_unprocessed() {
        let mut q = InputQueue::new();
        q.insert(ev(1, 0, 10));
        let anti = ev(1, 0, 10).to_anti();
        assert_eq!(q.insert(anti), Inserted::Annihilated);
        assert!(q.is_empty());
    }

    #[test]
    fn anti_on_processed_is_straggler_and_removes() {
        let mut q = InputQueue::new();
        q.insert(ev(1, 0, 10));
        q.insert(ev(1, 1, 20));
        q.mark_processed();
        q.mark_processed();
        let key = ev(1, 0, 10).key();
        assert_eq!(
            q.insert(ev(1, 0, 10).to_anti()),
            Inserted::AntiStraggler(key)
        );
        // The twin is gone; only the later event remains (still processed —
        // the LP's rollback will un-process it via unprocess_from).
        assert_eq!(q.len(), 1);
        assert_eq!(q.unprocess_from(key), 1);
        assert_eq!(
            q.next_unprocessed().unwrap().recv_time,
            VirtualTime::new(20)
        );
    }

    #[test]
    fn orphan_anti_annihilates_late_positive() {
        let mut q = InputQueue::new();
        assert_eq!(q.insert(ev(3, 7, 50).to_anti()), Inserted::OrphanStored);
        assert_eq!(q.insert(ev(3, 7, 50)), Inserted::Annihilated);
        assert!(q.is_empty());
        // And a different event is unaffected.
        assert_eq!(q.insert(ev(3, 8, 50)), Inserted::Enqueued);
    }

    #[test]
    fn replay_start_finds_position_after_snapshot() {
        let mut q = InputQueue::new();
        for s in 0..5 {
            q.insert(ev(1, s, 10 * (s + 1)));
        }
        for _ in 0..4 {
            q.mark_processed();
        }
        assert_eq!(q.replay_start(None), 0);
        let k2 = ev(1, 1, 20).key();
        assert_eq!(q.replay_start(Some(k2)), 2);
    }

    #[test]
    fn fossil_collect_trims_strictly_below_bound() {
        let mut q = InputQueue::new();
        for s in 0..4 {
            q.insert(ev(1, s, 10 * (s + 1)));
        }
        for _ in 0..3 {
            q.mark_processed();
        }
        let n = q.fossil_collect_before(ev(1, 2, 30).key());
        assert_eq!(n, 2, "events at t=10,20 reclaimed; t=30 kept");
        assert_eq!(q.processed_len(), 1);
        assert_eq!(q.pending_len(), 1);
    }

    #[test]
    fn fossil_collect_never_touches_unprocessed() {
        let mut q = InputQueue::new();
        q.insert(ev(1, 0, 5));
        // Unprocessed event below the bound must not be reclaimed (it
        // still has to execute; fossils are processed history only).
        assert_eq!(q.fossil_collect_before(ev(1, 99, 100).key()), 0);
        assert_eq!(q.pending_len(), 1);
    }

    #[test]
    fn first_processed_at_or_after_scans_only_history() {
        let mut q = InputQueue::new();
        for s in 0..4 {
            q.insert(ev(1, s, 10 * (s + 1)));
        }
        for _ in 0..3 {
            q.mark_processed(); // history: t = 10, 20, 30; pending: t = 40
        }
        assert_eq!(
            q.first_processed_at_or_after(VirtualTime::new(15)),
            Some(ev(1, 1, 20).key())
        );
        assert_eq!(
            q.first_processed_at_or_after(VirtualTime::new(20)),
            Some(ev(1, 1, 20).key())
        );
        // Beyond the processed history: the pending t=40 event must not
        // be reported (it is not rollback material).
        assert_eq!(q.first_processed_at_or_after(VirtualTime::new(31)), None);
    }

    #[test]
    fn discard_unprocessed_clears_future_and_orphans() {
        let mut q = InputQueue::new();
        q.insert(ev(1, 0, 10));
        q.mark_processed();
        q.insert(ev(1, 1, 20));
        q.insert(ev(2, 9, 99).to_anti()); // orphan
        assert_eq!(q.discard_unprocessed(), 1);
        assert_eq!(q.processed_len(), 1);
        assert_eq!(q.pending_len(), 0);
        // The orphan store is empty again: a fresh positive enqueues.
        assert_eq!(q.insert(ev(2, 9, 99)), Inserted::Enqueued);
    }

    #[test]
    fn unprocess_from_counts() {
        let mut q = InputQueue::new();
        for s in 0..6 {
            q.insert(ev(1, s, s + 1));
        }
        for _ in 0..6 {
            q.mark_processed();
        }
        assert_eq!(q.unprocess_from(ev(1, 3, 4).key()), 3);
        assert_eq!(q.processed_len(), 3);
        assert_eq!(q.pending_len(), 3);
    }

    #[test]
    fn reprocessing_after_rollback_replays_in_order() {
        let mut q = InputQueue::new();
        for s in 0..8 {
            q.insert(ev(1, s, (s + 1) * 5));
        }
        for _ in 0..8 {
            q.mark_processed();
        }
        // Straggler lands mid-history; roll back and replay everything.
        let out = q.insert(ev(2, 0, 12));
        let Inserted::Straggler(key) = out else {
            panic!("expected straggler, got {out:?}");
        };
        assert_eq!(q.unprocess_from(key), 6);
        let mut order = Vec::new();
        while q.next_unprocessed().is_some() {
            order.push(q.mark_processed().recv_time.ticks());
        }
        assert_eq!(order, vec![12, 15, 20, 25, 30, 35, 40]);
    }
}
