//! The state queue: checkpoint history of a simulation object.
//!
//! With periodic checkpointing (save every χ-th event) a rollback
//! restores the newest snapshot *before* the straggler and replays the
//! intermediate events (coast-forward). The queue is tagged by the key of
//! the event after which each snapshot was taken; the pre-simulation
//! initial state is tagged `None` and ordered before everything.

use crate::event::EventKey;
use crate::object::ErasedState;
use crate::time::VirtualTime;

/// Position tag of a snapshot: `None` = before any event (initial state),
/// `Some(k)` = immediately after executing the event with key `k`.
pub type StatePos = Option<EventKey>;

#[derive(Debug)]
struct Entry {
    pos: StatePos,
    /// `state.bytes()` at save time (snapshots are immutable).
    bytes: usize,
    state: ErasedState,
}

/// Ordered checkpoint history.
#[derive(Debug, Default)]
pub struct StateQueue {
    /// Snapshots in increasing `pos` order (`None` first).
    entries: Vec<Entry>,
    /// Running sum of the entries' `bytes`.
    retained_bytes: usize,
}

impl StateQueue {
    /// Empty queue. The kernel records the initial state before the first
    /// event via [`StateQueue::save`] with `pos = None`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no snapshot is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes of retained snapshots, recomputed from the snapshots
    /// themselves: one virtual call per entry. Diagnostics and tests; the
    /// executives' per-batch memory check reads
    /// [`retained_bytes`](Self::retained_bytes).
    pub fn bytes(&self) -> usize {
        self.entries.iter().map(|e| e.state.bytes()).sum()
    }

    /// Total bytes of retained snapshots from a running counter kept by
    /// every mutator — O(1), always equal to [`bytes`](Self::bytes).
    pub fn retained_bytes(&self) -> usize {
        self.retained_bytes
    }

    /// Drop `entries[range]`, keeping the byte counter in step.
    fn discard(&mut self, range: impl std::ops::RangeBounds<usize>) {
        for e in self.entries.drain(range) {
            self.retained_bytes -= e.bytes;
        }
    }

    /// Append a snapshot taken at `pos`. Positions must arrive in
    /// increasing order (the kernel saves as it executes forward; a
    /// rollback truncates before re-saving).
    pub fn save(&mut self, pos: StatePos, state: ErasedState) {
        debug_assert!(
            self.entries.last().is_none_or(|last| last.pos < pos),
            "state saved out of order: {:?} after {:?}",
            pos,
            self.entries.last().map(|e| e.pos)
        );
        let bytes = state.bytes();
        self.retained_bytes += bytes;
        self.entries.push(Entry { pos, bytes, state });
    }

    /// Find the newest snapshot strictly before `key`, for a rollback
    /// caused by a straggler with that key. Returns the snapshot position
    /// and the state. `None` means no usable snapshot is retained — a
    /// kernel invariant violation (fossil collection must always keep a
    /// restorable snapshot).
    pub fn restore_before(&self, key: EventKey) -> Option<(StatePos, &ErasedState)> {
        let idx = self
            .entries
            .partition_point(|e| e.pos.is_none_or(|p| p < key));
        idx.checked_sub(1)
            .map(|i| (self.entries[i].pos, &self.entries[i].state))
    }

    /// Discard snapshots at or after `key` (their histories were undone by
    /// a rollback to `key`). Returns how many were discarded.
    pub fn truncate_from(&mut self, key: EventKey) -> u64 {
        let idx = self
            .entries
            .partition_point(|e| e.pos.is_none_or(|p| p < key));
        let n = self.entries.len() - idx;
        self.discard(idx..);
        n as u64
    }

    /// The key of the newest snapshot whose time is **strictly below**
    /// `gvt` — the fossil-collection bound for all three history queues:
    /// no rollback will ever restore below it. Returns `None` when the
    /// only such snapshot is the initial state (nothing to reclaim yet).
    ///
    /// Strictness matters at the boundary: a straggler may still arrive
    /// *at* GVT, and its key can order before a snapshot taken at that
    /// same virtual time (lower sender/serial tie-break). The restore
    /// point for such a straggler must therefore lie strictly below GVT.
    pub fn fossil_bound(&self, gvt: VirtualTime) -> Option<EventKey> {
        let idx = self
            .entries
            .partition_point(|e| e.pos.is_none_or(|p| p.recv_time < gvt));
        match idx.checked_sub(1) {
            None => None,
            Some(i) => self.entries[i].pos,
        }
    }

    /// Drop snapshots strictly older than the snapshot tagged `bound`
    /// (which is retained, becoming the restore point of last resort).
    /// Returns how many were reclaimed.
    pub fn fossil_collect_before(&mut self, bound: EventKey) -> u64 {
        // Index of the first snapshot at or after `bound`; everything
        // before it is reclaimable. Keep at least one snapshot regardless.
        let cut = self
            .entries
            .partition_point(|e| e.pos.is_none_or(|p| p < bound))
            .min(self.entries.len().saturating_sub(1));
        self.discard(..cut);
        cut as u64
    }

    /// Positions currently retained (diagnostics, tests).
    pub fn positions(&self) -> Vec<StatePos> {
        self.entries.iter().map(|e| e.pos).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ObjectId;
    use crate::object::ObjectState;

    #[derive(Clone, Debug, PartialEq)]
    struct S(u64);
    impl ObjectState for S {}

    fn key(t: u64) -> EventKey {
        EventKey {
            recv_time: VirtualTime::new(t),
            sender: ObjectId(0),
            content_tag: 0,
            serial: t,
        }
    }

    fn filled() -> StateQueue {
        let mut q = StateQueue::new();
        q.save(None, ErasedState::of(S(0)));
        for t in [10, 20, 30, 40] {
            q.save(Some(key(t)), ErasedState::of(S(t)));
        }
        q
    }

    #[test]
    fn restore_picks_newest_strictly_before() {
        let q = filled();
        let (pos, st) = q.restore_before(key(25)).unwrap();
        assert_eq!(pos, Some(key(20)));
        assert_eq!(st.get::<S>(), &S(20));
        // A straggler exactly at a snapshot's event key restores the
        // snapshot *before* it (that event itself must be replayed only if
        // it is ordered >= straggler — here they're equal, so not usable).
        let (pos, _) = q.restore_before(key(20)).unwrap();
        assert_eq!(pos, Some(key(10)));
        // Before everything: initial state.
        let (pos, st) = q.restore_before(key(5)).unwrap();
        assert_eq!(pos, None);
        assert_eq!(st.get::<S>(), &S(0));
    }

    #[test]
    fn truncate_discards_undone_snapshots() {
        let mut q = filled();
        assert_eq!(q.truncate_from(key(25)), 2);
        assert_eq!(q.positions(), vec![None, Some(key(10)), Some(key(20))]);
        // Saving again after the rollback point is in order.
        q.save(Some(key(26)), ErasedState::of(S(26)));
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn fossil_bound_is_newest_strictly_below_gvt() {
        let q = filled();
        assert_eq!(q.fossil_bound(VirtualTime::new(35)), Some(key(30)));
        assert_eq!(
            q.fossil_bound(VirtualTime::new(30)),
            Some(key(20)),
            "a straggler can still arrive at t=30 with a key below the t=30 snapshot"
        );
        assert_eq!(
            q.fossil_bound(VirtualTime::new(10)),
            None,
            "only initial state below"
        );
        assert_eq!(q.fossil_bound(VirtualTime::new(1000)), Some(key(40)));
    }

    #[test]
    fn fossil_collect_keeps_bound_snapshot() {
        let mut q = filled();
        let reclaimed = q.fossil_collect_before(key(30));
        assert_eq!(reclaimed, 3, "initial, t=10, t=20 reclaimed");
        assert_eq!(q.positions(), vec![Some(key(30)), Some(key(40))]);
        // Restores before a later straggler still work.
        let (pos, _) = q.restore_before(key(35)).unwrap();
        assert_eq!(pos, Some(key(30)));
    }

    #[test]
    fn fossil_collect_never_empties_queue() {
        let mut q = StateQueue::new();
        q.save(None, ErasedState::of(S(0)));
        assert_eq!(q.fossil_collect_before(key(100)), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn bytes_sums_snapshots() {
        let q = filled();
        assert_eq!(q.bytes(), 5 * std::mem::size_of::<S>());
    }

    #[test]
    fn running_byte_counter_follows_every_mutator() {
        let mut q = filled();
        assert_eq!(q.retained_bytes(), q.bytes());
        q.truncate_from(key(25));
        assert_eq!(q.retained_bytes(), 3 * std::mem::size_of::<S>());
        q.save(Some(key(26)), ErasedState::of(S(26)));
        q.fossil_collect_before(key(20));
        assert_eq!(q.retained_bytes(), 2 * std::mem::size_of::<S>());
        assert_eq!(q.retained_bytes(), q.bytes());
    }
}
