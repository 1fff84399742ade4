//! The output queue: a record of every positive message an object has
//! sent, tagged with the event that generated it.
//!
//! When a rollback undoes an event, the messages that event sent become
//! erroneous. The output queue yields them so the cancellation strategy
//! can dispose of them: aggressively (anti-messages now) or lazily (hold
//! them back and see whether re-execution regenerates them).
//!
//! Records are tagged with the *generating event's key* rather than a
//! bare send time: at a time-tie boundary, a message sent at time *t* by a
//! coast-forward event (ordered before the straggler) must survive while
//! one sent at the same *t* by a rolled-back event must be cancelled.

use crate::event::{Event, EventKey};
use crate::queues::state::StatePos;
use crate::time::VirtualTime;

/// One sent positive message plus the key of the event whose execution
/// sent it (`None` = sent from `init`, which can never roll back).
#[derive(Debug, Clone)]
pub struct SentRecord {
    /// Generating event key.
    pub gen: StatePos,
    /// The positive message, exactly as transmitted.
    pub event: Event,
}

/// Send history in generation order.
#[derive(Debug, Default)]
pub struct OutputQueue {
    records: Vec<SentRecord>,
}

impl OutputQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no record is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Record a sent message. Generation keys must be non-decreasing
    /// (execution only moves forward between rollbacks, and a rollback
    /// truncates the queue before re-execution).
    pub fn record(&mut self, gen: StatePos, event: Event) {
        debug_assert!(
            self.records.last().is_none_or(|last| last.gen <= gen),
            "output recorded out of generation order"
        );
        self.records.push(SentRecord { gen, event });
    }

    /// Remove and return every message generated by events with key
    /// `>= key` — the erroneous sends undone by a rollback to `key`.
    /// Messages from `init` (`gen == None`) are never affected.
    pub fn take_from(&mut self, key: EventKey) -> Vec<Event> {
        let idx = self
            .records
            .partition_point(|r| r.gen.is_none_or(|g| g < key));
        self.records.drain(idx..).map(|r| r.event).collect()
    }

    /// Drop records generated strictly before `bound` (the fossil bound
    /// from the state queue): those events can never roll back again, so
    /// their sends can never need cancellation. `init` records are always
    /// reclaimable once a bound exists. Returns the number reclaimed.
    ///
    /// Records whose message lands at or after `in_flight_from` stay,
    /// whatever generated them. The recovery protocol passes GVT: a send
    /// still in flight past it crosses every checkpoint horizon the
    /// protocol may yet pick, and the anchor of that horizon must find it
    /// (see [`crossing`](Self::crossing)) — a set bounded by the events in
    /// flight. Everyone else passes ∞.
    pub fn fossil_collect_before(&mut self, bound: EventKey, in_flight_from: VirtualTime) -> u64 {
        let cut = self
            .records
            .partition_point(|r| r.gen.is_none_or(|g| g < bound));
        if in_flight_from.is_infinite() {
            self.records.drain(..cut);
            return cut as u64;
        }
        let before = self.records.len();
        let mut idx = 0usize;
        // `retain` is stable, so the surviving prefix keeps generation
        // order and `take_from`'s partition search stays valid.
        self.records.retain(|r| {
            idx += 1;
            idx > cut || r.event.recv_time >= in_flight_from
        });
        (before - self.records.len()) as u64
    }

    /// Copies of the records generated below the horizon `h` whose
    /// messages land at or after it: the outgoing frontier a rollback to
    /// `h` must send again.
    pub fn crossing(&self, h: VirtualTime) -> Vec<SentRecord> {
        let below = self
            .records
            .partition_point(|r| r.gen.is_none_or(|g| g.recv_time < h));
        self.records[..below]
            .iter()
            .filter(|r| r.event.recv_time >= h)
            .cloned()
            .collect()
    }

    /// Replace every record with `records` (generation order). An
    /// in-place rollback to a horizon, once it has taken the records
    /// generated at or above it, keeps exactly the frontier.
    pub fn reseed(&mut self, records: Vec<SentRecord>) {
        debug_assert!(records.windows(2).all(|w| w[0].gen <= w[1].gen));
        self.records = records;
    }

    /// Retained records (diagnostics, tests).
    pub fn records(&self) -> &[SentRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::ids::ObjectId;

    fn key(t: u64, serial: u64) -> EventKey {
        EventKey {
            recv_time: VirtualTime::new(t),
            sender: ObjectId(9),
            content_tag: 0,
            serial,
        }
    }

    fn ev(serial: u64, st: u64, rt: u64) -> Event {
        Event::new(
            EventId {
                sender: ObjectId(1),
                serial,
            },
            ObjectId(2),
            VirtualTime::new(st),
            VirtualTime::new(rt),
            0,
            vec![],
        )
    }

    #[test]
    fn take_from_splits_on_generating_key() {
        let mut q = OutputQueue::new();
        q.record(None, ev(0, 0, 5)); // from init
        q.record(Some(key(10, 0)), ev(1, 10, 15));
        q.record(Some(key(10, 1)), ev(2, 10, 20));
        q.record(Some(key(20, 2)), ev(3, 20, 30));
        // Roll back to the event key(10,1): its sends and later ones are
        // erroneous; the coast event key(10,0) at the same virtual time
        // keeps its send.
        let cancelled = q.take_from(key(10, 1));
        assert_eq!(cancelled.len(), 2);
        assert_eq!(cancelled[0].id.serial, 2);
        assert_eq!(cancelled[1].id.serial, 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn init_sends_never_cancelled() {
        let mut q = OutputQueue::new();
        q.record(None, ev(0, 0, 5));
        let cancelled = q.take_from(key(0, 0));
        assert!(cancelled.is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn fossil_collect_drops_old_generations() {
        let mut q = OutputQueue::new();
        q.record(None, ev(0, 0, 5));
        q.record(Some(key(10, 0)), ev(1, 10, 15));
        q.record(Some(key(20, 1)), ev(2, 20, 25));
        assert_eq!(
            q.fossil_collect_before(key(20, 1), VirtualTime::INFINITY),
            2
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.records()[0].event.id.serial, 2);
    }

    #[test]
    fn sends_in_flight_past_gvt_survive_collection_and_form_the_frontier() {
        let mut q = OutputQueue::new();
        q.record(None, ev(0, 0, 100)); // init send far into the future
        q.record(Some(key(10, 0)), ev(1, 10, 15)); // landed, fossil gen
        q.record(Some(key(10, 1)), ev(2, 10, 80)); // in flight, fossil gen
        q.record(Some(key(30, 2)), ev(3, 30, 35));
        // Collect below key(30,2) at GVT 40: the two sends still in
        // flight past it survive though their generating events
        // fossilize; the landed one goes.
        assert_eq!(q.fossil_collect_before(key(30, 2), VirtualTime::new(40)), 1);
        let serials: Vec<u64> = q.records().iter().map(|r| r.event.id.serial).collect();
        assert_eq!(serials, vec![0, 2, 3]);
        // They are the frontier of a later horizon; a send generated at
        // or above the horizon is not.
        let frontier: Vec<u64> = q
            .crossing(VirtualTime::new(30))
            .iter()
            .map(|r| r.event.id.serial)
            .collect();
        assert_eq!(frontier, vec![0, 2]);
        // The retained records still honour take_from's ordering contract.
        let cancelled = q.take_from(key(30, 2));
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].id.serial, 3);
        // A rollback keeps exactly the frontier it is handed.
        q.reseed(q.crossing(VirtualTime::new(90)));
        assert_eq!(q.records()[0].event.id.serial, 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn record_after_rollback_reuses_positions() {
        let mut q = OutputQueue::new();
        q.record(Some(key(10, 0)), ev(1, 10, 15));
        let _ = q.take_from(key(10, 0));
        // Re-execution records at the same generation again — legal
        // because the queue was truncated first.
        q.record(Some(key(10, 0)), ev(5, 10, 15));
        assert_eq!(q.len(), 1);
    }
}
