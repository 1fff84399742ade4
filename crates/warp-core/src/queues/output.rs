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
    /// Records at the front that the last in-flight compaction kept (see
    /// [`fossil_collect_before`](Self::fossil_collect_before)).
    kept: usize,
}

/// Under recovery, a fossil pass compacts the fossil prefix only once it
/// has grown to this multiple of what the last compaction kept.
const COMPACT_GROWTH: usize = 2;

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

    /// Remove every message generated by events with key `>= key` — the
    /// erroneous sends undone by a rollback to `key` — and append them to
    /// `into`, a buffer the caller reuses. Messages from `init`
    /// (`gen == None`) are never affected.
    pub fn take_from(&mut self, key: EventKey, into: &mut Vec<Event>) {
        let idx = self
            .records
            .partition_point(|r| r.gen.is_none_or(|g| g < key));
        into.extend(self.records.drain(idx..).map(|r| r.event));
    }

    /// Drop records generated strictly before `bound` (the fossil bound
    /// from the state queue): those events can never roll back again, so
    /// their sends can never need cancellation. `init` records are always
    /// reclaimable once a bound exists. Returns the number reclaimed.
    ///
    /// Under the recovery protocol, `in_flight` picks the records that
    /// stay whatever generated them: sends to another LP still in flight
    /// past GVT, which every later horizon's image must find (see
    /// [`crossing`](Self::crossing)). They are a standing population, so
    /// the fossil prefix is sifted only once it has grown to
    /// `COMPACT_GROWTH` times what the last sift kept; what waits until
    /// then is never cancelled (its generators are fossils).
    pub fn fossil_collect_before(
        &mut self,
        bound: EventKey,
        in_flight: Option<&dyn Fn(&Event) -> bool>,
    ) -> u64 {
        let cut = self
            .records
            .partition_point(|r| r.gen.is_none_or(|g| g < bound));
        let Some(in_flight) = in_flight else {
            self.records.drain(..cut);
            self.kept = 0;
            return cut as u64;
        };
        if cut < COMPACT_GROWTH * self.kept.max(1) {
            return 0;
        }
        let mut kept = 0;
        for i in 0..cut {
            if in_flight(&self.records[i].event) {
                self.records.swap(kept, i);
                kept += 1;
            }
        }
        self.records.drain(kept..cut);
        self.kept = kept;
        (cut - kept) as u64
    }

    /// The sends generated below the horizon `h` that land at or after
    /// it: the outgoing frontier a restore at `h` sends again.
    pub fn crossing(&self, h: VirtualTime) -> impl Iterator<Item = &Event> + Clone {
        let below = self
            .records
            .partition_point(|r| r.gen.is_none_or(|g| g.recv_time < h));
        self.records[..below]
            .iter()
            .map(|r| &r.event)
            .filter(move |e| e.recv_time >= h)
    }

    /// Replace everything with `frontier`, sends generated below a
    /// horizon no rollback reaches: a restore from a recovery image files
    /// the object's sends in flight to other LPs as init's sends are
    /// filed.
    pub fn reseed(&mut self, frontier: Vec<Event>) {
        self.kept = frontier.len();
        self.records = frontier
            .into_iter()
            .map(|event| SentRecord { gen: None, event })
            .collect();
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

    fn taken(q: &mut OutputQueue, key: EventKey) -> Vec<Event> {
        let mut cancelled = Vec::new();
        q.take_from(key, &mut cancelled);
        cancelled
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
        let cancelled = taken(&mut q, key(10, 1));
        assert_eq!(cancelled.len(), 2);
        assert_eq!(cancelled[0].id.serial, 2);
        assert_eq!(cancelled[1].id.serial, 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn init_sends_never_cancelled() {
        let mut q = OutputQueue::new();
        q.record(None, ev(0, 0, 5));
        let cancelled = taken(&mut q, key(0, 0));
        assert!(cancelled.is_empty());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn fossil_collect_drops_old_generations() {
        let mut q = OutputQueue::new();
        q.record(None, ev(0, 0, 5));
        q.record(Some(key(10, 0)), ev(1, 10, 15));
        q.record(Some(key(20, 1)), ev(2, 20, 25));
        assert_eq!(q.fossil_collect_before(key(20, 1), None), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.records()[0].event.id.serial, 2);
    }

    #[test]
    fn sends_in_flight_past_gvt_survive_collection_and_form_the_frontier() {
        let serials =
            |it: &mut dyn Iterator<Item = &Event>| it.map(|e| e.id.serial).collect::<Vec<_>>();
        let mut q = OutputQueue::new();
        q.record(None, ev(0, 0, 100)); // init send far into the future
        q.record(Some(key(10, 0)), ev(1, 10, 15)); // landed, fossil gen
        q.record(Some(key(10, 1)), ev(2, 10, 80)); // in flight, fossil gen
        q.record(Some(key(30, 2)), ev(3, 30, 35));
        // Collect below key(30,2) at GVT 40: the two sends still in
        // flight past it survive though their generating events
        // fossilize; the landed one goes.
        let in_flight = |gvt: u64| move |e: &Event| e.recv_time >= VirtualTime::new(gvt);
        assert_eq!(q.fossil_collect_before(key(30, 2), Some(&in_flight(40))), 1);
        let kept: Vec<u64> = q.records().iter().map(|r| r.event.id.serial).collect();
        assert_eq!(kept, vec![0, 2, 3]);
        // They are the frontier of a later horizon; a send generated at
        // or above the horizon is not, nor one landing below it.
        assert_eq!(serials(&mut q.crossing(VirtualTime::new(30))), vec![0, 2]);
        assert_eq!(
            serials(&mut q.crossing(VirtualTime::new(31))),
            vec![0, 2, 3]
        );
        assert_eq!(serials(&mut q.crossing(VirtualTime::new(90))), vec![0]);
        // The records left still honour take_from's ordering contract.
        let cancelled = taken(&mut q, key(30, 2));
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].id.serial, 3);
        // Two survivors: the next pass leaves the prefix alone until it
        // has doubled, then sifts it — serial 2 has landed by then.
        q.record(Some(key(90, 3)), ev(4, 90, 95));
        assert_eq!(q.fossil_collect_before(key(90, 3), Some(&in_flight(90))), 0);
        assert_eq!(serials(&mut q.crossing(VirtualTime::new(91))), vec![0, 4]);
        q.record(Some(key(95, 4)), ev(5, 95, 99));
        q.record(Some(key(96, 5)), ev(6, 96, 97));
        assert_eq!(q.fossil_collect_before(key(96, 5), Some(&in_flight(96))), 2);
        let kept: Vec<u64> = q.records().iter().map(|r| r.event.id.serial).collect();
        assert_eq!(kept, vec![0, 5, 6]);
        // A restore keeps exactly the frontier it is handed.
        q.reseed(vec![ev(7, 50, 120)]);
        assert_eq!(serials(&mut q.crossing(VirtualTime::new(100))), vec![7]);
        assert!(taken(&mut q, key(100, 0)).is_empty());
    }

    #[test]
    fn record_after_rollback_reuses_positions() {
        let mut q = OutputQueue::new();
        q.record(Some(key(10, 0)), ev(1, 10, 15));
        let _ = taken(&mut q, key(10, 0));
        // Re-execution records at the same generation again — legal
        // because the queue was truncated first.
        q.record(Some(key(10, 0)), ev(5, 10, 15));
        assert_eq!(q.len(), 1);
    }
}
