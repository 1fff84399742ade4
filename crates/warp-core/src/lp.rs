//! The logical process: a group of simulation objects scheduled together.
//!
//! WARPED departs from Jefferson's original formulation by clustering
//! simulation objects into logical processes (LPs). The LP is the unit of
//! placement and of communication: events between objects of the same LP
//! are delivered by a queue insert (cheap, immediate), events crossing LPs
//! go through the transport — which is where message aggregation (DyMA)
//! earns its keep.

use crate::cost::CostModel;
use crate::event::Event;
use crate::ids::{LpId, ObjectId};
use crate::partition::Partition;
use crate::runtime::ObjectRuntime;
use crate::stats::ObjectStats;
use crate::time::VirtualTime;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One logical process: local scheduler over its objects.
pub struct LpRuntime {
    id: LpId,
    objects: Vec<ObjectRuntime>,
    /// Dense routing table over *global* object ids: the object's index
    /// in `objects`, or [`REMOTE`] when another LP hosts it.
    slot_of: Vec<u32>,
    cost: CostModel,
    /// LP-level modeled CPU charges (local deliveries) pending drain.
    cost_acc: f64,
    /// Scratch queue for intra-LP delivery cascades.
    cascade: VecDeque<Event>,
    /// Scratch for what one object call emits, drained into `cascade`
    /// right after the call. Both are empty between calls and keep their
    /// capacity, so routing allocates nothing per event.
    fresh: Vec<Event>,
    /// Lowest-timestamp-first index over `objects[i].next_time()`, kept
    /// current by [`touch`](Self::touch) after every call into an object
    /// that can move its pending minimum.
    sched: Schedule,
    /// Slots called into since the last [`take_cost`](Self::take_cost):
    /// the only objects whose cost accumulator can be non-zero. `dirty[i]`
    /// ⇔ `i` is listed in `touched`, so the list never outgrows the
    /// object count however long an executive goes without draining.
    touched: Vec<u32>,
    dirty: Vec<bool>,
}

/// `slot_of` entry of an object hosted by another LP.
const REMOTE: u32 = u32::MAX;

/// One node of the [`Schedule`]: a next-event time and the slot it
/// belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    time: VirtualTime,
    slot: u32,
}

/// The LP scheduler's index: a winner (tournament) tree over the
/// objects' next-event times, in one array that never reallocates.
///
/// `cap` is the object count rounded up to a power of two. Node
/// `cap + i` is the leaf of slot `i` (leaves past the last object stay
/// at ∞ forever); node `k < cap` holds a copy of the earlier of its
/// children `2k` and `2k + 1`, the *left* one on a tie; node 1 is the
/// root. Leaves are in slot order, so "left wins ties" makes the root
/// the lowest slot among the objects at the minimum time — the choice
/// `Iterator::min_by_key` made when the scheduler was a linear scan, and
/// the one the virtual executive's rollback pattern and modeled clock
/// are pinned to. A padding leaf can only tie (at ∞) with something to
/// its left, so it never reaches the root ahead of a real slot.
struct Schedule {
    nodes: Box<[Entry]>,
    cap: usize,
}

impl Schedule {
    /// Index over `n` idle objects.
    fn new(n: usize) -> Self {
        let cap = n.next_power_of_two();
        let nodes = (0..2 * cap)
            .map(|k| Entry {
                time: VirtualTime::INFINITY,
                slot: k.saturating_sub(cap) as u32,
            })
            .collect();
        let mut sched = Schedule { nodes, cap };
        sched.rebuild(std::iter::empty());
        sched
    }

    /// The earliest next-event time and the lowest slot holding it (at
    /// ∞ the whole LP is idle and the slot means nothing).
    #[inline]
    fn min(&self) -> Entry {
        self.nodes[1]
    }

    #[inline]
    fn winner(&self, k: usize) -> Entry {
        let (l, r) = (self.nodes[2 * k], self.nodes[2 * k + 1]);
        if r.time < l.time {
            r
        } else {
            l
        }
    }

    /// Slot `slot`'s next-event time is now `time`: one leaf write, then
    /// replay its matches towards the root, stopping at the first whose
    /// winner does not change (no ancestor above it changes either). At
    /// most ⌈log₂ n⌉ compares, and none when the time did not move —
    /// the common delivery, an insert behind the object's minimum.
    #[inline]
    fn set(&mut self, slot: usize, time: VirtualTime) {
        let mut k = self.cap + slot;
        if self.nodes[k].time == time {
            return;
        }
        self.nodes[k].time = time;
        while k > 1 {
            k /= 2;
            let w = self.winner(k);
            if self.nodes[k] == w {
                return;
            }
            self.nodes[k] = w;
        }
    }

    /// Recompute every match after overwriting the leading leaves with
    /// `times` (slot order).
    fn rebuild(&mut self, times: impl Iterator<Item = VirtualTime>) {
        for (leaf, time) in self.nodes[self.cap..].iter_mut().zip(times) {
            leaf.time = time;
        }
        for k in (1..self.cap).rev() {
            self.nodes[k] = self.winner(k);
        }
    }
}

impl LpRuntime {
    /// Assemble an LP from its object runtimes. `objects` must be exactly
    /// the objects the partition assigns to `id`.
    pub fn new(
        id: LpId,
        partition: Arc<Partition>,
        objects: Vec<ObjectRuntime>,
        cost: CostModel,
    ) -> Self {
        let expected = partition.objects_of(id);
        assert_eq!(
            objects.iter().map(|o| o.id()).collect::<Vec<_>>(),
            expected.to_vec(),
            "LP {id} constructed with objects not matching the partition"
        );
        let mut slot_of = vec![REMOTE; partition.n_objects()];
        for (i, o) in objects.iter().enumerate() {
            slot_of[o.id().index()] = i as u32;
        }
        let n = objects.len();
        LpRuntime {
            id,
            objects,
            slot_of,
            cost,
            cost_acc: 0.0,
            cascade: VecDeque::new(),
            fresh: Vec::new(),
            sched: Schedule::new(n),
            touched: Vec::with_capacity(n),
            dirty: vec![false; n],
        }
    }

    /// This LP's id.
    pub fn id(&self) -> LpId {
        self.id
    }

    /// Number of objects hosted.
    pub fn n_objects(&self) -> usize {
        self.objects.len()
    }

    /// Run every object's `init`, delivering local events and returning
    /// remote ones for the transport.
    pub fn init(&mut self, out: &mut Vec<Event>) {
        for o in &mut self.objects {
            o.init(&self.cost, &mut self.fresh);
        }
        self.touch_all();
        self.route(out);
    }

    /// Deliver a batch of incoming events from the transport. Cascaded
    /// anti-messages to remote LPs are pushed to `out`.
    pub fn deliver(&mut self, events: Vec<Event>, out: &mut Vec<Event>) {
        self.cascade.extend(events);
        self.route(out);
    }

    /// Route what is queued in `cascade` followed by `fresh`: local
    /// destinations are delivered (cascading through any rollbacks they
    /// trigger), remote destinations accumulate in `out` for the
    /// transport layer.
    fn route(&mut self, out: &mut Vec<Event>) {
        self.cascade.extend(self.fresh.drain(..));
        while let Some(ev) = self.cascade.pop_front() {
            let slot = self.slot_of[ev.dst.index()];
            if slot == REMOTE {
                out.push(ev);
                continue;
            }
            self.cost_acc += self.cost.local_delivery;
            self.objects[slot as usize].deliver(ev, &self.cost, &mut self.fresh);
            self.touch(slot as usize);
            self.cascade.extend(self.fresh.drain(..));
        }
    }

    /// `objects[slot]` was just called into — a delivery (insert,
    /// annihilation, rollback) or an execution: bring its leaf of the
    /// schedule index up to date and list it for the next cost drain.
    #[inline]
    fn touch(&mut self, slot: usize) {
        self.sched.set(slot, self.objects[slot].next_time());
        if !self.dirty[slot] {
            self.dirty[slot] = true;
            self.touched.push(slot as u32);
        }
    }

    /// Every object was just called into behind `route`'s back (init,
    /// in-place rollback, replay from a committed log): rebuild the
    /// schedule index and list every slot for the next cost drain.
    fn touch_all(&mut self) {
        self.sched
            .rebuild(self.objects.iter().map(|o| o.next_time()));
        self.dirty.fill(true);
        self.touched.clear();
        self.touched.extend(0..self.objects.len() as u32);
    }

    /// The scheduler's choice by linear scan — what [`Schedule::min`]
    /// must agree with. Reference for debug assertions only.
    fn scan_choice(&self) -> Option<usize> {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, o)| o.next_time().is_finite())
            .min_by_key(|(_, o)| o.next_time())
            .map(|(i, _)| i)
    }

    /// Receive time of the earliest unprocessed event across the LP's
    /// objects (∞ when the whole LP is idle). One read of the schedule
    /// index, whatever the object count.
    #[inline]
    pub fn next_time(&self) -> VirtualTime {
        self.sched.min().time
    }

    /// Lower bound this LP imposes on GVT (next events plus any unsent
    /// lazy anti-messages).
    pub fn gvt_contribution(&self) -> VirtualTime {
        self.objects
            .iter()
            .map(|o| o.gvt_contribution())
            .fold(VirtualTime::INFINITY, VirtualTime::min)
    }

    /// Execute one event: the lowest-timestamp-first object is chosen,
    /// mirroring WARPED's LP scheduler; among objects tied at that
    /// timestamp, the one in the lowest slot. Outgoing remote events land
    /// in `out`. Returns `false` when the LP is idle.
    pub fn process_one(&mut self, out: &mut Vec<Event>) -> bool {
        let Entry { time, slot } = self.sched.min();
        let best = time.is_finite().then_some(slot as usize);
        debug_assert_eq!(
            best,
            self.scan_choice(),
            "schedule index out of step with the objects"
        );
        let Some(best) = best else {
            return false;
        };
        let advanced = self.objects[best].process_next(&self.cost, &mut self.fresh);
        debug_assert!(advanced);
        self.touch(best);
        self.route(out);
        true
    }

    /// Flush held-back lazy anti-messages of idle objects so GVT can
    /// advance past them. Busy objects flush on their own as they process.
    pub fn flush_idle(&mut self, out: &mut Vec<Event>) {
        for o in &mut self.objects {
            if o.next_time().is_infinite() {
                o.flush_all_pending(&self.cost, &mut self.fresh);
            }
        }
        self.route(out);
    }

    /// The LP's optimism front: the largest LVT among its objects (how
    /// far ahead of GVT the LP has speculated). Timeline diagnostics.
    pub fn lvt_front(&self) -> VirtualTime {
        self.objects
            .iter()
            .map(|o| o.lvt())
            .fold(VirtualTime::ZERO, VirtualTime::max)
    }

    /// Estimated bytes of retained history across the LP's objects, each
    /// an O(1) read (see [`ObjectRuntime::history_bytes`]) — what the
    /// threaded executive paces fossil collection by.
    pub fn history_bytes(&self) -> usize {
        self.objects.iter().map(|o| o.history_bytes()).sum()
    }

    /// Total retained history items (input events + output records +
    /// state snapshots) across the LP's objects — the memory-pressure
    /// signal consumed by the adaptive GVT-period controller.
    pub fn history_items(&self) -> usize {
        self.objects
            .iter()
            .map(|o| {
                let (i, u, st) = o.history_sizes();
                i + u + st
            })
            .sum()
    }

    /// Reclaim history below the committed horizon in every object.
    pub fn fossil_collect(&mut self, gvt: VirtualTime) {
        for o in &mut self.objects {
            o.fossil_collect(gvt);
        }
    }

    /// Fossil collection under a recovery pin: committed sends landing at
    /// or after `keep_sends_from` are retained past their generating
    /// events' fossilization, so a later
    /// [`rollback_to_horizon`](Self::rollback_to_horizon) can still
    /// harvest the outgoing frontier (see
    /// [`ObjectRuntime::fossil_collect_retaining`]).
    pub fn fossil_collect_retaining(&mut self, gvt: VirtualTime, keep_sends_from: VirtualTime) {
        for o in &mut self.objects {
            o.fossil_collect_retaining(gvt, keep_sends_from);
        }
    }

    /// Roll every object back *in place* to the recovery horizon, then
    /// re-deliver the LP's outgoing frontier — committed sends landing at
    /// or beyond `horizon` — locally by insertion and remotely via `out`.
    /// The survivor's counterpart of
    /// [`restore_committed`](Self::restore_committed): same resulting
    /// contract (committed state below the horizon, frontier re-offered)
    /// without replaying the committed log from scratch. Requires that
    /// fossil collection was pinned at or below `horizon` for the whole
    /// session (see [`ObjectRuntime::rollback_to_horizon`] for the exact
    /// preconditions).
    pub fn rollback_to_horizon(&mut self, horizon: VirtualTime, out: &mut Vec<Event>) {
        // Harvest from every object before routing: a frontier event
        // delivered into an object that has not rolled back yet would be
        // destroyed by its own rollback.
        for o in &mut self.objects {
            self.fresh
                .extend(o.rollback_to_horizon(horizon, &self.cost));
        }
        self.touch_all();
        self.route(out);
    }

    /// Per-object committed events with receive time in `[from, below)`.
    /// With `below` at an announced GVT this is a checkpoint delta: the
    /// events are stable everywhere and consecutive windows concatenate
    /// into a complete committed log (see
    /// [`ObjectRuntime::committed_window`]).
    pub fn committed_window(
        &self,
        from: VirtualTime,
        below: VirtualTime,
    ) -> Vec<(ObjectId, Vec<Event>)> {
        self.objects
            .iter()
            .map(|o| (o.id(), o.committed_window(from, below)))
            .collect()
    }

    /// Rebuild a freshly constructed LP from per-object committed logs
    /// (everything below `horizon`), replaying each object's history
    /// through the normal execution path. Init-time and replay-generated
    /// sends below the horizon are suppressed — they are duplicates of
    /// events already present in some object's log — while the *frontier*
    /// (sends at or beyond the horizon, i.e. uncommitted work scheduled by
    /// committed events) is re-delivered: locally by insertion, remotely
    /// via `out`. Must be called instead of [`LpRuntime::init`], exactly
    /// once, before the LP resumes processing.
    pub fn restore_committed(
        &mut self,
        mut logs: HashMap<ObjectId, Vec<Event>>,
        horizon: VirtualTime,
        out: &mut Vec<Event>,
    ) {
        let mut raw = Vec::new();
        for o in &mut self.objects {
            o.init(&self.cost, &mut raw);
            let log = logs.remove(&o.id()).unwrap_or_default();
            o.replay_committed(log, &self.cost, &mut raw);
            self.fresh
                .extend(raw.drain(..).filter(|ev| ev.recv_time >= horizon));
        }
        self.touch_all();
        self.route(out);
    }

    /// Drain modeled CPU seconds charged since the last drain (object
    /// work plus LP-level delivery overhead). The sum is the LP's own
    /// charges plus every object's *in slot order*: float addition does
    /// not commute bit for bit, and the virtual executive's clock is
    /// pinned to this order. Objects not called into since the last drain
    /// hold exactly 0.0 and `x + 0.0 == x`, so only the touched ones are
    /// visited — sorted first.
    pub fn take_cost(&mut self) -> f64 {
        debug_assert!(
            self.objects
                .iter()
                .zip(&self.dirty)
                .all(|(o, &dirty)| dirty || o.pending_cost() == 0.0),
            "an object was charged without being touched"
        );
        let mut c = std::mem::replace(&mut self.cost_acc, 0.0);
        self.touched.sort_unstable();
        for slot in self.touched.drain(..) {
            self.dirty[slot as usize] = false;
            c += self.objects[slot as usize].take_cost();
        }
        c
    }

    /// Switch control-transition recording on or off for every object
    /// (telemetry; off by default, purely observational).
    pub fn set_record_control(&mut self, on: bool) {
        for o in &mut self.objects {
            o.set_record_control(on);
        }
    }

    /// Drain the controller decisions recorded across the LP's objects
    /// since the last drain, in per-object order.
    pub fn take_control_log(&mut self) -> Vec<crate::policy::ControlTransition> {
        let mut log = Vec::new();
        for o in &mut self.objects {
            log.extend(o.take_control_log());
        }
        log
    }

    /// Merged statistics over the LP's objects.
    pub fn stats(&self) -> ObjectStats {
        let mut s = ObjectStats::default();
        for o in &self.objects {
            s.merge(o.stats());
        }
        s
    }

    /// Per-object view for detailed reports.
    pub fn objects(&self) -> &[ObjectRuntime] {
        &self.objects
    }

    /// The shared cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::object::{ErasedState, ExecutionContext, ObjectState, SimObject};
    use crate::policy::ObjectPolicies;
    use crate::wire::{PayloadReader, PayloadWriter};

    /// Ping-pong object: forwards a decrementing counter to a peer.
    #[derive(Clone, Debug)]
    struct PingState {
        bounces: u64,
    }
    impl ObjectState for PingState {}

    struct Ping {
        peer: ObjectId,
        start: bool,
        state: PingState,
    }

    impl SimObject for Ping {
        fn init(&mut self, ctx: &mut dyn ExecutionContext) {
            if self.start {
                let mut w = PayloadWriter::new();
                w.u64(6);
                ctx.send(self.peer, 1, 0, w.finish());
            }
        }
        fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
            let mut r = PayloadReader::new(&ev.payload);
            let n = r.u64().unwrap();
            self.state.bounces += 1;
            if n > 0 {
                let mut w = PayloadWriter::new();
                w.u64(n - 1);
                ctx.send(self.peer, 1, 0, w.finish());
            }
        }
        fn snapshot(&self) -> ErasedState {
            ErasedState::of(self.state.clone())
        }
        fn restore(&mut self, snapshot: &ErasedState) {
            self.state = snapshot.get::<PingState>().clone();
        }
        fn state_bytes(&self) -> usize {
            std::mem::size_of::<PingState>()
        }
    }

    fn build_lp(partition: Arc<Partition>, lp: LpId, defs: Vec<(ObjectId, Ping)>) -> LpRuntime {
        let objects = defs
            .into_iter()
            .map(|(id, o)| ObjectRuntime::new(id, Box::new(o), ObjectPolicies::default()))
            .collect();
        LpRuntime::new(lp, partition, objects, CostModel::uniform_unit())
    }

    #[test]
    fn local_ping_pong_runs_to_completion() {
        // Both objects on one LP: the whole exchange is local.
        let part = Arc::new(Partition::round_robin(2, 1));
        let mut lp = build_lp(
            part,
            LpId(0),
            vec![
                (
                    ObjectId(0),
                    Ping {
                        peer: ObjectId(1),
                        start: true,
                        state: PingState { bounces: 0 },
                    },
                ),
                (
                    ObjectId(1),
                    Ping {
                        peer: ObjectId(0),
                        start: false,
                        state: PingState { bounces: 0 },
                    },
                ),
            ],
        );
        let mut out = Vec::new();
        lp.init(&mut out);
        assert!(out.is_empty(), "everything is local");
        let mut steps = 0;
        while lp.process_one(&mut out) {
            steps += 1;
            assert!(steps < 100, "ping-pong must terminate");
        }
        assert_eq!(steps, 7, "counter 6..0 inclusive");
        let s = lp.stats();
        assert_eq!(s.executed, 7);
        assert_eq!(s.rolled_back, 0);
        assert_eq!(lp.next_time(), VirtualTime::INFINITY);
        assert!(lp.take_cost() > 0.0);
    }

    #[test]
    fn remote_events_are_surfaced_not_swallowed() {
        // Two LPs: object 0 on LP0 starts, peer object 1 is on LP1.
        let part = Arc::new(Partition::round_robin(2, 2));
        let mut lp0 = build_lp(
            part.clone(),
            LpId(0),
            vec![(
                ObjectId(0),
                Ping {
                    peer: ObjectId(1),
                    start: true,
                    state: PingState { bounces: 0 },
                },
            )],
        );
        let mut out = Vec::new();
        lp0.init(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, ObjectId(1));

        let mut lp1 = build_lp(
            part,
            LpId(1),
            vec![(
                ObjectId(1),
                Ping {
                    peer: ObjectId(0),
                    start: false,
                    state: PingState { bounces: 0 },
                },
            )],
        );
        let mut out1 = Vec::new();
        lp1.init(&mut out1);
        lp1.deliver(std::mem::take(&mut out), &mut out1);
        assert!(out1.is_empty());
        assert!(lp1.process_one(&mut out1));
        assert_eq!(out1.len(), 1, "reply crosses back to LP0");
        assert_eq!(out1[0].dst, ObjectId(0));
    }

    #[test]
    fn anti_message_cascade_stays_local() {
        // Object 0 sends to local object 1; an anti-message for the
        // original event must locally cancel the downstream send.
        let part = Arc::new(Partition::round_robin(3, 1));
        let mut lp = build_lp(
            part,
            LpId(0),
            vec![
                (
                    ObjectId(0),
                    Ping {
                        peer: ObjectId(1),
                        start: false,
                        state: PingState { bounces: 0 },
                    },
                ),
                (
                    ObjectId(1),
                    Ping {
                        peer: ObjectId(2),
                        start: false,
                        state: PingState { bounces: 0 },
                    },
                ),
                (
                    ObjectId(2),
                    Ping {
                        peer: ObjectId(1),
                        start: false,
                        state: PingState { bounces: 0 },
                    },
                ),
            ],
        );
        let mut out = Vec::new();
        lp.init(&mut out);
        // Inject an external event into object 1, let it bounce 1→2.
        let mut w = PayloadWriter::new();
        w.u64(1);
        let ext = Event::new(
            EventId {
                sender: ObjectId(99),
                serial: 0,
            },
            ObjectId(1),
            VirtualTime::ZERO,
            VirtualTime::new(5),
            0,
            w.finish(),
        );
        lp.deliver(vec![ext.clone()], &mut out);
        while lp.process_one(&mut out) {}
        assert_eq!(lp.stats().executed, 2, "1 then 2 executed");
        // Cancel the external event: object 1 rolls back, sends an anti to
        // object 2 (aggressive default), which rolls back in cascade.
        lp.deliver(vec![ext.to_anti()], &mut out);
        let s = lp.stats();
        assert_eq!(s.anti_rollbacks, 2, "both objects rolled back");
        assert_eq!(s.annihilated, 2);
        assert!(out.is_empty(), "no remote traffic in a single-LP cascade");
        // Nothing left to do and no stale state.
        assert!(!lp.process_one(&mut out));
        assert_eq!(lp.stats().executed - lp.stats().rolled_back, 0);
    }

    #[test]
    fn restore_from_committed_logs_reproduces_the_run() {
        // Run a local ping-pong to completion, then rebuild a fresh LP
        // from the committed window below a mid-run horizon and let it
        // finish: the committed trace must be identical.
        let part = Arc::new(Partition::round_robin(2, 1));
        let defs = || {
            vec![
                (
                    ObjectId(0),
                    Ping {
                        peer: ObjectId(1),
                        start: true,
                        state: PingState { bounces: 0 },
                    },
                ),
                (
                    ObjectId(1),
                    Ping {
                        peer: ObjectId(0),
                        start: false,
                        state: PingState { bounces: 0 },
                    },
                ),
            ]
        };
        let mut lp = build_lp(part.clone(), LpId(0), defs());
        let mut out = Vec::new();
        lp.init(&mut out);
        while lp.process_one(&mut out) {}
        let want: Vec<_> = lp.objects().iter().map(|o| o.trace_digest()).collect();

        let horizon = VirtualTime::new(4);
        let logs: HashMap<_, _> = lp
            .committed_window(VirtualTime::ZERO, horizon)
            .into_iter()
            .collect();
        assert!(logs.values().any(|l| !l.is_empty()));
        assert!(logs.values().flatten().all(|ev| ev.recv_time < horizon));

        let mut fresh = build_lp(part, LpId(0), defs());
        fresh.restore_committed(logs, horizon, &mut out);
        assert!(out.is_empty(), "single-LP restore has no remote frontier");
        assert_eq!(
            fresh.next_time(),
            horizon,
            "frontier event at the horizon was regenerated"
        );
        while fresh.process_one(&mut out) {}
        let got: Vec<_> = fresh.objects().iter().map(|o| o.trace_digest()).collect();
        assert_eq!(got, want, "restored run diverged from the original");
    }

    #[test]
    fn in_place_rollback_reproduces_the_run() {
        // Run a local ping-pong to completion, roll the *same* LP back in
        // place to a mid-run horizon, and let it finish again: the
        // committed trace must match the original — the survivor path and
        // the rebuild path are interchangeable.
        let part = Arc::new(Partition::round_robin(2, 1));
        let mut lp = build_lp(
            part,
            LpId(0),
            vec![
                (
                    ObjectId(0),
                    Ping {
                        peer: ObjectId(1),
                        start: true,
                        state: PingState { bounces: 0 },
                    },
                ),
                (
                    ObjectId(1),
                    Ping {
                        peer: ObjectId(0),
                        start: false,
                        state: PingState { bounces: 0 },
                    },
                ),
            ],
        );
        let mut out = Vec::new();
        lp.init(&mut out);
        while lp.process_one(&mut out) {}
        let want: Vec<_> = lp.objects().iter().map(|o| o.trace_digest()).collect();
        let executed_full = lp.stats().executed;

        let horizon = VirtualTime::new(4);
        lp.rollback_to_horizon(horizon, &mut out);
        assert!(out.is_empty(), "single-LP frontier is all local");
        assert_eq!(
            lp.next_time(),
            horizon,
            "the frontier event at the horizon was re-delivered"
        );
        let mut resumed = 0;
        while lp.process_one(&mut out) {
            resumed += 1;
        }
        assert!(
            (resumed as u64) < executed_full,
            "survivor replays only the post-horizon tail"
        );
        let got: Vec<_> = lp.objects().iter().map(|o| o.trace_digest()).collect();
        assert_eq!(got, want, "in-place rollback diverged from the original");
    }

    #[test]
    fn schedule_prefers_the_lowest_slot_on_a_tie_and_never_a_padding_leaf() {
        let t = VirtualTime::new;
        // Five slots pad to eight leaves.
        let mut s = Schedule::new(5);
        assert!(s.min().time.is_infinite());
        s.set(3, t(7));
        s.set(1, t(7));
        s.set(4, t(7));
        assert_eq!((s.min().time, s.min().slot), (t(7), 1));
        s.set(1, VirtualTime::INFINITY);
        assert_eq!((s.min().time, s.min().slot), (t(7), 3));
        s.set(3, t(9));
        assert_eq!((s.min().time, s.min().slot), (t(7), 4));
        s.set(4, VirtualTime::INFINITY);
        assert_eq!((s.min().time, s.min().slot), (t(9), 3));
        s.rebuild([t(4), t(2), t(2), VirtualTime::INFINITY, t(2)].into_iter());
        assert_eq!((s.min().time, s.min().slot), (t(2), 1));
        // No objects at all: one idle padding leaf.
        assert!(Schedule::new(0).min().time.is_infinite());
    }

    #[test]
    fn take_cost_adds_objects_in_slot_order_not_touch_order() {
        // Slot 1 executes (charge 1.0) and sends to slot 0 (charges ε to
        // the LP and ε to slot 0, ε = half an ulp of 1.0): the touch
        // order is 1, 0. In slot order the sum is (ε + ε) + 1.0, exactly
        // 1 + 2ε; in touch order (ε + 1.0) + ε rounds to 1.0 twice.
        let half_ulp = f64::EPSILON / 2.0;
        let cost = CostModel {
            event_exec: 1.0,
            state_save_fixed: 0.0,
            queue_insert: half_ulp,
            local_delivery: half_ulp,
            ..CostModel::uniform_unit()
        };
        let part = Arc::new(Partition::round_robin(2, 1));
        let ping = |peer| Ping {
            peer: ObjectId(peer),
            start: false,
            state: PingState { bounces: 0 },
        };
        let objects = vec![(0, ping(1)), (1, ping(0))]
            .into_iter()
            .map(|(id, o)| ObjectRuntime::new(ObjectId(id), Box::new(o), ObjectPolicies::default()))
            .collect();
        let mut lp = LpRuntime::new(LpId(0), part, objects, cost);
        let mut out = Vec::new();
        lp.init(&mut out);
        let mut w = PayloadWriter::new();
        w.u64(1);
        let ext = Event::new(
            EventId {
                sender: ObjectId(99),
                serial: 0,
            },
            ObjectId(1),
            VirtualTime::ZERO,
            VirtualTime::new(5),
            0,
            w.finish(),
        );
        lp.deliver(vec![ext], &mut out);
        lp.take_cost();
        assert!(lp.process_one(&mut out));
        assert_eq!(lp.take_cost(), 1.0 + f64::EPSILON);
        assert_eq!(lp.take_cost(), 0.0, "drained");
    }

    #[test]
    fn scheduler_picks_lowest_timestamp_object() {
        let part = Arc::new(Partition::round_robin(2, 1));
        let mut lp = build_lp(
            part,
            LpId(0),
            vec![
                (
                    ObjectId(0),
                    Ping {
                        peer: ObjectId(1),
                        start: false,
                        state: PingState { bounces: 0 },
                    },
                ),
                (
                    ObjectId(1),
                    Ping {
                        peer: ObjectId(0),
                        start: false,
                        state: PingState { bounces: 0 },
                    },
                ),
            ],
        );
        let mut out = Vec::new();
        lp.init(&mut out);
        let mk = |dst: u32, t: u64, serial: u64| {
            let mut w = PayloadWriter::new();
            w.u64(0);
            Event::new(
                EventId {
                    sender: ObjectId(99),
                    serial,
                },
                ObjectId(dst),
                VirtualTime::ZERO,
                VirtualTime::new(t),
                0,
                w.finish(),
            )
        };
        lp.deliver(vec![mk(0, 50, 0), mk(1, 10, 1)], &mut out);
        assert_eq!(lp.next_time(), VirtualTime::new(10));
        lp.process_one(&mut out);
        // Object 1 (t=10) went first.
        assert_eq!(lp.objects()[1].stats().executed, 1);
        assert_eq!(lp.objects()[0].stats().executed, 0);
    }
}
