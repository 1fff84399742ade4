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
}

/// `slot_of` entry of an object hosted by another LP.
const REMOTE: u32 = u32::MAX;

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
        LpRuntime {
            id,
            objects,
            slot_of,
            cost,
            cost_acc: 0.0,
            cascade: VecDeque::new(),
            fresh: Vec::new(),
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
            self.cascade.extend(self.fresh.drain(..));
        }
    }

    /// Receive time of the earliest unprocessed event across the LP's
    /// objects (∞ when the whole LP is idle).
    pub fn next_time(&self) -> VirtualTime {
        self.objects
            .iter()
            .map(|o| o.next_time())
            .fold(VirtualTime::INFINITY, VirtualTime::min)
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
    /// mirroring WARPED's LP scheduler. Outgoing remote events land in
    /// `out`. Returns `false` when the LP is idle.
    pub fn process_one(&mut self, out: &mut Vec<Event>) -> bool {
        let Some(best) = self
            .objects
            .iter()
            .enumerate()
            .filter(|(_, o)| o.next_time().is_finite())
            .min_by_key(|(_, o)| o.next_time())
            .map(|(i, _)| i)
        else {
            return false;
        };
        let advanced = self.objects[best].process_next(&self.cost, &mut self.fresh);
        debug_assert!(advanced);
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
        self.route(out);
    }

    /// Drain modeled CPU seconds charged since the last drain (object
    /// work plus LP-level delivery overhead).
    pub fn take_cost(&mut self) -> f64 {
        let mut c = std::mem::replace(&mut self.cost_acc, 0.0);
        for o in &mut self.objects {
            c += o.take_cost();
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
