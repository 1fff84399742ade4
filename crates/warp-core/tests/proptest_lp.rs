//! Delivery-schedule invariance: an LP must commit the same per-object
//! history *whatever* the transport does — batches split arbitrarily,
//! deliveries interleaved with processing at arbitrary points, positives
//! delayed past their successors. This drives the rollback machinery far
//! harder than any well-behaved executive would.

use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use warp_core::event::{Event, EventId};
use warp_core::object::{ErasedState, ExecutionContext, ObjectState, SimObject};
use warp_core::policy::{CancellationMode, FixedCancellation, FixedCheckpoint, ObjectPolicies};
use warp_core::wire::{PayloadReader, PayloadWriter};
use warp_core::{CostModel, LpId, LpRuntime, ObjectId, Partition, VirtualTime};

/// Chain object: accumulates values; forwards its sum to the next object
/// in the LP on every event — so a mis-ordered delivery corrupts every
/// downstream sum unless rollback repairs it.
#[derive(Clone, Debug)]
struct SumState {
    sum: u64,
}
impl ObjectState for SumState {}

struct Chain {
    next: Option<ObjectId>,
    state: SumState,
}

impl SimObject for Chain {
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        let v = PayloadReader::new(&ev.payload).u64().unwrap_or(1);
        self.state.sum = self.state.sum.wrapping_mul(31).wrapping_add(v);
        if let Some(next) = self.next {
            let mut w = PayloadWriter::new();
            w.u64(self.state.sum);
            ctx.send(next, 7, 1, w.finish());
        }
    }
    fn snapshot(&self) -> ErasedState {
        ErasedState::of(self.state.clone())
    }
    fn restore(&mut self, snapshot: &ErasedState) {
        self.state = snapshot.get::<SumState>().clone();
    }
    fn state_bytes(&self) -> usize {
        std::mem::size_of::<SumState>()
    }
}

fn build_lp(n_objects: usize, mode: CancellationMode, chi: u32) -> LpRuntime {
    let partition = Arc::new(Partition::round_robin(n_objects, 1));
    let objects = (0..n_objects)
        .map(|i| {
            let next = if i + 1 < n_objects {
                Some(ObjectId(i as u32 + 1))
            } else {
                None
            };
            warp_core::ObjectRuntime::new(
                ObjectId(i as u32),
                Box::new(Chain {
                    next,
                    state: SumState { sum: i as u64 },
                }),
                ObjectPolicies::new(
                    Box::new(FixedCancellation(mode)),
                    Box::new(FixedCheckpoint::new(chi)),
                ),
            )
        })
        .collect();
    LpRuntime::new(LpId(0), partition, objects, CostModel::uniform_unit())
}

fn external(serial: u64, rt: u64, v: u64) -> Event {
    let mut w = PayloadWriter::new();
    w.u64(v);
    Event::new(
        EventId {
            sender: ObjectId(999),
            serial,
        },
        ObjectId(0),
        VirtualTime::ZERO,
        VirtualTime::new(rt),
        1,
        w.finish(),
    )
}

/// The LP scheduler's reference model — the linear scan its schedule
/// index replaced: the earliest next-event time over the objects and,
/// when that is finite, the lowest slot holding it.
fn scan(lp: &LpRuntime) -> (VirtualTime, Option<usize>) {
    let times: Vec<_> = lp.objects().iter().map(|o| o.next_time()).collect();
    let min = times
        .iter()
        .copied()
        .fold(VirtualTime::INFINITY, VirtualTime::min);
    let slot = times
        .iter()
        .position(|&t| t == min)
        .filter(|_| min.is_finite());
    (min, slot)
}

/// After every operation: the index answers as the scan does. The cost
/// drain returns nothing the reference could predict, but in a debug
/// build it asserts that no object outside its touched list holds a
/// charge — so drain here, where every kind of operation passes.
fn assert_index_agrees(lp: &mut LpRuntime) {
    assert_eq!(
        lp.next_time(),
        scan(lp).0,
        "schedule index out of step with the objects"
    );
    lp.take_cost();
}

/// `LpRuntime::deliver` of one event, checked against the reference.
fn deliver(lp: &mut LpRuntime, ev: Event) {
    let mut out = Vec::new();
    lp.deliver(vec![ev], &mut out);
    assert!(out.is_empty(), "single-LP chain has no remote traffic");
    assert_index_agrees(lp);
}

/// `LpRuntime::process_one`, checked against the reference: the one
/// object whose `executed` advances is the lowest slot at the minimum.
fn process_one(lp: &mut LpRuntime) -> bool {
    let executed =
        |lp: &LpRuntime| -> Vec<u64> { lp.objects().iter().map(|o| o.stats().executed).collect() };
    let (_, want) = scan(lp);
    let before = executed(lp);
    let mut out = Vec::new();
    let ran = lp.process_one(&mut out);
    assert!(out.is_empty(), "single-LP chain has no remote traffic");
    let ran_slots: Vec<usize> = executed(lp)
        .iter()
        .zip(&before)
        .enumerate()
        .filter(|(_, (now, before))| now != before)
        .map(|(slot, _)| slot)
        .collect();
    assert_eq!(
        ran_slots,
        Vec::from_iter(want),
        "the scheduler must run the lowest slot at the earliest time"
    );
    assert_eq!(ran, want.is_some());
    assert_index_agrees(lp);
    ran
}

/// One step per schedule entry: `true` delivers the next undelivered
/// event if one remains, otherwise one event is processed (and a
/// delivery forced if the LP turns out idle).
fn interleave(lp: &mut LpRuntime, undelivered: &mut VecDeque<Event>, schedule: &[bool]) {
    for &deliver_next in schedule {
        if (deliver_next && !undelivered.is_empty()) || !process_one(lp) {
            if let Some(ev) = undelivered.pop_front() {
                deliver(lp, ev);
            }
        }
    }
}

/// Drain to quiescence: idle-flushing held-back anti-messages can
/// trigger rollbacks that create new pendings downstream, so flush and
/// process in a loop until the LP's GVT contribution reaches `until`
/// (exactly what the executives do, with `until` = ∞).
fn quiesce(lp: &mut LpRuntime, until: VirtualTime) {
    let mut out = Vec::new();
    let mut steps = 0;
    while lp.gvt_contribution() < until {
        if !process_one(lp) {
            lp.flush_idle(&mut out);
            assert!(out.is_empty());
            assert_index_agrees(lp);
        }
        steps += 1;
        assert!(steps < 100_000, "runaway");
    }
}

/// Run an initialized (or restored) LP to completion: `events` are
/// delivered in order, interleaved with processing as `schedule` says,
/// whatever is left once the schedule runs out is delivered in one go.
/// Returns the per-object digests.
fn drive(lp: &mut LpRuntime, events: &[Event], schedule: &[bool]) -> Vec<u64> {
    let mut undelivered: VecDeque<Event> = events.iter().cloned().collect();
    interleave(lp, &mut undelivered, schedule);
    for ev in undelivered {
        deliver(lp, ev);
    }
    quiesce(lp, VirtualTime::INFINITY);
    lp.objects()
        .iter()
        .map(|o| o.trace_digest().value())
        .collect()
}

fn run_with_schedule(
    n_objects: usize,
    events: &[Event],
    schedule: &[bool],
    mode: CancellationMode,
    chi: u32,
) -> Vec<u64> {
    let mut lp = build_lp(n_objects, mode, chi);
    let mut out = Vec::new();
    lp.init(&mut out);
    assert!(out.is_empty(), "single-LP chain has no remote traffic");
    assert_index_agrees(&mut lp);
    drive(&mut lp, events, schedule)
}

/// Distinct external events with colliding timestamps.
fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec((1u64..40, 1u64..100), 1..14).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (rt, v))| external(i as u64, rt, v))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Whatever the delivery schedule, cancellation mode and checkpoint
    /// interval, the committed histories equal the eager baseline's
    /// (deliver everything first, then process in order — rollback-free),
    /// and after every step the LP's schedule index answers as a linear
    /// scan over its objects would — also when the object count is not a
    /// power of two (the index pads its leaves).
    #[test]
    fn delivery_schedule_is_irrelevant(
        n_objects in prop_oneof![Just(4usize), Just(5), Just(7)],
        events in arb_events(),
        schedule in proptest::collection::vec(any::<bool>(), 64),
        lazy in any::<bool>(),
        chi in 1u32..6,
    ) {
        let mode =
            if lazy { CancellationMode::Lazy } else { CancellationMode::Aggressive };
        let baseline =
            run_with_schedule(n_objects, &events, &[], CancellationMode::Aggressive, 1);
        let shuffled = run_with_schedule(n_objects, &events, &schedule, mode, chi);
        prop_assert_eq!(baseline, shuffled);
    }

    /// Delivering positives and then cancelling *all* of them (in any
    /// interleaving with processing) leaves every object exactly as
    /// initialized: the kernel must fully unwind cascaded effects.
    #[test]
    fn full_cancellation_unwinds_everything(
        events in arb_events(),
        schedule in proptest::collection::vec(any::<bool>(), 48),
        lazy in any::<bool>(),
        chi in 1u32..6,
    ) {
        let mode =
            if lazy { CancellationMode::Lazy } else { CancellationMode::Aggressive };
        let mut lp = build_lp(4, mode, chi);
        lp.init(&mut Vec::new());
        // Deliver with interleaved processing, then cancel everything.
        let mut k = 0usize;
        let mut queue: Vec<Event> = events.clone();
        let mut antis: Vec<Event> = events.iter().map(Event::to_anti).collect();
        while !queue.is_empty() || !antis.is_empty() {
            let deliver_positive = schedule.get(k).copied().unwrap_or(false);
            k += 1;
            if deliver_positive && !queue.is_empty() {
                deliver(&mut lp, queue.remove(0));
            } else if !process_one(&mut lp) || k.is_multiple_of(3) {
                // Sometimes cancel while idle, sometimes mid-stream.
                if let Some(a) = if queue.is_empty() { antis.pop() } else { None } {
                    deliver(&mut lp, a);
                }
            }
            prop_assert!(k < 100_000);
        }
        quiesce(&mut lp, VirtualTime::INFINITY);
        let s = lp.stats();
        prop_assert_eq!(s.executed - s.rolled_back, 0, "all effects must unwind");
        for o in lp.objects() {
            prop_assert_eq!(o.trace_digest().count(), 0);
            prop_assert_eq!(o.gvt_contribution(), VirtualTime::INFINITY);
        }
    }

    /// The recovery paths reset every object behind the router's back —
    /// `rollback_to_horizon` in place, `restore_committed` on a fresh LP
    /// — so the schedule index is rebuilt wholesale. Both LPs must come
    /// out with an index that agrees with their objects, and, resumed
    /// under the interleaving, commit the baseline's histories.
    #[test]
    fn recovery_paths_rebuild_the_index_and_resume(
        events in arb_events(),
        schedule in proptest::collection::vec(any::<bool>(), 64),
        lazy in any::<bool>(),
        chi in 1u32..6,
        horizon in 1u64..70,
    ) {
        const N: usize = 5;
        let mode =
            if lazy { CancellationMode::Lazy } else { CancellationMode::Aggressive };
        let horizon = VirtualTime::new(horizon);
        let baseline = run_with_schedule(N, &events, &[], CancellationMode::Aggressive, 1);

        // A dead session: some interleaving, then GVT reaches the horizon
        // (everything delivered, nothing below it pending or held back).
        let (before, after) = schedule.split_at(24);
        let mut survivor = build_lp(N, mode, chi);
        survivor.init(&mut Vec::new());
        let mut undelivered: VecDeque<Event> = events.iter().cloned().collect();
        interleave(&mut survivor, &mut undelivered, before);
        for ev in undelivered {
            deliver(&mut survivor, ev);
        }
        quiesce(&mut survivor, horizon);
        let logs: HashMap<_, _> = survivor
            .committed_window(VirtualTime::ZERO, horizon)
            .into_iter()
            .collect();

        let mut out = Vec::new();
        survivor.rollback_to_horizon(horizon, &mut out);
        let mut rebuilt = build_lp(N, mode, chi);
        rebuilt.restore_committed(logs, horizon, &mut out);
        prop_assert!(out.is_empty());

        // The resumed session re-delivers what the dead one had in
        // flight at or above the horizon: here, the external events.
        let resent: Vec<Event> =
            events.iter().filter(|ev| ev.recv_time >= horizon).cloned().collect();
        for lp in [&mut survivor, &mut rebuilt] {
            assert_index_agrees(lp);
            prop_assert!(lp.next_time() >= horizon);
            prop_assert_eq!(&drive(lp, &resent, after), &baseline);
        }
    }
}
