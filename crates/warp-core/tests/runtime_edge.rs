//! Edge-case coverage for the object runtime's cancellation machinery:
//! strategy switches with pending obligations, aggressive-mode passive
//! monitoring, and out-of-order delivery.

use warp_core::event::{Event, EventId, Payload};
use warp_core::object::{DynState, ExecutionContext, ObjectState, SimObject};
use warp_core::policy::{CancellationMode, CancellationSelector, FixedCheckpoint, ObjectPolicies};
use warp_core::wire::{PayloadReader, PayloadWriter};
use warp_core::{CostModel, ObjectId, ObjectRuntime, VirtualTime};

/// Forwards its running sum to a peer on every kind-1 event.
#[derive(Clone, Debug)]
struct AccState {
    sum: u64,
}
impl ObjectState for AccState {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u64(self.sum);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        Ok(AccState { sum: r.u64()? })
    }
}

struct Acc {
    peer: ObjectId,
    state: AccState,
}

impl SimObject for Acc {
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        let v = PayloadReader::new(&ev.payload).u64().unwrap_or(0);
        self.state.sum += v;
        if ev.kind == 1 {
            let mut w = PayloadWriter::new();
            w.u64(self.state.sum);
            ctx.send(self.peer, 10, 1, w.finish());
        }
    }
    fn state(&self) -> &dyn DynState {
        &self.state
    }
    fn state_mut(&mut self) -> &mut dyn DynState {
        &mut self.state
    }
}

/// A scripted selector: switches mode at chosen invocation counts.
struct Scripted {
    mode: CancellationMode,
    script: Vec<CancellationMode>,
    invocations: usize,
    monitoring: bool,
    comparisons: std::cell::Cell<u64>,
}

impl CancellationSelector for Scripted {
    fn mode(&self) -> CancellationMode {
        self.mode
    }
    fn monitoring(&self) -> bool {
        self.monitoring
    }
    fn record_comparison(&mut self, _hit: bool) {
        self.comparisons.set(self.comparisons.get() + 1);
    }
    fn invoke(&mut self) -> Option<CancellationMode> {
        if let Some(&m) = self.script.get(self.invocations) {
            self.mode = m;
        }
        self.invocations += 1;
        Some(self.mode)
    }
    fn period(&self) -> u64 {
        1
    }
    fn name(&self) -> &'static str {
        "scripted"
    }
}

fn runtime(selector: Scripted) -> ObjectRuntime {
    ObjectRuntime::new(
        ObjectId(0),
        Box::new(Acc {
            peer: ObjectId(1),
            state: AccState { sum: 0 },
        }),
        ObjectPolicies::new(Box::new(selector), Box::new(FixedCheckpoint::new(1))),
    )
}

fn payload(v: u64) -> Payload {
    let mut w = PayloadWriter::new();
    w.u64(v);
    w.finish()
}

fn incoming(sender: u32, serial: u64, rt: u64, v: u64) -> Event {
    Event::new(
        EventId {
            sender: ObjectId(sender),
            serial,
        },
        ObjectId(0),
        VirtualTime::ZERO,
        VirtualTime::new(rt),
        1,
        payload(v),
    )
}

#[test]
fn switching_lazy_to_aggressive_cancels_all_pendings() {
    let cost = CostModel::uniform_unit();
    // Lazy for the first invocation, aggressive thereafter.
    let sel = Scripted {
        mode: CancellationMode::Lazy,
        script: vec![
            CancellationMode::Lazy,
            CancellationMode::Aggressive,
            CancellationMode::Aggressive,
        ],
        invocations: 0,
        monitoring: false,
        comparisons: std::cell::Cell::new(0),
    };
    let mut r = runtime(sel);
    let mut out = Vec::new();
    r.init(&cost, &mut out);
    r.deliver(incoming(9, 0, 30, 7), &cost, &mut out);
    while r.process_next(&cost, &mut out) {}
    out.clear();

    // Rollback under lazy: the t=40 send goes pending, nothing on the wire.
    r.deliver(incoming(8, 0, 20, 100), &cost, &mut out);
    assert!(out.is_empty(), "lazy rollback sends nothing immediately");
    // Processing the straggler invokes the controller (period 1), which
    // switches to aggressive: the pending original must be cancelled now.
    assert!(r.process_next(&cost, &mut out));
    let antis = out.iter().filter(|e| e.is_anti()).count();
    assert_eq!(
        antis, 1,
        "mode switch must flush the pending as an anti: {out:?}"
    );
    assert_eq!(r.stats().strategy_switches, 1);
    // Finish: the re-executed event resends under aggressive rules.
    while r.process_next(&cost, &mut out) {}
    r.flush_all_pending(&cost, &mut out);
    let positives = out.iter().filter(|e| !e.is_anti()).count();
    assert_eq!(positives, 2, "straggler send + re-executed send");
    assert_eq!(r.gvt_contribution(), VirtualTime::INFINITY);
}

#[test]
fn aggressive_monitoring_counts_hypothetical_hits() {
    let cost = CostModel::uniform_unit();
    let sel = Scripted {
        mode: CancellationMode::Aggressive,
        script: vec![],
        invocations: 0,
        monitoring: true,
        comparisons: std::cell::Cell::new(0),
    };
    let mut r = runtime(sel);
    let mut out = Vec::new();
    r.init(&cost, &mut out);
    r.deliver(incoming(9, 1, 30, 7), &cost, &mut out);
    while r.process_next(&cost, &mut out) {}
    out.clear();

    // A straggler that does NOT change the t=30 output (kind 0 adds 0):
    // aggressive cancels immediately, but passive comparison should
    // record that lazy would have hit.
    let mut straggler = incoming(8, 0, 20, 0);
    straggler.kind = 0;
    straggler.content_tag = Event::tag_for(straggler.kind, &straggler.payload);
    r.deliver(straggler, &cost, &mut out);
    assert_eq!(
        out.iter().filter(|e| e.is_anti()).count(),
        1,
        "aggressive cancels now"
    );
    while r.process_next(&cost, &mut out) {}
    assert_eq!(r.stats().monitor_hits, 1, "the regenerated message matched");
    assert_eq!(r.stats().monitor_misses, 0);
    // The resend still happened — monitoring never suppresses traffic.
    let positives = out.iter().filter(|e| !e.is_anti()).count();
    assert_eq!(positives, 1);
}

#[test]
fn orphan_anti_then_positive_annihilates_silently() {
    let cost = CostModel::uniform_unit();
    let sel = Scripted {
        mode: CancellationMode::Aggressive,
        script: vec![],
        invocations: 0,
        monitoring: false,
        comparisons: std::cell::Cell::new(0),
    };
    let mut r = runtime(sel);
    let mut out = Vec::new();
    r.init(&cost, &mut out);
    let ev = incoming(9, 5, 50, 3);
    // Anti first (out-of-order transport), then the positive.
    r.deliver(ev.to_anti(), &cost, &mut out);
    r.deliver(ev, &cost, &mut out);
    assert_eq!(r.stats().annihilated, 1);
    assert!(!r.process_next(&cost, &mut out), "nothing left to execute");
    assert_eq!(r.stats().executed, 0);
}

#[test]
fn self_messages_round_trip() {
    // An object may schedule events for itself; they flow through the
    // same queues.
    struct SelfTimer {
        state: AccState,
        limit: u64,
    }
    impl SimObject for SelfTimer {
        fn init(&mut self, ctx: &mut dyn ExecutionContext) {
            ctx.send(ctx.me(), 5, 0, Payload::new());
        }
        fn execute(&mut self, ctx: &mut dyn ExecutionContext, _ev: &Event) {
            self.state.sum += 1;
            if self.state.sum < self.limit {
                ctx.send(ctx.me(), 5, 0, Payload::new());
            }
        }
        fn state(&self) -> &dyn DynState {
            &self.state
        }
        fn state_mut(&mut self) -> &mut dyn DynState {
            &mut self.state
        }
    }
    let cost = CostModel::uniform_unit();
    let mut r = ObjectRuntime::new(
        ObjectId(0),
        Box::new(SelfTimer {
            state: AccState { sum: 0 },
            limit: 10,
        }),
        ObjectPolicies::default(),
    );
    let mut out = Vec::new();
    r.init(&cost, &mut out);
    // Self-sends surface in `out` like any other send; feed them back.
    let mut guard = 0;
    while !out.is_empty() || r.next_time().is_finite() {
        for ev in std::mem::take(&mut out) {
            assert_eq!(ev.dst, ObjectId(0));
            r.deliver(ev, &cost, &mut out);
        }
        while r.process_next(&cost, &mut out) {}
        guard += 1;
        assert!(guard < 100);
    }
    assert_eq!(r.stats().executed, 10);
}
