//! The sequential executive: the golden model.
//!
//! Runs the same simulation objects with a single global event list in
//! strict timestamp order — no optimism, no rollback, no cancellation.
//! Its committed history *defines* correctness for the optimistic
//! executives: per object, every Time Warp run must commit exactly the
//! history this engine executes (compared via trace digests).
//!
//! WARPED supported exactly this configuration ("the simulation kernel
//! can operate as a sequential kernel").

use crate::report::{LpSummary, ObjectSummary, RunReport};
use crate::spec::SimulationSpec;
use std::collections::BinaryHeap;
use std::time::Instant;
use warp_core::stats::{CommStats, ObjectStats};
use warp_core::trace::TraceDigest;
use warp_core::{
    Event, EventId, EventKey, ExecutionContext, KernelError, ObjectId, Payload, SimObject,
    VirtualTime,
};

struct SeqCtx {
    me: ObjectId,
    now: VirtualTime,
    sends: Vec<(ObjectId, VirtualTime, u16, Payload)>,
}

impl ExecutionContext for SeqCtx {
    fn me(&self) -> ObjectId {
        self.me
    }
    fn now(&self) -> VirtualTime {
        self.now
    }
    fn try_send_at(
        &mut self,
        dst: ObjectId,
        at: VirtualTime,
        kind: u16,
        payload: Payload,
    ) -> Result<(), KernelError> {
        if at <= self.now {
            return Err(KernelError::SendIntoPast {
                now: self.now,
                requested: at,
            });
        }
        self.sends.push((dst, at, kind, payload));
        Ok(())
    }
}

/// Min-heap entry ordered by the kernel's total event order.
struct HeapEntry(Event);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the minimum key.
        other.0.key().cmp(&self.0.key())
    }
}

/// Run the spec sequentially to completion (event exhaustion).
pub fn run_sequential(spec: &SimulationSpec) -> RunReport {
    let start = Instant::now();
    let n = spec.partition.n_objects();
    let mut objects: Vec<Box<dyn SimObject>> =
        (0..n).map(|i| (spec.objects)(ObjectId(i as u32))).collect();
    let mut serials = vec![0u64; n];
    let mut digests = vec![TraceDigest::new(); n];
    let mut executed = vec![0u64; n];
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();

    let push_sends = |heap: &mut BinaryHeap<HeapEntry>,
                      serials: &mut Vec<u64>,
                      me: ObjectId,
                      send_time: VirtualTime,
                      sends: &mut Vec<(ObjectId, VirtualTime, u16, Payload)>| {
        for (dst, at, kind, payload) in sends.drain(..) {
            let serial = serials[me.index()];
            serials[me.index()] += 1;
            heap.push(HeapEntry(Event::new(
                EventId { sender: me, serial },
                dst,
                send_time,
                at,
                kind,
                payload,
            )));
        }
    };

    // Init phase.
    for (i, obj) in objects.iter_mut().enumerate() {
        let me = ObjectId(i as u32);
        let mut ctx = SeqCtx {
            me,
            now: VirtualTime::ZERO,
            sends: Vec::new(),
        };
        obj.init(&mut ctx);
        push_sends(
            &mut heap,
            &mut serials,
            me,
            VirtualTime::ZERO,
            &mut ctx.sends,
        );
    }

    // Main loop: strict global key order.
    let dump_name = std::env::var("WARP_DUMP_HISTORY").ok();
    let mut last_key: Option<EventKey> = None;
    let mut total: u64 = 0;
    // One send buffer for the whole run, its capacity reused.
    let mut sends = Vec::new();
    while let Some(HeapEntry(ev)) = heap.pop() {
        if let Some(name) = &dump_name {
            if objects[ev.dst.index()].name() == *name {
                eprintln!(
                    "[seq-history] t={} from={} serial={} kind={} payload={:02x?}",
                    ev.recv_time, ev.id.sender, ev.id.serial, ev.kind, ev.payload
                );
            }
        }
        debug_assert!(
            last_key.is_none_or(|k| k < ev.key()),
            "sequential engine processed events out of order"
        );
        last_key = Some(ev.key());
        let i = ev.dst.index();
        let mut ctx = SeqCtx {
            me: ev.dst,
            now: ev.recv_time,
            sends,
        };
        objects[i].execute(&mut ctx, &ev);
        digests[i].update(&ev);
        executed[i] += 1;
        total += 1;
        push_sends(
            &mut heap,
            &mut serials,
            ev.dst,
            ev.recv_time,
            &mut ctx.sends,
        );
        sends = ctx.sends;
    }

    let wall = start.elapsed().as_secs_f64();
    // Shape the report along the partition's LPs for comparability.
    let per_lp: Vec<LpSummary> = spec
        .partition
        .lps()
        .map(|lp| {
            let objs = spec
                .partition
                .objects_of(lp)
                .iter()
                .map(|&id| ObjectSummary {
                    id: id.0,
                    name: objects[id.index()].name(),
                    final_mode: "sequential".into(),
                    final_chi: 0,
                    committed: executed[id.index()],
                    stats: ObjectStats {
                        executed: executed[id.index()],
                        ..Default::default()
                    },
                    trace_digest: if spec.collect_traces {
                        Some(digests[id.index()].value())
                    } else {
                        None
                    },
                })
                .collect();
            let kernel = ObjectStats {
                executed: spec
                    .partition
                    .objects_of(lp)
                    .iter()
                    .map(|&id| executed[id.index()])
                    .sum(),
                ..Default::default()
            };
            LpSummary {
                lp: lp.0,
                kernel,
                comm: CommStats::default(),
                objects: objs,
                cpu: None,
            }
        })
        .collect();

    let kernel = ObjectStats {
        executed: total,
        ..Default::default()
    };
    RunReport {
        timeline: Vec::new(),
        executive: "sequential".into(),
        completion_seconds: wall,
        wall_seconds: wall,
        committed_events: total,
        events_per_second: if wall > 0.0 { total as f64 / wall } else { 0.0 },
        gvt_rounds: 0,
        kernel,
        comm: CommStats::default(),
        per_lp,
        recoveries: 0,
        migrations: Vec::new(),
        scales: Vec::new(),
        telemetry: None,
        worker_peak_rss_kb: Vec::new(),
        worker_link_writes: Vec::new(),
        resume: Default::default(),
    }
}
