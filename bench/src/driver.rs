//! The traced pass's executive: a small single-threaded optimistic driver.
//!
//! Spans inside the kernel are a later change, so the benchmark wraps the
//! calls the executives make into each layer from out here. The driver
//! gives each LP turns of at most [`TURN_EVENTS`] `process_one` calls in
//! fixed round-robin order and carries every cross-LP event through the
//! calls `run_threaded` and the distributed workers use: `Aggregator`
//! offer/poll, `Frame::Data` encode, `FrameDecoder`, a `lane_mesh`
//! send/recv, `LpRuntime::deliver`. GVT is exact — the minimum of every
//! LP's `gvt_contribution()` and `buffered_min_time()`, taken with the
//! lanes drained — and drives `fossil_collect` every
//! [`GVT_EVERY_TURNS`] turns.
//!
//! The fixed turn order lets one LP run ahead of the other, so the driver
//! rolls back; because nothing in it depends on the wall clock it does so
//! identically on every run, and being a Time Warp executive it commits
//! the sequential history.

use crate::spans::Recorder;
use std::sync::Arc;
use warp_core::stats::{CommStats, ObjectStats};
use warp_core::{Event, LpRuntime, ObjectRuntime, Partition, VirtualTime};
use warp_exec::SimulationSpec;
use warp_net::{lane_mesh, Aggregator, Frame, FrameDecoder, LaneEndpoint, PhysMsg};

/// Events an LP may execute per turn (`run_threaded`'s batch size).
pub const TURN_EVENTS: usize = 64;
/// Turns between GVT rounds.
pub const GVT_EVERY_TURNS: u64 = 256;
/// The aggregation layer's clock advances this much per turn: a fixed
/// step, not the wall clock, keeps adaptive windows deterministic.
const SECONDS_PER_TURN: f64 = 1e-6;
/// Idle cycles with a finite GVT before the driver gives up.
const STALL_CYCLES: u32 = 1_000_000;

/// What a driver run committed and counted.
pub struct DriverReport {
    /// Per-object committed events, in object-id order.
    pub per_object: Vec<u64>,
    /// Per-object committed-trace digests, in object-id order
    /// (meaningful when the spec disables fossil collection).
    pub digests: Vec<u64>,
    pub kernel: ObjectStats,
    pub comm: CommStats,
    pub gvt_rounds: u64,
}

struct Driver<'a> {
    lps: Vec<LpRuntime>,
    aggs: Vec<Aggregator>,
    lanes: Vec<LaneEndpoint<PhysMsg>>,
    /// One decoder per receiving LP: its inbound byte stream.
    decoders: Vec<FrameDecoder>,
    partition: Arc<Partition>,
    fossil: bool,
    turns: u64,
    frames: u64,
    gvt_rounds: u64,
    rec: &'a mut Recorder,
}

impl Driver<'_> {
    /// Drain LP `i`'s lanes into it. Anti-messages the deliveries cascade
    /// to other LPs land in `remote`. Returns the messages delivered.
    fn receive(&mut self, i: usize, remote: &mut Vec<Event>) -> usize {
        let Some(first) = self.lanes[i].try_recv() else {
            return 0;
        };
        self.rec.enter("net.spsc.recv");
        let mut inbox = vec![first];
        while let Some(msg) = self.lanes[i].try_recv() {
            inbox.push(msg);
        }
        self.rec.exit(inbox.len());
        let n = inbox.len();
        for msg in inbox {
            self.aggs[i].note_received(&msg, self.lps[i].cost_model());
            self.rec.enter("core.deliver");
            self.lps[i].deliver(msg.events, remote);
            self.rec.exit(1);
        }
        n
    }

    /// Hand LP `i`'s outgoing events to its aggregation layer and carry
    /// every physical message that falls due to its destination lane.
    fn ship(&mut self, i: usize, remote: Vec<Event>) {
        if remote.is_empty() && self.aggs[i].buffered() == 0 {
            return;
        }
        let now = self.turns as f64 * SECONDS_PER_TURN;
        let mut due = Vec::new();
        self.rec.enter("net.aggregate");
        let offered = remote.len();
        for ev in remote {
            let dst = self.partition.lp_of(ev.dst);
            self.aggs[i].offer(dst, ev, now, &mut due);
        }
        self.aggs[i].poll(now, &mut due);
        self.rec.exit(offered);
        for msg in due {
            let cost = msg.send_cost(self.lps[i].cost_model());
            self.aggs[i].note_send_cost(cost);
            let dst = msg.dst.index();
            self.frames += 1;
            self.rec.enter("net.frame_encode");
            let bytes = Frame::Data {
                seq: self.frames,
                epoch: 0,
                msg,
            }
            .encode();
            self.rec.exit(1);
            self.rec.enter("net.frame_decode");
            self.decoders[dst].push(&bytes);
            let frame = self.decoders[dst].next();
            self.rec.exit(1);
            let Ok(Some(Frame::Data { msg, .. })) = frame else {
                panic!("a Data frame did not survive encode/decode: {frame:?}");
            };
            self.rec.enter("net.spsc.send");
            self.lanes[i].send(dst, msg);
            self.rec.exit(1);
        }
    }

    /// One turn of LP `i`. Returns whether it received or executed
    /// anything.
    fn turn(&mut self, i: usize) -> bool {
        self.rec.enter("driver.turn");
        let mut remote = Vec::new();
        let received = self.receive(i, &mut remote);
        self.rec.enter("core.process");
        let mut executed = 0;
        while executed < TURN_EVENTS && self.lps[i].process_one(&mut remote) {
            executed += 1;
        }
        self.rec.exit(executed);
        if self.lps[i].next_time().is_infinite() {
            // Held-back lazy anti-messages of idle objects would pin GVT.
            self.rec.enter("core.flush_idle");
            self.lps[i].flush_idle(&mut remote);
            self.rec.exit(0);
        }
        self.ship(i, remote);
        self.turns += 1;
        self.rec.exit(0);
        received + executed > 0
    }

    /// Exact GVT and, when finite, fossil collection.
    fn gvt_round(&mut self) -> VirtualTime {
        self.rec.enter("driver.gvt_round");
        // GVT must bound messages in flight: deliver them all first.
        loop {
            let mut moved = 0;
            for i in 0..self.lps.len() {
                let mut remote = Vec::new();
                moved += self.receive(i, &mut remote);
                self.ship(i, remote);
            }
            if moved == 0 {
                break;
            }
        }
        self.rec.enter("core.gvt_scan");
        let gvt = self
            .lps
            .iter()
            .zip(&self.aggs)
            .map(|(lp, agg)| lp.gvt_contribution().min(agg.buffered_min_time()))
            .fold(VirtualTime::INFINITY, VirtualTime::min);
        self.rec.exit(0);
        self.gvt_rounds += 1;
        if self.fossil && gvt.is_finite() {
            self.rec.enter("core.fossil");
            for lp in &mut self.lps {
                lp.fossil_collect(gvt);
            }
            self.rec.exit(0);
        }
        self.rec.exit(0);
        gvt
    }

    fn run(&mut self) {
        self.rec.enter("driver.run");
        self.rec.enter("driver.turn");
        for i in 0..self.lps.len() {
            let mut remote = Vec::new();
            self.lps[i].init(&mut remote);
            self.ship(i, remote);
        }
        self.rec.exit(0);
        let mut idle_cycles = 0;
        loop {
            let mut worked = false;
            for i in 0..self.lps.len() {
                worked |= self.turn(i);
                if self.turns.is_multiple_of(GVT_EVERY_TURNS) {
                    self.gvt_round();
                }
            }
            if worked {
                idle_cycles = 0;
            } else if self.gvt_round().is_infinite() {
                break;
            } else {
                idle_cycles += 1;
                assert!(idle_cycles < STALL_CYCLES, "driver stalled below GVT = ∞");
            }
        }
        self.rec.exit(0);
    }
}

/// Run `spec` to completion, recording spans into `rec` if it is enabled.
pub fn run_driver(spec: &SimulationSpec, rec: &mut Recorder) -> DriverReport {
    let partition = spec.partition.clone();
    let lps: Vec<LpRuntime> = partition
        .lps()
        .map(|lp| {
            let objects = partition
                .objects_of(lp)
                .iter()
                .map(|&id| ObjectRuntime::new(id, (spec.objects)(id), (spec.policies)(id)))
                .collect();
            LpRuntime::new(lp, partition.clone(), objects, spec.cost.clone())
        })
        .collect();
    let n = lps.len();
    let mut driver = Driver {
        aggs: partition
            .lps()
            .map(|lp| Aggregator::new(lp, spec.aggregation.clone()))
            .collect(),
        lanes: lane_mesh(n),
        decoders: (0..n).map(|_| FrameDecoder::new()).collect(),
        lps,
        partition,
        fossil: spec.gvt_period.is_some(),
        turns: 0,
        frames: 0,
        gvt_rounds: 0,
        rec,
    };
    driver.run();

    let mut objects: Vec<(u32, u64, u64)> = driver
        .lps
        .iter()
        .flat_map(|lp| lp.objects())
        .map(|o| (o.id().0, o.stats().net_executed(), o.trace_digest().value()))
        .collect();
    objects.sort_unstable();
    let mut kernel = ObjectStats::default();
    let mut comm = CommStats::default();
    for (lp, agg) in driver.lps.iter().zip(&driver.aggs) {
        kernel.merge(&lp.stats());
        comm.merge(agg.stats());
    }
    DriverReport {
        per_object: objects.iter().map(|o| o.1).collect(),
        digests: objects.iter().map(|o| o.2).collect(),
        kernel,
        comm,
        gvt_rounds: driver.gvt_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{self_times, summarize};
    use warp_exec::run_sequential;
    use warp_models::PholdConfig;

    fn phold_spec() -> SimulationSpec {
        PholdConfig::new(50, 1)
            .spec()
            .with_gvt_period(None)
            .with_traces()
    }

    #[test]
    fn commits_the_sequential_digest() {
        let spec = phold_spec();
        let want = run_sequential(&spec);
        let got = run_driver(&spec, &mut Recorder::new(false));
        let digests: Vec<u64> = want.trace_digests().iter().map(|d| d.1).collect();
        assert_eq!(got.digests, digests);
        assert_eq!(got.per_object.iter().sum::<u64>(), want.committed_events);
        assert!(
            got.kernel.rolled_back > 0,
            "four LPs at locality 0.5 must roll back under a fixed turn order"
        );
    }

    #[test]
    fn counts_repeat_exactly_with_spans_on_or_off() {
        let spec = phold_spec();
        let a = run_driver(&spec, &mut Recorder::new(false));
        let b = run_driver(&spec, &mut Recorder::new(true));
        assert_eq!(a.kernel, b.kernel);
        assert_eq!(a.comm, b.comm);
        assert_eq!(a.gvt_rounds, b.gvt_rounds);
    }

    #[test]
    fn fossil_collection_changes_nothing_committed() {
        // Long enough for GVT rounds to fall inside the run.
        let cfg = PholdConfig::new(1000, 1);
        let kept = run_driver(&cfg.spec().with_gvt_period(None), &mut Recorder::new(false));
        let collected = run_driver(&cfg.spec(), &mut Recorder::new(false));
        assert_eq!(collected.per_object, kept.per_object);
        assert_eq!(kept.kernel.fossils_collected, 0);
        assert!(collected.kernel.fossils_collected > 0);
    }

    #[test]
    fn spans_budget_the_whole_run() {
        let mut rec = Recorder::new(true);
        let report = run_driver(&phold_spec(), &mut rec);
        let spans = rec.spans();
        assert_eq!(spans[0].name, "driver.run");
        let own: u64 = self_times(spans).iter().sum();
        assert_eq!(own, spans[0].end_ns - spans[0].start_ns);
        let by_name = summarize(spans);
        let get = |name: &str| by_name.iter().find(|s| s.name == name).unwrap();
        assert_eq!(get("core.process").items, report.kernel.executed);
        assert_eq!(get("net.aggregate").items, report.comm.events_offered);
        assert_eq!(get("net.frame_encode").count, report.comm.phys_sent);
        assert_eq!(get("net.frame_decode").count, report.comm.phys_received);
        assert_eq!(get("core.deliver").count, report.comm.phys_received);
        assert_eq!(get("core.gvt_scan").count, report.gvt_rounds);
    }
}
