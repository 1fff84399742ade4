//! The threaded executive: one OS thread per logical process.
//!
//! This is the kernel running as a genuinely parallel program: LP threads
//! exchange physical messages over a mesh of preallocated SPSC ring
//! lanes (`warp_net::spsc`; FIFO per ordered pair, like the channel mesh
//! it replaced — see `docs/hot-path.md`), GVT
//! is estimated with the Mattern-style token of `warp_core::gvt`, and
//! termination is GVT = ∞. Aggregation windows are interpreted in wall
//! seconds here (the virtual executive interprets them in modeled
//! seconds); everything else — models, policies, cancellation machinery —
//! is byte-for-byte the same code the other executives drive, which is
//! the point: configurations found on one executive transfer to the other.

use crate::report::{LpSummary, ObjectSummary, RunReport};
use crate::spec::SimulationSpec;
use std::time::{Duration, Instant};
use warp_core::gvt::{GvtController, MatternAgent};
use warp_core::stats::{CommStats, ObjectStats};
use warp_core::{Event, ObjectId, VirtualTime};
use warp_net::{lane_mesh, Aggregator, LaneEndpoint, PhysMsg};

/// Traffic multiplexed over the mesh. Shared with the distributed
/// executive, whose TCP frames carry exactly these payloads (the
/// checkpoint and abort packets are process-local: the distributed
/// router fans the corresponding frames out to its LP threads).
pub(crate) enum Packet {
    /// Application events (a physical message), tagged with the sender's
    /// Mattern epoch.
    Data { msg: PhysMsg, epoch: u32 },
    /// The circulating GVT token.
    Token(warp_core::gvt::GvtToken),
    /// A freshly computed GVT (∞ = simulation over, shut down).
    GvtNews(VirtualTime),
    /// Checkpoint request: copy the committed window up to `gvt` and
    /// answer on `reply`.
    Ckpt {
        /// Checkpoint id (echoed in the part).
        ckpt: u32,
        /// The checkpoint horizon (an announced GVT).
        gvt: VirtualTime,
        /// Where the extracted part goes (a per-checkpoint collector).
        reply: std::sync::mpsc::Sender<CkptPart>,
    },
    /// The coordinator persisted a checkpoint at `gvt`: history below it
    /// is recoverable, the fossil pin may advance.
    CkptAck(VirtualTime),
    /// The session failed (unclean peer loss): stop immediately and
    /// discard in-progress state — recovery restarts from a checkpoint.
    Abort,
}

/// One LP's contribution to a checkpoint.
pub(crate) struct CkptPart {
    /// The LP's global id.
    pub lp: u32,
    /// Checkpoint id this part answers.
    pub ckpt: u32,
    /// Per-object committed events in `[previous horizon, gvt)`.
    pub objects: Vec<(ObjectId, Vec<Event>)>,
}

/// What an LP needs from its transport. The threaded executive plugs in
/// a [`LaneEndpoint`] of the SPSC lane mesh; the distributed executive
/// plugs in a port that routes local packets over channels and remote
/// ones over the TCP mesh. LP ids are *global* — the LP loop itself never
/// knows whether a peer lives in this process.
pub(crate) trait LpPort {
    /// This LP's global id.
    fn id(&self) -> usize;
    /// Total number of LPs in the whole simulation.
    fn n_total(&self) -> usize;
    /// LPs driven by this process (they share its memory, hence
    /// [`HISTORY_GROWTH_BUDGET`]).
    fn n_local(&self) -> usize;
    /// Send a packet to a global LP id. Must never block on the LP loop
    /// and must tolerate peers that already shut down.
    fn send(&self, to: usize, p: Packet);
    /// Non-blocking receive. The LP loop asks after every executed
    /// event, so with nothing inbound this must be cheap.
    fn try_recv(&self) -> Option<Packet>;
    /// Blocking receive with a timeout; `None` on timeout.
    fn recv_timeout(&self, timeout: Duration) -> Option<Packet>;
    /// The controller LP announced a fresh GVT. The distributed port
    /// forwards this to the coordinator as `Frame::Progress`, which is
    /// what paces the checkpoint protocol; in-process transports ignore
    /// it.
    fn note_gvt(&self, _gvt: VirtualTime) {}
    /// Should telemetry batches be streamed out instead of accumulated?
    /// The distributed port says yes: the coordinator merges worker
    /// streams live (and a worker lost to a fault has still delivered
    /// everything up to its last GVT round).
    fn wants_telemetry(&self) -> bool {
        false
    }
    /// Ship one JSON-encoded [`warp_telemetry::TelemetryReport`] batch
    /// toward the coordinator. Only called when `wants_telemetry()`.
    fn stream_telemetry(&self, _json: Vec<u8>) {}
    /// Should per-LP load samples be reported at GVT rounds? The
    /// distributed port says yes when the cluster balance controller is
    /// armed; in-process transports have no one to rebalance.
    fn wants_load(&self) -> bool {
        false
    }
    /// Ship one LP's cumulative load counters for the GVT round toward
    /// the coordinator's balance controller. Only called when
    /// `wants_load()`. Advisory: loss only delays a migration decision.
    fn report_load(&self, _gvt: VirtualTime, _load: warp_balance::LpLoad) {}
    /// Host-speed pacing hook, called once per optimistically executed
    /// event. The distributed port uses it to emulate a slow host (a
    /// process-wide rate limit) for balance tests; everywhere else it is
    /// free.
    fn throttle(&self) {}
    /// Called once per pass (≤ [`BATCH`] events) of the LP loop that found
    /// work. An LP with speculative work never blocks, so a port whose
    /// packets are moved by other threads of this process (the
    /// distributed port: link writers, readers, the inbound router) gives
    /// them the core here; the lane mesh has no such threads and does
    /// nothing.
    fn yield_core(&self) {}
}

impl LpPort for LaneEndpoint<Packet> {
    fn id(&self) -> usize {
        LaneEndpoint::id(self)
    }
    fn n_total(&self) -> usize {
        self.n_peers()
    }
    fn n_local(&self) -> usize {
        self.n_peers()
    }
    fn send(&self, to: usize, p: Packet) {
        LaneEndpoint::send(self, to, p);
    }
    fn try_recv(&self) -> Option<Packet> {
        LaneEndpoint::try_recv(self)
    }
    fn recv_timeout(&self, timeout: Duration) -> Option<Packet> {
        LaneEndpoint::recv_timeout(self, timeout)
    }
}

/// Events executed per pass of the LP loop, i.e. between two rounds of
/// the work that reads the wall clock or walks the LP's objects
/// (aggregation deadlines, idle flushes, the core yield, the GVT
/// cadence). Not a latency: every event's remote sends are offered and
/// the inbox is read *between* events, so neither waits out a pass.
const BATCH: usize = 64;
/// Fallback GVT cadence when the spec disables fossil collection.
const TERMINATION_PROBE: Duration = Duration::from_millis(5);
/// Growth of retained history per process, since the last fossil pass,
/// that starts a GVT round ahead of the period. Wall-clock pacing alone
/// lets retained history scale with the event rate (a kernel twice as
/// fast keeps twice the history per 50 ms); this bounds it in bytes
/// instead. Only the controller LP is watched, so it starts a round when
/// its own history has grown by its share, the budget over
/// [`LpPort::n_local`] — its neighbours in the process retain about as
/// much. 2 MiB is a few thousand small-state events or a few hundred
/// SMMP cache states per round; the sizing runs are in
/// `docs/kernel-internals.md` ("GVT and fossils").
const HISTORY_GROWTH_BUDGET: usize = 2 << 20;

/// Run the spec on real threads. Returns when GVT reaches infinity.
pub fn run_threaded(spec: &SimulationSpec) -> RunReport {
    let start_all = Instant::now();
    let n_lps = spec.partition.n_lps();
    let endpoints = lane_mesh::<Packet>(n_lps);

    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|endpoint| {
            let spec = spec.clone();
            std::thread::spawn(move || lp_thread(spec, endpoint, LpSeed::Fresh, None))
        })
        .collect();

    let mut results: Vec<LpOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("LP thread panicked"))
        .collect();
    results.sort_by_key(|o| o.summary.lp);
    let gvt_rounds = results.iter().map(|o| o.gvt_rounds).max().unwrap_or(0);
    let telemetry = merge_telemetry(results.iter_mut().filter_map(|o| o.telemetry.take()));
    let per_lp: Vec<LpSummary> = results.into_iter().map(|o| o.summary).collect();
    let wall = start_all.elapsed().as_secs_f64();

    let mut kernel = ObjectStats::default();
    let mut comm = CommStats::default();
    let mut committed = 0u64;
    for s in &per_lp {
        committed += s.kernel.net_executed();
        kernel.merge(&s.kernel);
        comm.merge(&s.comm);
    }

    RunReport {
        timeline: Vec::new(),
        executive: "threaded".into(),
        completion_seconds: wall,
        wall_seconds: wall,
        committed_events: committed,
        events_per_second: if wall > 0.0 {
            committed as f64 / wall
        } else {
            0.0
        },
        gvt_rounds,
        kernel,
        comm,
        per_lp,
        recoveries: 0,
        migrations: Vec::new(),
        scales: Vec::new(),
        telemetry,
        resume: Default::default(),
    }
}

/// Fold per-LP telemetry reports into one cluster-wide series (`None`
/// when no LP recorded anything — i.e. telemetry was off).
pub(crate) fn merge_telemetry(
    parts: impl Iterator<Item = warp_telemetry::TelemetryReport>,
) -> Option<warp_telemetry::TelemetryReport> {
    let mut merged: Option<warp_telemetry::TelemetryReport> = None;
    for part in parts {
        match &mut merged {
            None => merged = Some(part),
            Some(m) => m.merge(part),
        }
    }
    merged
}

struct LpThread<P: LpPort> {
    lp: warp_core::LpRuntime,
    agg: Aggregator,
    agent: MatternAgent,
    ctrl: Option<GvtController>,
    port: P,
    start: Instant,
    last_round: Instant,
    fossil: bool,
    gvt_period: Duration,
    gvt_rounds: u64,
    done: bool,
    collect_traces: bool,
    partition: std::sync::Arc<warp_core::Partition>,
    /// `Some(frontier)` when resuming from a checkpoint: skip object
    /// init and ship these remote-destined replay sends instead.
    boot_frontier: Option<Vec<Event>>,
    /// Lower end of the next checkpoint window (the last horizon this LP
    /// contributed a part for, or the restore horizon).
    ckpt_from: VirtualTime,
    /// With recovery on, `Some(h)`: history at or above the last *acked*
    /// checkpoint horizon `h` must survive fossil collection — it is the
    /// part of the committed log no persisted checkpoint covers yet.
    /// `None` = recovery off, GVT alone bounds collection.
    fossil_pin: Option<VirtualTime>,
    /// Set by `Packet::Abort`: the summary is garbage, discard it.
    aborted: bool,
    /// Telemetry collector (`None` unless the spec enabled it). Sampled
    /// at every GVT round; purely observational.
    recorder: Option<warp_telemetry::Recorder>,
    /// Scratch: remote-destined events the LP just surfaced, on their way
    /// to the aggregation layer. Empty between uses, capacity reused.
    remote: Vec<Event>,
    /// Scratch: physical messages due for sending. Likewise.
    due: Vec<PhysMsg>,
    /// `lp.history_bytes()` right after this LP's last fossil pass: the
    /// level [`HISTORY_GROWTH_BUDGET`] is measured from. An edge, not a
    /// level: while a lagging peer pins GVT a pass reclaims nothing, and
    /// a trigger on the level itself would start rounds back to back.
    history_mark: usize,
    /// This LP's share of [`HISTORY_GROWTH_BUDGET`].
    history_budget: usize,
}

impl<P: LpPort> LpThread<P> {
    fn new(spec: SimulationSpec, port: P, seed: LpSeed, ckpt_base: Option<VirtualTime>) -> Self {
        let my_id = warp_core::LpId(port.id() as u32);
        let (mut lp, boot_frontier) = match seed {
            LpSeed::Fresh => (spec.build_lp(my_id), None),
            LpSeed::Restored { lp, frontier } => (*lp, Some(frontier)),
        };
        // Restored runtimes are rebuilt outside `build_lp`; re-arm recording.
        lp.set_record_control(spec.telemetry);
        let mut agg = Aggregator::new(my_id, spec.aggregation.clone());
        agg.set_record_windows(spec.telemetry);
        let recorder = spec
            .telemetry
            .then(|| warp_telemetry::Recorder::new(my_id.0));
        LpThread {
            lp,
            agg,
            agent: MatternAgent::new(),
            ctrl: if port.id() == 0 {
                Some(GvtController::new())
            } else {
                None
            },
            history_budget: HISTORY_GROWTH_BUDGET / port.n_local(),
            port,
            start: Instant::now(),
            last_round: Instant::now(),
            fossil: spec.gvt_period.is_some(),
            gvt_period: spec
                .gvt_period
                .map(Duration::from_secs_f64)
                .unwrap_or(TERMINATION_PROBE),
            gvt_rounds: 0,
            done: false,
            collect_traces: spec.collect_traces,
            partition: spec.partition.clone(),
            boot_frontier,
            ckpt_from: ckpt_base.unwrap_or(VirtualTime::ZERO),
            fossil_pin: ckpt_base,
            aborted: false,
            recorder,
            remote: Vec::new(),
            due: Vec::new(),
            history_mark: 0,
        }
    }

    /// Send every physical message in `due`.
    fn ship(&mut self) {
        for msg in self.due.drain(..) {
            let c = msg.send_cost(self.lp.cost_model());
            self.agg.note_send_cost(c);
            let epoch = self.agent.tag_send(msg.min_recv_time());
            let to = msg.dst.index();
            self.port.send(to, Packet::Data { msg, epoch });
        }
    }

    /// Hand the events in `remote` to the aggregation layer and ship
    /// whatever falls due.
    fn offer_remote(&mut self) {
        if self.remote.is_empty() {
            return;
        }
        let now = self.start.elapsed().as_secs_f64();
        for ev in self.remote.drain(..) {
            let dst = self.partition.lp_of(ev.dst);
            self.agg.offer(dst, ev, now, &mut self.due);
        }
        self.ship();
    }

    /// This LP's GVT contribution: everything it may still execute or
    /// roll back to, and every event it produced that no
    /// [`MatternAgent::tag_send`] has counted yet — buffered in the
    /// aggregator or still in `remote`. `remote` is empty whenever a
    /// token is handled (`offer_remote` runs before the inbox is read);
    /// folding it in keeps GVT safe without leaning on that order.
    fn local_min(&self) -> VirtualTime {
        self.remote.iter().map(|ev| ev.recv_time).fold(
            self.lp.gvt_contribution().min(self.agg.buffered_min_time()),
            VirtualTime::min,
        )
    }

    fn apply_gvt(&mut self, gvt: VirtualTime) {
        if let Some(rec) = &mut self.recorder {
            // Sample *before* fossil collection so the retained-history
            // gauge reflects the pressure the round is about to relieve.
            rec.observe_lp(gvt, &mut self.lp);
            for (dst, old, new) in self.agg.take_window_changes() {
                rec.window_change(gvt, dst.0, old, new);
            }
            if self.port.wants_telemetry() {
                if let Some(batch) = rec.drain() {
                    if let Ok(json) = serde_json::to_vec(&batch) {
                        self.port.stream_telemetry(json);
                    }
                }
            }
        }
        if self.port.wants_load() && gvt.is_finite() {
            let stats = self.lp.stats();
            let front = self.lp.lvt_front();
            self.port.report_load(
                gvt,
                warp_balance::LpLoad {
                    executed: stats.executed,
                    rolled_back: stats.rolled_back,
                    retained: self.lp.history_items() as u64,
                    lvt_lead: if front.is_finite() {
                        front.ticks().saturating_sub(gvt.ticks())
                    } else {
                        0
                    },
                },
            );
        }
        if gvt.is_infinite() {
            self.done = true;
        } else if self.fossil {
            match self.fossil_pin {
                None => self.lp.fossil_collect(gvt),
                // Keep state and input with recv ≥ pin: `fossil_bound`
                // may resolve the pin itself to a snapshot *at* the pin,
                // so collect strictly below it. Output records whose
                // sends land at or beyond the pin are retained too —
                // they are the frontier an in-place rollback to the pin
                // must re-ship.
                Some(pin) => {
                    let bound = gvt.min(VirtualTime::from_ticks(pin.ticks().saturating_sub(1)));
                    self.lp.fossil_collect_retaining(bound, pin);
                }
            }
            self.history_mark = self.lp.history_bytes();
        }
    }

    fn forward_token(&mut self, mut token: warp_core::gvt::GvtToken) {
        debug_assert!(self.remote.is_empty(), "token handled over unsent events");
        self.agent.on_token(&mut token, self.local_min());
        let next = (self.port.id() + 1) % self.port.n_total();
        if next == self.port.id() {
            // Single-LP mesh: the circulation is already complete.
            self.complete_round(token);
        } else {
            self.port.send(next, Packet::Token(token));
        }
    }

    /// Controller only: the token finished a circulation.
    fn complete_round(&mut self, token: warp_core::gvt::GvtToken) {
        let ctrl = self
            .ctrl
            .as_mut()
            .expect("token returned to a non-controller");
        match ctrl.on_return(token) {
            Ok(gvt) => {
                self.gvt_rounds += 1;
                self.port.note_gvt(gvt);
                for peer in 1..self.port.n_total() {
                    self.port.send(peer, Packet::GvtNews(gvt));
                }
                self.last_round = Instant::now();
                self.apply_gvt(gvt);
            }
            Err(token) => self.forward_token(token),
        }
    }

    fn handle(&mut self, p: Packet) {
        match p {
            Packet::Data { msg, epoch } => {
                self.agent.note_receive(epoch);
                self.agg.note_received(&msg, self.lp.cost_model());
                self.lp.deliver(msg.events, &mut self.remote);
                self.offer_remote();
            }
            Packet::Token(token) => {
                if self.ctrl.is_some() {
                    self.complete_round(token);
                } else {
                    self.forward_token(token);
                }
            }
            Packet::GvtNews(gvt) => self.apply_gvt(gvt),
            Packet::Ckpt { ckpt, gvt, reply } => {
                let objects = self.lp.committed_window(self.ckpt_from, gvt);
                self.ckpt_from = self.ckpt_from.max(gvt);
                let _ = reply.send(CkptPart {
                    lp: self.port.id() as u32,
                    ckpt,
                    objects,
                });
            }
            Packet::CkptAck(gvt) => {
                if let Some(pin) = &mut self.fossil_pin {
                    *pin = (*pin).max(gvt);
                }
            }
            Packet::Abort => {
                self.aborted = true;
                self.done = true;
            }
        }
    }

    fn run(mut self) -> LpOutcome {
        let debug_trace = std::env::var("WARP_DEBUG_THREADED").is_ok();
        let mut loops: u64 = 0;
        match self.boot_frontier.take() {
            Some(frontier) => self.remote = frontier,
            None => self.lp.init(&mut self.remote),
        }
        self.offer_remote();

        'run: while !self.done {
            loops += 1;
            if debug_trace && loops.is_multiple_of(200_000) {
                eprintln!(
                    "[thr lp{}] loops={} next={} lmin={} buffered={} rounds={} in_prog={:?} stats={}r/{}x",
                    self.port.id(),
                    loops,
                    self.lp.next_time(),
                    self.local_min(),
                    self.agg.buffered(),
                    self.gvt_rounds,
                    self.ctrl.as_ref().map(|c| c.in_progress()),
                    self.lp.stats().rollbacks(),
                    self.lp.stats().executed,
                );
            }
            let mut idle = true;

            // 1. Up to a batch of optimistic event executions. Around
            //    each: first everything already waiting in the inbox, in
            //    arrival order (a straggler read one event late costs a
            //    rollback one event deep, not a batch deep); afterwards
            //    the event's remote sends, offered at once so the peer is
            //    not kept waiting either — and so that no token is ever
            //    handled over an unsent event. Nothing here walks the
            //    objects, and the clock is read only for an event that
            //    produced remote sends.
            for _ in 0..BATCH {
                while let Some(p) = self.port.try_recv() {
                    idle = false;
                    self.handle(p);
                    if self.done {
                        break 'run;
                    }
                }
                if !self.lp.process_one(&mut self.remote) {
                    break;
                }
                idle = false;
                self.port.throttle();
                self.offer_remote();
            }

            // 2. Aggregation deadlines (wall clock); idle lazy flushes.
            let now = self.start.elapsed().as_secs_f64();
            self.agg.poll(now, &mut self.due);
            self.ship();
            if self.lp.next_time().is_infinite() {
                self.lp.flush_idle(&mut self.remote);
                self.offer_remote();
            }
            if !idle {
                self.port.yield_core();
            }

            // 3. Controller cadence: periodic rounds, eager when idle
            //    (termination detection) or when retained history has
            //    grown by this LP's share of the budget since the last
            //    fossil pass.
            if let Some(ctrl) = self.ctrl.as_mut().filter(|c| !c.in_progress()) {
                let due_round = self.last_round.elapsed() >= self.gvt_period
                    || (idle && self.lp.next_time().is_infinite())
                    || (self.fossil
                        && self.lp.history_bytes() >= self.history_mark + self.history_budget);
                if due_round {
                    let token = ctrl.start_round();
                    self.forward_token(token);
                }
            }

            // 4. Block briefly instead of spinning when idle.
            if idle && !self.done {
                if let Some(p) = self.port.recv_timeout(Duration::from_micros(200)) {
                    self.handle(p);
                }
            }
        }

        let objects = self
            .lp
            .objects()
            .iter()
            .map(|o| ObjectSummary {
                id: o.id().0,
                name: o.object_name(),
                final_mode: format!("{:?}", o.cancellation_mode()),
                final_chi: o.checkpoint_interval(),
                committed: o.stats().net_executed(),
                stats: o.stats().clone(),
                trace_digest: if self.collect_traces {
                    Some(o.trace_digest().value())
                } else {
                    None
                },
            })
            .collect();
        // Streaming ports already shipped every batch at GVT rounds (the
        // final one included); returning the tail too would double-count
        // it at the coordinator.
        let telemetry = match self.recorder.take() {
            Some(rec) if !self.port.wants_telemetry() => Some(rec.finish()),
            _ => None,
        };
        LpOutcome {
            summary: LpSummary {
                lp: self.lp.id().0,
                kernel: self.lp.stats(),
                comm: self.agg.stats().clone(),
                objects,
            },
            gvt_rounds: self.gvt_rounds,
            aborted: self.aborted,
            telemetry,
            runtime: if self.aborted {
                Some(Box::new(self.lp))
            } else {
                None
            },
        }
    }
}

/// How an LP thread starts life.
pub(crate) enum LpSeed {
    /// Build the LP from the spec and run object init.
    Fresh,
    /// Resume from a checkpoint: the LP has already been rebuilt via
    /// `LpRuntime::restore_committed`; `frontier` holds the
    /// remote-destined sends the replay regenerated (at or beyond the
    /// restore horizon) which must ship instead of init's output.
    Restored {
        /// The restored runtime (boxed: far larger than `Fresh`).
        lp: Box<warp_core::LpRuntime>,
        /// Remote frontier events to ship at startup.
        frontier: Vec<Event>,
    },
}

/// What an LP thread hands back when it stops.
pub(crate) struct LpOutcome {
    /// Final per-LP summary (meaningless when `aborted`).
    pub summary: LpSummary,
    /// GVT rounds this LP's controller completed (0 off the controller).
    pub gvt_rounds: u64,
    /// The thread stopped on `Packet::Abort` rather than GVT = ∞.
    pub aborted: bool,
    /// Accumulated telemetry (`None` when disabled or when the port
    /// streamed batches out instead).
    pub telemetry: Option<warp_telemetry::TelemetryReport>,
    /// The runtime itself, handed back on abort so a surviving worker
    /// can roll it back in place at the next resume instead of
    /// rebuilding from committed logs (`None` on clean completion).
    pub runtime: Option<Box<warp_core::LpRuntime>>,
}

/// Drive one LP to completion over any transport. Shared by the
/// threaded executive (in-process channel mesh) and the distributed
/// executive (TCP mesh between worker processes). The global LP 0 hosts
/// the GVT controller wherever it lives.
///
/// `ckpt_base` arms the checkpoint protocol: `Some(h)` means recovery is
/// on, the committed log from `h` up is not yet persisted (h = ZERO on a
/// fresh run, the restore horizon on a resumed one), so fossil
/// collection is pinned below `h` until `Packet::CkptAck`s advance it.
pub(crate) fn lp_thread<P: LpPort>(
    spec: SimulationSpec,
    port: P,
    seed: LpSeed,
    ckpt_base: Option<VirtualTime>,
) -> LpOutcome {
    LpThread::new(spec, port, seed, ckpt_base).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
    use std::sync::Arc;
    use warp_core::wire::{PayloadReader, PayloadWriter};
    use warp_core::{ErasedState, ExecutionContext, ObjectState, Partition, SimObject};
    use warp_net::AggregationConfig;

    /// Two kinds of job, each hopping until its hop count runs out. `OWN`
    /// jobs stay on their object, `STEP` ticks on per hop: no cross-LP
    /// traffic, no rollback of their own, and a known amount of history
    /// per event. `CROSS` jobs bounce between the two objects one tick at
    /// a time, so with two LPs every hop is a remote send that lands far
    /// behind whatever the `OWN` jobs have let the receiver run ahead to.
    #[derive(Clone, Debug)]
    struct Hops(u64);
    impl ObjectState for Hops {}

    struct Looper {
        own: u32,
        cross: u32,
        hops: u32,
        /// `CROSS` sends so far (re-executions included).
        crossed: Arc<AtomicU64>,
        state: Hops,
    }

    const STEP: u64 = 10;
    const OWN: u16 = 1;
    const CROSS: u16 = 2;

    impl Looper {
        fn hop(&self, ctx: &mut dyn ExecutionContext, kind: u16, left: u32) {
            if left == 0 {
                return;
            }
            let mut w = PayloadWriter::new();
            w.u32(left - 1);
            let me = ctx.me();
            if kind == CROSS {
                ctx.send(ObjectId(1 - me.0), 1, CROSS, w.finish());
                self.crossed.fetch_add(1, Relaxed);
            } else {
                ctx.send(me, STEP, OWN, w.finish());
            }
        }
    }

    impl SimObject for Looper {
        fn init(&mut self, ctx: &mut dyn ExecutionContext) {
            for _ in 0..self.own {
                self.hop(ctx, OWN, self.hops);
            }
            for _ in 0..self.cross {
                self.hop(ctx, CROSS, self.hops);
            }
        }
        fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
            self.state.0 += 1;
            let left = PayloadReader::new(&ev.payload).u32().expect("hop count");
            self.hop(ctx, ev.kind, left);
        }
        fn snapshot(&self) -> ErasedState {
            ErasedState::of(self.state.clone())
        }
        fn restore(&mut self, snapshot: &ErasedState) {
            self.state = snapshot.get::<Hops>().clone();
        }
        fn state_bytes(&self) -> usize {
            std::mem::size_of::<Hops>()
        }
    }

    /// Two objects over `n_lps` LPs, each starting `own` and `cross` jobs
    /// of `hops` hops; `crossed[i]` counts object `i`'s `CROSS` sends.
    /// The period never fires, so every round before the LPs go idle is
    /// a history-growth round.
    fn hop_spec(
        n_lps: usize,
        (own, cross, hops): (u32, u32, u32),
        crossed: [Arc<AtomicU64>; 2],
    ) -> SimulationSpec {
        SimulationSpec::new(
            Partition::round_robin(2, n_lps),
            Arc::new(move |id: ObjectId| {
                Box::new(Looper {
                    own,
                    cross,
                    hops,
                    crossed: crossed[id.0 as usize].clone(),
                    state: Hops(0),
                }) as Box<dyn SimObject>
            }),
        )
        .with_gvt_period(Some(10.0))
    }

    fn looper_spec(n_lps: usize, jobs: u32, hops: u32) -> SimulationSpec {
        hop_spec(n_lps, (jobs, 0, hops), Default::default())
    }

    /// One LP thread per lane endpoint, each behind the port `wrap` makes.
    /// Outcomes come back in no particular order.
    fn run_on<P: LpPort + Send + 'static>(
        spec: &SimulationSpec,
        wrap: impl Fn(LaneEndpoint<Packet>) -> P,
    ) -> Vec<LpOutcome> {
        let mut running: VecDeque<_> = lane_mesh::<Packet>(spec.partition.n_lps())
            .into_iter()
            .map(|lane| {
                let (spec, port) = (spec.clone(), wrap(lane));
                std::thread::spawn(move || lp_thread(spec, port, LpSeed::Fresh, None))
            })
            .collect();
        // Join in order of completion: the peers of an LP that panicked
        // never see GVT = ∞, and the test must fail, not hang.
        let mut outcomes = Vec::new();
        while let Some(h) = running.pop_front() {
            if h.is_finished() {
                outcomes.push(h.join().expect("LP thread panicked"));
            } else {
                running.push_back(h);
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        outcomes
    }

    /// `(object, committed, digest)` for every object, by id. Digests
    /// are `None` without `with_traces()`, which in turn wants fossil
    /// collection off.
    fn committed<'a>(
        objects: impl Iterator<Item = &'a ObjectSummary>,
    ) -> Vec<(u32, u64, Option<u64>)> {
        let mut v: Vec<_> = objects
            .map(|o| (o.id, o.committed, o.trace_digest))
            .collect();
        v.sort_unstable();
        v
    }

    fn assert_sequential(spec: &SimulationSpec, outcomes: &[LpOutcome]) {
        let want = crate::run_sequential(spec);
        assert_eq!(
            committed(outcomes.iter().flat_map(|o| o.summary.objects.iter())),
            committed(want.per_lp.iter().flat_map(|l| l.objects.iter())),
        );
    }

    /// What a [`Probe`] port does besides passing packets through. Its
    /// clock is the number of events the LP has executed (`throttle`
    /// ticks it), never the wall.
    enum Script {
        /// Slow LP 1 down per event; on LP 0 record the tokens sent up to
        /// its last executed event and the times the loop offered its
        /// core.
        CrawlingPeer {
            tokens_while_busy: Arc<AtomicU64>,
            core_offers: Arc<AtomicU64>,
        },
        /// Hold every token back until the LP stands between two events
        /// of one pass (or parks); count the ones released mid-pass.
        TokensMidPass { released: Arc<AtomicU64> },
        /// Every `every` events, from inside `throttle` (so mid-pass),
        /// make a no-op packet receivable; record how many packets the
        /// loop took and the most events it executed before taking one.
        Inject {
            every: u64,
            taken: Arc<AtomicU64>,
            worst_lag: Arc<AtomicU64>,
        },
        /// `produced` counts the remote events this LP's object has sent.
        /// Panic when an event has run while the sends of an earlier one
        /// had not reached `send`.
        ShipsPerEvent { produced: Arc<AtomicU64> },
    }

    struct Probe {
        lane: LaneEndpoint<Packet>,
        script: Script,
        /// Tokens handed to `send` so far.
        tokens: Cell<u64>,
        /// Events executed so far.
        clock: Cell<u64>,
        /// Events executed in the current pass of the LP loop.
        in_pass: Cell<u64>,
        /// Packets to hand out ahead of the lane, with the clock reading
        /// at which each became receivable.
        held: RefCell<VecDeque<(u64, Packet)>>,
        /// `ShipsPerEvent`: positive events handed to `send`, and
        /// `produced` as of the previous event.
        shipped: Cell<u64>,
        produced_before: Cell<u64>,
    }

    impl Probe {
        fn new(lane: LaneEndpoint<Packet>, script: Script) -> Self {
            Probe {
                lane,
                script,
                tokens: Cell::new(0),
                clock: Cell::new(0),
                in_pass: Cell::new(0),
                held: RefCell::new(VecDeque::new()),
                shipped: Cell::new(0),
                produced_before: Cell::new(0),
            }
        }

        fn take_held(&self) -> Option<Packet> {
            let (since, p) = self.held.borrow_mut().pop_front()?;
            match &self.script {
                Script::TokensMidPass { released } if self.in_pass.get() > 0 => {
                    released.fetch_add(1, Relaxed);
                }
                Script::Inject {
                    taken, worst_lag, ..
                } => {
                    taken.fetch_add(1, Relaxed);
                    worst_lag.fetch_max(self.clock.get() - since, Relaxed);
                }
                _ => {}
            }
            Some(p)
        }
    }

    impl LpPort for Probe {
        fn id(&self) -> usize {
            self.lane.id()
        }
        fn n_total(&self) -> usize {
            self.lane.n_peers()
        }
        fn n_local(&self) -> usize {
            self.lane.n_peers()
        }
        fn send(&self, to: usize, p: Packet) {
            match &p {
                Packet::Data { msg, .. } => {
                    let positive = msg.events.iter().filter(|e| !e.is_anti()).count();
                    self.shipped.set(self.shipped.get() + positive as u64);
                }
                Packet::Token(_) => self.tokens.set(self.tokens.get() + 1),
                _ => {}
            }
            self.lane.send(to, p);
        }
        fn try_recv(&self) -> Option<Packet> {
            let hold_tokens = matches!(self.script, Script::TokensMidPass { .. });
            if !hold_tokens || self.in_pass.get() > 0 {
                if let Some(p) = self.take_held() {
                    return Some(p);
                }
            }
            loop {
                match self.lane.try_recv()? {
                    p @ Packet::Token(_) if hold_tokens => {
                        self.held.borrow_mut().push_back((self.clock.get(), p));
                    }
                    p => return Some(p),
                }
            }
        }
        fn recv_timeout(&self, timeout: Duration) -> Option<Packet> {
            // About to park: nothing may stay held.
            self.take_held()
                .or_else(|| self.try_recv())
                .or_else(|| self.lane.recv_timeout(timeout))
        }
        fn throttle(&self) {
            let now = self.clock.get() + 1;
            self.clock.set(now);
            self.in_pass.set(self.in_pass.get() + 1);
            match &self.script {
                Script::CrawlingPeer {
                    tokens_while_busy, ..
                } => {
                    if self.lane.id() == 0 {
                        tokens_while_busy.store(self.tokens.get(), Relaxed);
                    } else {
                        let until = Instant::now() + Duration::from_micros(5);
                        while Instant::now() < until {
                            std::hint::spin_loop();
                        }
                    }
                }
                Script::Inject { every, .. } if now.is_multiple_of(*every) => {
                    let noop = Packet::CkptAck(VirtualTime::ZERO);
                    self.held.borrow_mut().push_back((now, noop));
                }
                Script::ShipsPerEvent { produced } => {
                    // This event's own sends are still to be offered;
                    // every earlier one's must be out.
                    assert!(
                        self.shipped.get() >= self.produced_before.get(),
                        "event {now} ran with {} of {} earlier sends shipped",
                        self.shipped.get(),
                        self.produced_before.get(),
                    );
                    self.produced_before.set(produced.load(Relaxed));
                }
                _ => {}
            }
        }
        fn yield_core(&self) {
            self.in_pass.set(0);
            if let Script::CrawlingPeer { core_offers, .. } = &self.script {
                if self.lane.id() == 0 {
                    core_offers.fetch_add(1, Relaxed);
                }
            }
        }
    }

    #[test]
    fn pinned_gvt_starts_one_round_per_budget_of_growth_not_a_storm() {
        // LP 1 crawls, so GVT stays far behind LP 0 and LP 0's fossil
        // passes reclaim next to nothing: its retained history only
        // grows. A trigger on the level would start a round at every
        // loop iteration once past the budget.
        let (jobs, hops) = (64, 1000);
        let spec = looper_spec(2, jobs, hops);
        let tokens_while_busy = Arc::new(AtomicU64::new(0));
        let core_offers = Arc::new(AtomicU64::new(0));
        let outcomes = run_on(&spec, |lane| {
            let script = Script::CrawlingPeer {
                tokens_while_busy: tokens_while_busy.clone(),
                core_offers: core_offers.clone(),
            };
            Probe::new(lane, script)
        });

        let per_lp = jobs as u64 * hops as u64;
        for o in &outcomes {
            assert_eq!(o.summary.kernel.net_executed(), per_lp, "terminated early");
        }
        // A busy LP never blocks: its port must get the chance to give
        // the core away at least once per batch it executes.
        assert!(core_offers.load(Relaxed) >= per_lp / BATCH as u64);
        // An executed event retains an input event, an output record and
        // a snapshot; `history_bytes` charges each well under an
        // `Event`'s size plus 128 bytes. The two LPs of the process
        // share the budget, so LP 0 starts a round per half of it.
        let produced = per_lp as usize * 3 * (std::mem::size_of::<Event>() + 128);
        let share = HISTORY_GROWTH_BUDGET / 2;
        let growth_rounds = tokens_while_busy.load(Relaxed);
        assert!(
            growth_rounds >= 2,
            "history growth started {growth_rounds} rounds under a pinned GVT"
        );
        assert!(
            growth_rounds <= (produced / share) as u64,
            "{growth_rounds} rounds for at most {produced} bytes of history: a round storm"
        );
    }

    #[test]
    fn history_growth_alone_keeps_retained_history_bounded() {
        // One LP: its token comes straight back, so how far history
        // overshoots the budget does not depend on thread scheduling
        // (and the one LP's share of the budget is all of it).
        let (jobs, hops) = (64, 2000);
        let spec = looper_spec(1, jobs, hops).with_telemetry();
        let report = run_threaded(&spec);
        let want = crate::run_sequential(&spec);
        assert_eq!(report.committed_events, want.committed_events);
        for (g, w) in report.per_lp[0].objects.iter().zip(&want.per_lp[0].objects) {
            assert_eq!((g.id, g.committed), (w.id, w.committed));
        }

        // Samples are taken just before each fossil pass. With a 10 s
        // period and no growth trigger the first round would be the idle
        // one at the end, with the whole run — 3 items per event —
        // retained.
        let telemetry = report.telemetry.expect("telemetry was on");
        let peak = telemetry
            .samples
            .iter()
            .map(|s| s.retained)
            .max()
            .expect("sampled at every round");
        // Every retained item is charged at least an `Event`'s size, so a
        // budget is at most this many items, on top of what a pass cannot
        // reclaim (the pending jobs and their newest snapshots) and one
        // batch of overshoot.
        let budget_items = (HISTORY_GROWTH_BUDGET / std::mem::size_of::<Event>()) as u64;
        let floor = 2 * (2 * jobs as u64 + BATCH as u64);
        assert!(
            peak <= floor + budget_items,
            "{peak} items retained at a round; the budget is {budget_items}"
        );
        let whole_run = 3 * 2 * jobs as u64 * hops as u64;
        assert!(whole_run > 10 * budget_items, "run too short to tell");
        assert!(report.kernel.fossils_collected > 0);
    }

    #[test]
    fn local_min_covers_events_not_yet_offered() {
        let spec = looper_spec(1, 4, 10);
        let lane = lane_mesh::<Packet>(1).pop().expect("one endpoint");
        let mut lp = LpThread::new(spec, lane, LpSeed::Fresh, None);
        lp.lp.init(&mut lp.remote);
        assert!(lp.remote.is_empty(), "loopers send to themselves");
        let next = lp.local_min();
        assert!(next.is_finite() && next > VirtualTime::from_ticks(1));

        // An event the LP has surfaced but not yet handed to the
        // aggregator is in transit as far as GVT is concerned.
        let parked = VirtualTime::from_ticks(1);
        lp.remote.push(Event::new(
            warp_core::EventId {
                sender: ObjectId(0),
                serial: 0,
            },
            ObjectId(1),
            VirtualTime::ZERO,
            parked,
            1,
            Vec::new(),
        ));
        assert_eq!(lp.local_min(), parked);
    }

    #[test]
    fn token_between_two_events_of_a_pass_keeps_gvt_below_their_sends() {
        // Both LPs race ahead on their own jobs while the crossing jobs
        // crawl, rounds start back to back, and each token reaches the
        // loop right behind an event. A token handled over an unsent
        // crossing event would report the LP's next own job, far beyond
        // it, and so does the peer: GVT passes the event, the fossil
        // pass eats the snapshot its arrival has to roll back to.
        // (Fossil collection is what makes an overshoot fatal, and it
        // leaves no digest to compare: committed counts only.)
        let spec = hop_spec(2, (6, 4, 600), Default::default()).with_gvt_period(Some(20e-6));
        let released = Arc::new(AtomicU64::new(0));
        let outcomes = run_on(&spec, |lane| {
            let released = released.clone();
            Probe::new(lane, Script::TokensMidPass { released })
        });
        assert_sequential(&spec, &outcomes);
        assert!(
            released.load(Relaxed) >= 10,
            "only {} tokens were handled mid-pass",
            released.load(Relaxed)
        );
    }

    #[test]
    fn a_packet_arriving_mid_pass_is_handled_before_the_next_event() {
        let (jobs, hops) = (8, 500);
        let spec = looper_spec(1, jobs, hops)
            .with_gvt_period(None)
            .with_traces();
        let taken = Arc::new(AtomicU64::new(0));
        let worst_lag = Arc::new(AtomicU64::new(0));
        // 7 and BATCH are coprime: every position of a pass gets its turn.
        let every = 7;
        let outcomes = run_on(&spec, |lane| {
            let (taken, worst_lag) = (taken.clone(), worst_lag.clone());
            Probe::new(
                lane,
                Script::Inject {
                    every,
                    taken,
                    worst_lag,
                },
            )
        });
        assert_sequential(&spec, &outcomes);
        let events = 2 * jobs as u64 * hops as u64;
        assert_eq!(taken.load(Relaxed), events / every);
        assert!(
            worst_lag.load(Relaxed) <= 1,
            "a receivable packet waited out {} events",
            worst_lag.load(Relaxed)
        );
    }

    #[test]
    fn an_events_remote_sends_ship_before_the_next_event_runs() {
        let crossed: [Arc<AtomicU64>; 2] = Default::default();
        let spec = hop_spec(2, (2, 16, 300), crossed.clone())
            .with_gvt_period(None)
            .with_traces();
        let outcomes = run_on(&spec, |lane| {
            let produced = crossed[lane.id()].clone();
            Probe::new(lane, Script::ShipsPerEvent { produced })
        });
        assert_sequential(&spec, &outcomes);
    }

    #[test]
    fn a_fixed_window_still_decides_when_events_ship() {
        // Offered after every event, not shipped after every event: a
        // 500 µs window packs each burst of jobs into few messages.
        let spec = hop_spec(2, (0, 32, 40), Default::default())
            .with_aggregation(AggregationConfig::Faw { window: 500e-6 })
            .with_gvt_period(None)
            .with_traces();
        let report = run_threaded(&spec);
        let want = crate::run_sequential(&spec);
        assert_eq!(report.trace_digests(), want.trace_digests());
        assert_eq!(report.committed_events, want.committed_events);
        assert!(
            report.comm.phys_sent * 4 <= report.comm.events_offered,
            "{} messages for {} events",
            report.comm.phys_sent,
            report.comm.events_offered
        );
    }
}
