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
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};
use warp_core::gvt::{GvtController, MatternAgent};
use warp_core::stats::{CommStats, ObjectStats};
use warp_core::{Event, VirtualTime};
use warp_net::{cpu, lane_mesh, Aggregator, LaneEndpoint, PhysMsg};

/// Traffic multiplexed over the mesh. Shared with the distributed
/// executive, whose TCP frames carry exactly these payloads (the
/// checkpoint request and the abort are process-local: a worker's
/// session thread turns the coordinator's frames into them).
pub(crate) enum Packet {
    /// Application events (a physical message), tagged with the sender's
    /// Mattern epoch.
    Data { msg: PhysMsg, epoch: u32 },
    /// The circulating GVT token.
    Token(warp_core::gvt::GvtToken),
    /// A freshly computed GVT (∞ = simulation over, shut down); `ckpt`
    /// is set on the round the controller tagged for a checkpoint.
    GvtNews { gvt: VirtualTime, ckpt: Option<u32> },
    /// For the controller LP: tag the next completed GVT round with this
    /// checkpoint id.
    CkptReq(u32),
    /// The session failed (unclean peer loss): stop immediately and
    /// discard in-progress state — recovery restarts from a checkpoint.
    Abort,
}

/// What an LP needs from its transport. The threaded executive plugs in
/// a [`LaneEndpoint`] of the SPSC lane mesh; the distributed executive
/// plugs in a port around the same kind of endpoint that sends packets
/// for other processes' LPs over the TCP mesh instead. LP ids are
/// *global* — the LP loop itself never knows whether a peer lives in
/// this process.
pub(crate) trait LpPort {
    /// This LP's global id.
    fn id(&self) -> usize;
    /// Total number of LPs in the whole simulation.
    fn n_total(&self) -> usize;
    /// LPs driven by this process (they share its memory, hence
    /// [`HISTORY_GROWTH_BUDGET`]).
    fn n_local(&self) -> usize;
    /// Send a packet to a global LP id. Must never block on the LP loop
    /// and must tolerate peers that already shut down. The lanes never
    /// block. The distributed port stages every remote data packet,
    /// anti-messages included, in the owner's link (`MeshSender::stage`)
    /// and writes it when [`WriteRule`] says, and posts every other
    /// remote packet (`MeshSender::post`), which writes the staged ones
    /// ahead of it: a post never waits for another thread's write, and
    /// writes on this thread only when no other thread is writing. A
    /// peer worker's socket is non-blocking and what it refuses waits in
    /// the link's backlog — without it, two LPs writing to each other
    /// over full buffers would deadlock. (The port's frames for the
    /// coordinator — `note_gvt`, `stream_telemetry`, `report_load` —
    /// are posted too. That socket blocks, but only until the
    /// coordinator's reader thread takes what is already in it:
    /// checkpoints are written by the thread that sends them, never left
    /// to an LP.)
    fn send(&self, to: usize, p: Packet);
    /// Write what [`send`](Self::send) left staged. Called once per pass
    /// of the LP loop, after the pass's sends and before the loop yields
    /// its core or parks, so no LP waits on a peer over frames it never
    /// wrote. `full`: the pass ran all [`BATCH`] events, so the LP is
    /// CPU-bound and the port leaves what the next pass stages to the
    /// next call ([`WriteRule`]). The lanes stage nothing.
    fn flush(&self, _full: bool) {}
    /// Called before each event the LP loop executes, after the inbox
    /// was read. A port that staged a cancellation since its links were
    /// last written writes them here, once for all the anti-messages the
    /// drain and the previous event staged ([`WriteRule`]): none waits
    /// while the LP runs on. The lanes do nothing.
    fn before_event(&self) {}
    /// Non-blocking receive. The LP loop asks after every executed
    /// event, so with nothing inbound this must be cheap: a lane scan
    /// is; the distributed port's read of its peer links is a syscall,
    /// so it backs off over empty reads (`WorkerPort`), and after a pass
    /// that ran dry it writes what is staged there too ([`WriteRule`]).
    fn try_recv(&self) -> Option<Packet>;
    /// Blocking receive with a timeout: `None` on timeout, or when
    /// something other than a packet woke the LP. The lanes park on
    /// their doorbell; the distributed port parks on it and on its peer
    /// links' sockets in one `ppoll`, so a frame wakes it as a lane
    /// packet does.
    fn recv_timeout(&self, timeout: Duration) -> Option<Packet>;
    /// The controller LP announced a fresh GVT. The distributed port
    /// forwards this to the coordinator as `Frame::Progress`, which is
    /// what paces the checkpoint protocol; in-process transports ignore
    /// it.
    fn note_gvt(&self, _gvt: VirtualTime) {}
    /// This LP's image of checkpoint `ckpt`'s horizon `gvt`
    /// (`LpRuntime::checkpoint`). The distributed port hands it to the
    /// worker's session thread, which ships one image set per worker;
    /// only LPs run with a checkpoint base produce images.
    fn ship_part(&self, _ckpt: u32, _gvt: VirtualTime, _part: Vec<u8>) {}
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
    /// distributed port says yes when the cluster loop is
    /// armed; in-process transports have no one to rebalance.
    fn wants_load(&self) -> bool {
        false
    }
    /// Ship one LP's cumulative load counters for the GVT round toward
    /// the coordinator's cluster loop. Only called when
    /// `wants_load()`. Advisory: loss only delays a migration decision.
    fn report_load(&self, _gvt: VirtualTime, _load: warp_control::cluster::LpLoad) {}
    /// Host-speed pacing hook, called once per optimistically executed
    /// event. The distributed port uses it to emulate a slow host (a
    /// process-wide rate limit) for balance tests; everywhere else it is
    /// free.
    fn throttle(&self) {}
    /// Called once per pass (≤ [`BATCH`] events) of the LP loop that found
    /// work. An LP with speculative work never blocks, so a port whose
    /// peers' answers need other threads of this host to run (the
    /// distributed port: the other LP threads of this worker and of its
    /// peer workers) gives them the core here; the lane mesh does
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

/// When a port that stages its remote data packets writes them (the
/// distributed port; kept beside the loop that drives it, so the loop's
/// tests hold the rule too). After a pass that filled its [`BATCH`] the
/// LP is CPU-bound: its staged packets wait for the next pass-end
/// [`LpPort::flush`], at most a batch of events, and its pumps only
/// read. After a pass that ran dry the LP waits on its peers, and its
/// pumps write as they go. Either way a staged anti-message is written
/// before the LP's next event ([`LpPort::before_event`]): a cancellation
/// that waits lets the peer speculate further on what it cancels, and
/// one write takes all that a rollback's drain staged.
#[derive(Default)]
pub(crate) struct WriteRule {
    /// The last pass filled its batch.
    busy: Cell<bool>,
    /// A packet carrying an anti-message was staged since the links
    /// were last written.
    cancels: Cell<bool>,
}

impl WriteRule {
    /// The port staged `msg`.
    pub(crate) fn staged(&self, msg: &PhysMsg) {
        if msg.events.iter().any(Event::is_anti) {
            self.cancels.set(true);
        }
    }

    /// The port wrote its links: nothing staged is left for later.
    pub(crate) fn wrote(&self) {
        self.cancels.set(false);
    }

    /// Whether a pump writes what is staged.
    pub(crate) fn pump_writes(&self) -> bool {
        !self.busy.get()
    }

    /// Whether the port writes what is staged before the next event: a
    /// cancellation is among it.
    pub(crate) fn event_writes(&self) -> bool {
        self.cancels.get()
    }

    /// At the pass-end flush: did the pass fill its batch?
    pub(crate) fn pass_ended(&self, full: bool) {
        self.busy.set(full);
    }
}

/// Events executed per pass of the LP loop, i.e. between two rounds of
/// the work that reads the wall clock or walks the LP's objects
/// (aggregation deadlines, idle flushes, the core yield, the GVT
/// cadence). Not a latency: every event's remote sends are offered and
/// the inbox is read *between* events, so neither waits out a pass.
pub(crate) const BATCH: usize = 64;
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

/// The next free slot of [`place`]'s rule in this process. Each run of
/// [`run_threaded`] takes as many slots as it has LPs, so runs that
/// overlap (tests on parallel threads) start on different CPUs instead
/// of piling onto the first.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

/// Take `n_lps` consecutive slots; the first of them is the run's base.
fn take_slots(n_lps: usize) -> usize {
    NEXT_SLOT.fetch_add(n_lps, Relaxed)
}

/// The CPU LP `lp` of a run with base slot `base` pins itself to: the
/// `(base + lp)`-th of the `allowed` CPUs, round the set. `None` when
/// the set is empty: the LP runs unpinned.
fn place(allowed: &[u32], base: usize, lp: usize) -> Option<u32> {
    (!allowed.is_empty()).then(|| allowed[base.wrapping_add(lp) % allowed.len()])
}

/// Run the spec on real threads. Returns when GVT reaches infinity.
///
/// Each LP thread pins itself to a CPU of its own before it builds its
/// LP (`place`): left to the scheduler, two LP threads could share a
/// core for tens of milliseconds, each running only while the other
/// was parked (`docs/hot-path.md` §9). With more LPs than CPUs they share
/// round the set; where pinning fails an LP runs unpinned.
pub fn run_threaded(spec: &SimulationSpec) -> RunReport {
    let start_all = Instant::now();
    let n_lps = spec.partition.n_lps();
    let endpoints = lane_mesh::<Packet>(n_lps);
    let allowed = cpu::allowed();
    let base = take_slots(n_lps);

    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|endpoint| {
            let spec = spec.clone();
            let cpu = place(&allowed, base, endpoint.id());
            std::thread::spawn(move || {
                let cpu = cpu.filter(|&c| cpu::pin_current(c));
                let mut outcome = lp_thread(spec, endpoint, LpSeed::Fresh, None);
                outcome.summary.cpu = cpu;
                outcome
            })
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
        worker_peak_rss_kb: Vec::new(),
        worker_link_writes: Vec::new(),
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
    /// With recovery on, `Some(h)`: the lower end of the next checkpoint
    /// window — the last horizon this LP shipped a part for, or the
    /// restore horizon. `None` = recovery off: no log, no anchors.
    ckpt_from: Option<VirtualTime>,
    /// Controller only: a requested checkpoint its next completed GVT
    /// round will be tagged with.
    ckpt_req: Option<u32>,
    /// Telemetry collector (`None` unless the spec enabled it). Sampled
    /// at every GVT round; purely observational.
    recorder: Option<warp_telemetry::Recorder>,
    /// Scratch: remote-destined events the LP just surfaced, on their way
    /// to the aggregation layer — at boot, init's or a resume's. Empty
    /// between uses, capacity reused.
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
        // The remote-destined sends to ship first: init's output, or a
        // restored LP's frontier.
        let mut remote = Vec::new();
        let mut lp = spec.build_lp(my_id);
        if ckpt_base.is_some() {
            lp.arm_recovery();
        }
        match seed {
            LpSeed::Fresh => lp.init(&mut remote),
            LpSeed::Image(bytes) => {
                let image = crate::snapshot::decode_lp_image(&lp, &bytes)
                    .unwrap_or_else(|e| panic!("{my_id}: resume image: {e}"));
                lp.restore(image, &mut remote);
            }
        }
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
            ckpt_from: ckpt_base,
            ckpt_req: None,
            recorder,
            remote,
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

    /// Apply an announced GVT. On a round tagged for checkpoint `ckpt`,
    /// ship this LP's image of the horizon (`LpRuntime::checkpoint`)
    /// before the fossil pass, which takes what the image is made of.
    fn apply_gvt(&mut self, gvt: VirtualTime, ckpt: Option<u32>) {
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
                warp_control::cluster::LpLoad {
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
            return;
        }
        if let (Some(ckpt), Some(from)) = (ckpt, self.ckpt_from.as_mut()) {
            *from = gvt;
            let part = self.lp.checkpoint(gvt);
            self.port.ship_part(ckpt, gvt, part);
        }
        if self.fossil {
            self.lp.fossil_collect(gvt);
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
                // A requested checkpoint takes the first round whose
                // window is not empty.
                let ckpt = self
                    .ckpt_req
                    .take_if(|_| gvt.is_finite() && self.ckpt_from.is_some_and(|f| gvt > f));
                self.port.note_gvt(gvt);
                for peer in 1..self.port.n_total() {
                    self.port.send(peer, Packet::GvtNews { gvt, ckpt });
                }
                self.last_round = Instant::now();
                self.apply_gvt(gvt, ckpt);
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
            Packet::GvtNews { gvt, ckpt } => self.apply_gvt(gvt, ckpt),
            Packet::CkptReq(ckpt) => {
                debug_assert!(self.ctrl.is_some(), "checkpoint request off the controller");
                self.ckpt_req = Some(ckpt);
            }
            Packet::Abort => self.done = true,
        }
    }

    fn run(mut self) -> LpOutcome {
        self.offer_remote();

        'run: while !self.done {
            let mut idle = true;

            // 1. Up to a batch of optimistic event executions. Around
            //    each: first everything already waiting in the inbox, in
            //    arrival order (a straggler read one event late costs a
            //    rollback one event deep, not a batch deep); afterwards
            //    the event's remote sends, offered at once so the peer is
            //    not kept waiting either — and so that no token is ever
            //    handled over an unsent event. The port writes the
            //    cancellations the drain staged before the event runs.
            //    Nothing here walks the objects, and the clock is read
            //    only for an event that produced remote sends.
            let mut ran = 0;
            while ran < BATCH {
                while let Some(p) = self.port.try_recv() {
                    idle = false;
                    self.handle(p);
                    if self.done {
                        break 'run;
                    }
                }
                self.port.before_event();
                if !self.lp.process_one(&mut self.remote) {
                    break;
                }
                idle = false;
                ran += 1;
                self.port.throttle();
                self.offer_remote();
            }

            // 2. Aggregation deadlines (wall clock); idle lazy flushes;
            //    the pass's sends written out.
            let now = self.start.elapsed().as_secs_f64();
            self.agg.poll(now, &mut self.due);
            self.ship();
            if self.lp.next_time().is_infinite() {
                self.lp.flush_idle(&mut self.remote);
                self.offer_remote();
            }
            self.port.flush(ran == BATCH);
            if !idle {
                self.port.yield_core();
            }

            // 3. Controller cadence: periodic rounds, eager when idle
            //    with nothing of its own left, not even in its window
            //    (termination detection), or when retained history has
            //    grown by this LP's share of the budget since the last
            //    fossil pass.
            if self.ctrl.as_ref().is_some_and(|c| !c.in_progress()) {
                let due_round = self.last_round.elapsed() >= self.gvt_period
                    || (idle && self.local_min().is_infinite())
                    || (self.fossil
                        && self.lp.history_bytes() >= self.history_mark + self.history_budget);
                if let Some(ctrl) = self.ctrl.as_mut().filter(|_| due_round) {
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
                cpu: None,
            },
            gvt_rounds: self.gvt_rounds,
            telemetry,
        }
    }
}

/// How an LP thread starts life. The LP thread does the work itself, so
/// the thread that spawned it is free at once — a worker's session
/// thread must keep its peer links alive meanwhile.
pub(crate) enum LpSeed {
    /// Build the LP from the spec and run object init.
    Fresh,
    /// Resume from a checkpoint: build the LP from the spec and restore
    /// it from its image (`LpRuntime::restore`).
    Image(Vec<u8>),
}

/// What an LP thread hands back when it stops.
pub(crate) struct LpOutcome {
    /// Final per-LP summary (meaningless after `Packet::Abort`).
    pub summary: LpSummary,
    /// GVT rounds this LP's controller completed (0 off the controller).
    pub gvt_rounds: u64,
    /// Accumulated telemetry (`None` when disabled or when the port
    /// streamed batches out instead).
    pub telemetry: Option<warp_telemetry::TelemetryReport>,
}

/// Drive one LP to completion over any transport. Shared by the
/// threaded executive (SPSC lane mesh) and the distributed executive
/// (lanes inside a worker process, the TCP mesh between them). The
/// global LP 0 hosts the GVT controller wherever it lives.
///
/// `ckpt_base` arms the checkpoint protocol: `Some(h)` means recovery is
/// on and `h` is the last horizon persisted (ZERO on a fresh run, the
/// restore horizon on a resumed one). The LP then ships its image at
/// every later round the controller tags (`LpRuntime::checkpoint`).
/// Fossil collection runs to GVT either way.
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
    use warp_core::{DynState, ExecutionContext, ObjectId, ObjectState, Partition, SimObject};
    use warp_net::AggregationConfig;

    /// Two kinds of job, each hopping until its hop count runs out. `OWN`
    /// jobs stay on their object, `STEP` ticks on per hop: no cross-LP
    /// traffic, no rollback of their own, and a known amount of history
    /// per event. `CROSS` jobs bounce between the two objects one tick at
    /// a time, so with two LPs every hop is a remote send that lands far
    /// behind whatever the `OWN` jobs have let the receiver run ahead to.
    #[derive(Clone, Debug)]
    struct Hops(u64);
    impl ObjectState for Hops {
        fn encode(&self, w: &mut PayloadWriter) {
            w.u64(self.0);
        }
        fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
            Ok(Hops(r.u64()?))
        }
    }

    struct Looper {
        own: u32,
        cross: u32,
        hops: u32,
        /// 0: every `CROSS` hop takes one tick. Otherwise crossing job
        /// `j` starts `j` hops short, and a hop with `left` hops to go
        /// takes `1 + left % spread` ticks: the jobs drift apart, so one
        /// job's hop arrives behind another's executed one and cancels
        /// what it sent.
        spread: u32,
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
                let delay = 1 + left.checked_rem(self.spread).unwrap_or(0);
                ctx.send(ObjectId(1 - me.0), delay.into(), CROSS, w.finish());
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
            for j in 0..self.cross {
                let short = if self.spread > 0 { j } else { 0 };
                self.hop(ctx, CROSS, self.hops - short);
            }
        }
        fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
            self.state.0 += 1;
            let left = PayloadReader::new(&ev.payload).u32().expect("hop count");
            self.hop(ctx, ev.kind, left);
        }
        fn state(&self) -> &dyn DynState {
            &self.state
        }
        fn state_mut(&mut self) -> &mut dyn DynState {
            &mut self.state
        }
    }

    /// Two objects over `n_lps` LPs, each starting `own` and `cross` jobs
    /// of `hops` hops; `crossed[i]` counts object `i`'s `CROSS` sends.
    /// The period never fires, so every round before the LPs go idle is
    /// a history-growth round.
    fn hop_spec(
        n_lps: usize,
        jobs: (u32, u32, u32),
        crossed: [Arc<AtomicU64>; 2],
    ) -> SimulationSpec {
        spread_spec(n_lps, jobs, 0, crossed)
    }

    /// [`hop_spec`] whose crossing jobs drift apart by `spread`
    /// (`Looper::spread`).
    fn spread_spec(
        n_lps: usize,
        (own, cross, hops): (u32, u32, u32),
        spread: u32,
        crossed: [Arc<AtomicU64>; 2],
    ) -> SimulationSpec {
        SimulationSpec::new(
            Partition::round_robin(2, n_lps),
            Arc::new(move |id: ObjectId| {
                Box::new(Looper {
                    own,
                    cross,
                    hops,
                    spread,
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
        /// Count data packets handed to `send` as staged until `flush`,
        /// as the distributed port stages them. Panic when the loop
        /// yields its core or parks over a staged packet; count the parks
        /// with a data packet sent since the previous one.
        Staged { parks: Arc<AtomicU64> },
        /// Tally, by the kind of pass before, what the port's
        /// [`WriteRule`] writes when. An inbox check that finds the lane
        /// empty is a pump, as the distributed port pumps only then.
        Writes { tally: Arc<WriteTally> },
    }

    /// What a `Writes` probe saw. "After a full pass": since a pass-end
    /// flush whose pass the probe itself counted [`BATCH`] events into.
    /// A drain: the stretch from one event's start, or a pass end, to the
    /// next one's — the inbox read in between, and the sends of the
    /// event before it.
    #[derive(Default)]
    struct WriteTally {
        /// Passes that ran all of [`BATCH`].
        full_passes: AtomicU64,
        /// Pumps that found data packets staged and wrote them, after a
        /// full / a dry pass.
        pump_writes: [AtomicU64; 2],
        /// Pumps that found data packets staged and left them.
        pump_holds: [AtomicU64; 2],
        /// Pass-end flushes that wrote staged packets.
        flush_writes: [AtomicU64; 2],
        /// Packets carrying an anti-message staged.
        antis_staged: [AtomicU64; 2],
        /// Events that ran while such a packet, staged before the event
        /// started, was still unwritten.
        late_antis: AtomicU64,
        /// Writes that carried such packets, and drains that staged any.
        anti_writes: AtomicU64,
        anti_drains: AtomicU64,
    }

    impl WriteTally {
        fn get(counter: &[AtomicU64; 2], after_full: bool) -> u64 {
            counter[after_full as usize].load(Relaxed)
        }
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
        /// `Staged`: data packets sent since the last `flush`, and
        /// whether any was sent since the last park.
        staged: Cell<u64>,
        sent: Cell<bool>,
        /// `Writes`: the rule under test, and whether the probe counted
        /// the last pass full; staged packets carrying an anti-message,
        /// and whether the current drain staged any.
        rule: WriteRule,
        after_full: Cell<bool>,
        antis: Cell<u64>,
        drain_antis: Cell<bool>,
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
                staged: Cell::new(0),
                sent: Cell::new(false),
                rule: WriteRule::default(),
                after_full: Cell::new(false),
                antis: Cell::new(0),
                drain_antis: Cell::new(false),
            }
        }

        /// `Writes`: the tally to count into.
        fn tally(&self) -> Option<&WriteTally> {
            match &self.script {
                Script::Writes { tally } => Some(tally),
                _ => None,
            }
        }

        /// `Writes`: an inbox check pumps, and writes what is staged if
        /// the rule says so.
        fn pump(&self) {
            let Some(tally) = self.tally().filter(|_| self.staged.get() > 0) else {
                return;
            };
            let after = self.after_full.get() as usize;
            if self.rule.pump_writes() {
                self.write(tally);
                tally.pump_writes[after].fetch_add(1, Relaxed);
            } else {
                tally.pump_holds[after].fetch_add(1, Relaxed);
            }
        }

        /// `Writes`: every staged packet goes out in one write.
        fn write(&self, tally: &WriteTally) {
            if self.antis.replace(0) > 0 {
                tally.anti_writes.fetch_add(1, Relaxed);
            }
            self.staged.set(0);
            self.rule.wrote();
        }

        /// `Writes`: a drain ends.
        fn drain_ends(&self, tally: &WriteTally) {
            if self.drain_antis.replace(false) {
                tally.anti_drains.fetch_add(1, Relaxed);
            }
        }

        /// `Staged`: the loop is about to leave the core to others.
        fn assert_written(&self, when: &str) {
            if matches!(self.script, Script::Staged { .. }) {
                assert_eq!(
                    self.staged.get(),
                    0,
                    "LP {} {when} over staged packets",
                    self.lane.id()
                );
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
            if let Packet::Data { msg, .. } = &p {
                if let Some(tally) = self.tally() {
                    if msg.events.iter().any(Event::is_anti) {
                        tally.antis_staged[self.after_full.get() as usize].fetch_add(1, Relaxed);
                        self.antis.set(self.antis.get() + 1);
                        self.drain_antis.set(true);
                    }
                    self.rule.staged(msg);
                }
                self.staged.set(self.staged.get() + 1);
                self.sent.set(true);
            }
            self.lane.send(to, p);
        }
        fn flush(&self, full: bool) {
            if let Some(tally) = self.tally() {
                let counted_full = self.in_pass.get() == BATCH as u64;
                assert_eq!(full, counted_full, "the loop misreported its pass");
                tally.full_passes.fetch_add(full as u64, Relaxed);
                if self.staged.get() > 0 {
                    tally.flush_writes[self.after_full.get() as usize].fetch_add(1, Relaxed);
                }
                self.write(tally);
                self.drain_ends(tally);
                self.rule.pass_ended(full);
                self.after_full.set(counted_full);
                self.in_pass.set(0);
            }
            self.staged.set(0);
        }
        fn before_event(&self) {
            if let Some(tally) = self.tally() {
                if self.rule.event_writes() {
                    self.write(tally);
                }
                self.drain_ends(tally);
            }
        }
        fn try_recv(&self) -> Option<Packet> {
            let hold_tokens = matches!(self.script, Script::TokensMidPass { .. });
            if !hold_tokens || self.in_pass.get() > 0 {
                if let Some(p) = self.take_held() {
                    return Some(p);
                }
            }
            loop {
                match self.lane.try_recv() {
                    Some(p @ Packet::Token(_)) if hold_tokens => {
                        self.held.borrow_mut().push_back((self.clock.get(), p));
                    }
                    Some(p) => return Some(p),
                    None => {
                        self.pump();
                        return None;
                    }
                }
            }
        }
        fn recv_timeout(&self, timeout: Duration) -> Option<Packet> {
            self.assert_written("parked");
            if let Script::Staged { parks } = &self.script {
                parks.fetch_add(self.sent.replace(false) as u64, Relaxed);
            }
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
                // The event's own sends are still to be offered: what is
                // staged was staged before it started.
                Script::Writes { tally } if self.antis.get() > 0 => {
                    tally.late_antis.fetch_add(1, Relaxed);
                }
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
                    // A stale GVT announcement: nothing to do.
                    let noop = Packet::GvtNews {
                        gvt: VirtualTime::ZERO,
                        ckpt: None,
                    };
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
            self.assert_written("yielded its core");
            self.in_pass.set(0);
            if let Script::CrawlingPeer { core_offers, .. } = &self.script {
                if self.lane.id() == 0 {
                    core_offers.fetch_add(1, Relaxed);
                }
            }
        }
    }

    #[test]
    fn a_packet_carries_its_lone_event_in_place_within_two_cache_lines() {
        use std::mem::size_of;
        // A lane slot holds a whole packet, so the packet's size is the
        // ring's: `LANE_CAP` slots per lane, n² lanes.
        assert_eq!(size_of::<PhysMsg>(), size_of::<Event>() + 8);
        assert_eq!(size_of::<Packet>(), 96);
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
    fn armed_recovery_keeps_history_bounded() {
        // One LP whose port is scripted by hand: a GVT round after every
        // `PER_ROUND` events, at the LP's own minimum, and never a
        // checkpoint. Recovery armed at zero must not keep the history
        // above that horizon: fossil collection runs to GVT.
        const ROUNDS: usize = 40;
        const PER_ROUND: usize = 2_000;
        let retained = |ckpt_base: Option<VirtualTime>| {
            let spec = looper_spec(1, 16, 4_000);
            let lane = lane_mesh::<Packet>(1).pop().expect("one endpoint");
            let mut lp = LpThread::new(spec, lane, LpSeed::Fresh, ckpt_base);
            let mut peak = 0;
            for _ in 0..ROUNDS {
                for _ in 0..PER_ROUND {
                    assert!(lp.lp.process_one(&mut lp.remote), "ran dry");
                }
                let gvt = lp.local_min();
                lp.handle(Packet::GvtNews { gvt, ckpt: None });
                peak = peak.max(lp.lp.history_bytes());
            }
            (peak, lp.lp.history_bytes())
        };
        let (free_peak, _) = retained(None);
        let (armed_peak, armed_last) = retained(Some(VirtualTime::ZERO));
        // What the run would keep with nothing collected: 3 records per
        // event, each charged an `Event` at least.
        let whole = ROUNDS * PER_ROUND * 3 * std::mem::size_of::<Event>();
        assert!(
            free_peak * 10 < whole,
            "the unarmed run kept {free_peak} of {whole} bytes: too short to tell"
        );
        assert!(
            armed_peak <= 2 * free_peak,
            "armed recovery kept {armed_peak} bytes (last {armed_last}), \
             the unarmed run {free_peak}"
        );
    }

    #[test]
    fn local_min_covers_events_not_yet_offered() {
        let spec = looper_spec(1, 4, 10);
        let lane = lane_mesh::<Packet>(1).pop().expect("one endpoint");
        let mut lp = LpThread::new(spec, lane, LpSeed::Fresh, None);
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
    fn a_pass_writes_its_links_before_it_parks() {
        // Only crossing jobs: every event sends to the other LP, which
        // runs dry and parks until the answer comes. A packet the port
        // staged and the loop never flushed would leave both waiting.
        let spec = hop_spec(2, (0, 4, 300), Default::default())
            .with_gvt_period(None)
            .with_traces();
        let parks = Arc::new(AtomicU64::new(0));
        let outcomes = run_on(&spec, |lane| {
            let parks = parks.clone();
            Probe::new(lane, Script::Staged { parks })
        });
        assert_sequential(&spec, &outcomes);
        assert!(
            parks.load(Relaxed) >= 10,
            "only {} parks followed a send",
            parks.load(Relaxed)
        );
    }

    /// Run `spec` on two LPs behind `Writes` probes.
    fn tally_writes(spec: &SimulationSpec) -> Arc<WriteTally> {
        let tally = Arc::new(WriteTally::default());
        let outcomes = run_on(spec, |lane| {
            let tally = tally.clone();
            Probe::new(lane, Script::Writes { tally })
        });
        assert_sequential(spec, &outcomes);
        tally
    }

    #[test]
    fn a_full_pass_leaves_its_data_to_the_pass_end_flush() {
        // Own jobs keep both LPs busy, so nearly every pass runs its whole
        // batch; the crossing jobs send data in them.
        let spec = hop_spec(2, (0, 64, 100), Default::default())
            .with_gvt_period(None)
            .with_traces();
        let tally = tally_writes(&spec);
        let full = true;
        assert!(tally.full_passes.load(Relaxed) >= 20, "too few full passes");
        assert_eq!(
            WriteTally::get(&tally.pump_writes, full),
            0,
            "a pump wrote after a full pass"
        );
        assert!(
            WriteTally::get(&tally.pump_holds, full) >= 10,
            "only {} pumps after a full pass found data staged",
            WriteTally::get(&tally.pump_holds, full)
        );
        assert!(WriteTally::get(&tally.flush_writes, full) >= 10);
    }

    #[test]
    fn a_pass_that_ran_dry_writes_at_its_pumps() {
        // Only crossing jobs: every event sends to the other LP, which
        // runs dry waiting for the answer.
        let spec = hop_spec(2, (0, 4, 300), Default::default())
            .with_gvt_period(None)
            .with_traces();
        let tally = tally_writes(&spec);
        let dry = false;
        assert_eq!(
            WriteTally::get(&tally.pump_holds, dry),
            0,
            "a pump after a dry pass left data staged"
        );
        assert!(
            WriteTally::get(&tally.pump_writes, dry) >= 10,
            "only {} pumps after a dry pass wrote",
            WriteTally::get(&tally.pump_writes, dry)
        );
    }

    /// Both LPs run ahead on their own jobs and roll back on the
    /// crossing ones, which cancels what they sent: anti-messages after
    /// full passes; and, with few own jobs, after dry ones.
    fn tally_cancellations() -> [Arc<WriteTally>; 2] {
        [0, 6].map(|own| {
            let spec = spread_spec(2, (own, 8, 300), 4, Default::default())
                .with_gvt_period(None)
                .with_traces();
            tally_writes(&spec)
        })
    }

    #[test]
    fn a_cancellation_is_written_before_the_next_event() {
        let mut antis = [0; 2];
        for tally in tally_cancellations() {
            assert_eq!(
                tally.late_antis.load(Relaxed),
                0,
                "an event ran over an anti-message staged before it"
            );
            for (after_full, n) in antis.iter_mut().enumerate() {
                *n += WriteTally::get(&tally.antis_staged, after_full == 1);
            }
        }
        assert!(
            antis.iter().all(|&n| n > 0),
            "anti-messages staged after a dry / a full pass: {antis:?}"
        );
    }

    #[test]
    fn a_rollbacks_cancellations_leave_in_one_write() {
        for (own, tally) in [0, 6].into_iter().zip(tally_cancellations()) {
            let writes = tally.anti_writes.load(Relaxed);
            let drains = tally.anti_drains.load(Relaxed);
            let antis: u64 = tally.antis_staged.iter().map(|n| n.load(Relaxed)).sum();
            assert!(
                writes <= drains,
                "own {own}: {writes} writes carried the anti-messages of {drains} drains"
            );
            assert!(
                writes < antis,
                "own {own}: {writes} writes for {antis} anti-messages"
            );
        }
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

    #[test]
    fn a_controller_waiting_on_its_own_window_starts_no_rounds() {
        // Object 0, on the controller LP, sends its jobs to object 1 at
        // init and has nothing else to run; object 1 runs what arrives and
        // sends nothing. The jobs wait 20 ms in LP 0's window, with no
        // event pending anywhere, and the period never fires: every round
        // is an idle one. Started while the window holds, they would
        // follow each other back to back for all of it.
        let spec = SimulationSpec::new(
            Partition::round_robin(2, 2),
            Arc::new(|id: ObjectId| {
                Box::new(Looper {
                    own: 0,
                    cross: if id.0 == 0 { 8 } else { 0 },
                    hops: 1,
                    spread: 0,
                    crossed: Default::default(),
                    state: Hops(0),
                }) as Box<dyn SimObject>
            }),
        )
        .with_aggregation(AggregationConfig::Faw { window: 20e-3 })
        .with_gvt_period(Some(10.0));
        let report = run_threaded(&spec);
        let want = crate::run_sequential(&spec);
        assert_eq!(report.committed_events, want.committed_events);
        // Once the window flushes, a round may catch object 1 between any
        // two of its 8 events, and one more finds the run done. Back to
        // back, rounds number in the thousands over the window.
        assert!(
            report.gvt_rounds <= 10,
            "{} GVT rounds for 8 events held in a window",
            report.gvt_rounds
        );
    }

    #[test]
    fn placement_goes_round_the_allowed_set_from_the_base() {
        let set = [2, 5, 7];
        let run = |base| (0..4).map(|lp| place(&set, base, lp)).collect::<Vec<_>>();
        // Wrap-around: a fourth LP shares the first LP's CPU.
        assert_eq!(run(0), [Some(2), Some(5), Some(7), Some(2)]);
        // Another base starts further round the set.
        assert_eq!(run(4), [Some(5), Some(7), Some(2), Some(5)]);
        assert_eq!(place(&set, usize::MAX, 1), Some(2), "the slot wraps");
        // One CPU: every LP shares it.
        assert_eq!(place(&[3], 0, 0), Some(3));
        assert_eq!(place(&[3], 9, 1), Some(3));
        // No set read: no placement.
        assert_eq!(place(&[], 0, 0), None);
        assert_eq!(place(&[], 5, 3), None);
    }

    #[test]
    fn back_to_back_runs_take_different_base_slots() {
        // Runs on other test threads may take slots in between; they
        // only push the second base further on.
        let first = take_slots(2);
        let second = take_slots(2);
        assert!(second >= first + 2, "bases {first} then {second}");
    }

    #[test]
    fn each_lp_thread_runs_on_a_cpu_of_its_own() {
        let phold = warp_models::phold::PholdConfig {
            n_objects: 8,
            n_lps: 2,
            ..warp_models::phold::PholdConfig::new(40, 7)
        }
        .spec();
        let spec = SimulationSpec::new((*phold.partition).clone(), phold.objects.clone());
        let report = run_threaded(&spec);
        assert_eq!(
            report.committed_events,
            crate::run_sequential(&spec).committed_events
        );
        let allowed = cpu::allowed();
        let cpus: Vec<Option<u32>> = report.per_lp.iter().map(|lp| lp.cpu).collect();
        assert!(
            cpus.iter().flatten().all(|c| allowed.contains(c)),
            "{cpus:?} outside {allowed:?}"
        );
        if allowed.len() >= 2 {
            assert!(
                cpus.iter().all(Option::is_some) && cpus[0] != cpus[1],
                "LP CPUs {cpus:?} on a host that allows {allowed:?}"
            );
        }
    }
}
