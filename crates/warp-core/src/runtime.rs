//! The per-object Time Warp runtime: optimistic execution, rollback,
//! coast-forward, cancellation and checkpointing for one simulation
//! object.
//!
//! This is the mechanism layer. *Policy* — how often to checkpoint, which
//! cancellation strategy to use — enters only through the
//! [`crate::policy`] traits, so the same runtime serves the static
//! baselines and the on-line configured runs of the paper's experiments.

use crate::cost::CostModel;
use crate::error::KernelError;
use crate::event::{Event, EventId, EventKey, Payload};
use crate::ids::ObjectId;
use crate::image::{ObjectImage, ObjectImageRef};
use crate::object::{DynState, ExecutionContext, SimObject};
use crate::policy::{CancellationMode, ControlChange, ControlTransition, ObjectPolicies};
use crate::queues::{InputQueue, Inserted, OutputQueue, SentRecord, StatePos, StateQueue};
use crate::stats::ObjectStats;
use crate::time::VirtualTime;
use crate::trace::TraceDigest;
use crate::wire::PayloadWriter;
use std::sync::{Arc, OnceLock};

/// Per-object debug trace to stderr, filtered by `WARP_TRACE_OBJECT`.
/// The arguments are only formatted once the filter has passed, and the
/// whole statement is dead code without `debug_assertions`: a release
/// build must not pay for a diagnostic nobody reads (`docs/hot-path.md`).
macro_rules! trace {
    ($rt:expr, $($arg:tt)*) => {
        if cfg!(debug_assertions) && $rt.traced() {
            eprintln!("[obj#{} lvt={}] {}", $rt.id.0, $rt.lvt, format_args!($($arg)*));
        }
    };
}

/// A send request captured from a model during one `execute` call.
#[derive(Debug, Clone)]
struct SendReq {
    dst: ObjectId,
    at: VirtualTime,
    kind: u16,
    payload: Payload,
}

/// Execution context that collects sends (normal execution).
struct CollectCtx {
    me: ObjectId,
    now: VirtualTime,
    sends: Vec<SendReq>,
}

impl ExecutionContext for CollectCtx {
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
        self.sends.push(SendReq {
            dst,
            at,
            kind,
            payload,
        });
        Ok(())
    }
}

/// Execution context that discards sends (coast-forward replay: the
/// original messages are correct and already out).
struct DiscardCtx {
    me: ObjectId,
    now: VirtualTime,
}

impl ExecutionContext for DiscardCtx {
    fn me(&self) -> ObjectId {
        self.me
    }
    fn now(&self) -> VirtualTime {
        self.now
    }
    fn try_send_at(
        &mut self,
        _dst: ObjectId,
        at: VirtualTime,
        _kind: u16,
        _payload: Payload,
    ) -> Result<(), KernelError> {
        if at <= self.now {
            return Err(KernelError::SendIntoPast {
                now: self.now,
                requested: at,
            });
        }
        Ok(())
    }
}

/// The Time Warp runtime wrapped around one simulation object
/// (the paper's Figure 1: physical process plus three history queues).
pub struct ObjectRuntime {
    id: ObjectId,
    obj: Box<dyn SimObject>,
    input: InputQueue,
    output: OutputQueue,
    states: StateQueue,
    lvt: VirtualTime,
    serial_next: u64,
    events_since_save: u32,
    since_cancel_invoke: u64,
    since_ckpt_invoke: u64,
    /// `Ec` components accumulated since the last checkpoint-tuner invocation.
    ec_save_acc: f64,
    ec_coast_acc: f64,
    policies: ObjectPolicies,
    /// Lazy cancellation: provisionally-wrong sends awaiting regeneration.
    lazy_pending: Vec<Event>,
    /// Aggressive-mode passive monitoring: cancelled sends kept for
    /// hit-ratio bookkeeping (already cancelled on the wire).
    monitor_pending: Vec<Event>,
    stats: ObjectStats,
    /// Modeled CPU seconds charged since the executive last drained.
    cost_acc: f64,
    /// Telemetry: controller decisions since the executive last drained.
    /// Strictly observational — recording charges no modeled cost and
    /// never touches the event path, so a run's committed trace is
    /// byte-identical with recording on or off.
    control_log: Vec<ControlTransition>,
    record_control: bool,
    /// Scratch for the sends of the event being executed; empty between
    /// events, its capacity reused so the collecting context allocates
    /// nothing per event.
    sends: Vec<SendReq>,
    /// Scratch for the sends a rollback cancels, reused the same way.
    cancelled: Vec<Event>,
    /// Trace digest of the committed events fossil collection has
    /// dropped; `Some` only when traces are collected
    /// ([`set_collect_traces`](Self::set_collect_traces)).
    digest: Option<TraceDigest>,
    /// Armed by [`arm_recovery`](Self::arm_recovery) for the distributed
    /// checkpoint protocol: which objects, by index, live on other LPs.
    recovery: Option<Arc<[bool]>>,
}

/// Whether `id` lives on another LP, by an armed object's recovery map;
/// an id outside the simulation (a test driver's) counts as elsewhere.
fn elsewhere(remote: &[bool], id: ObjectId) -> bool {
    remote.get(id.index()).copied().unwrap_or(true)
}

/// Upper bound on the undrained control log. Executives drain at every
/// GVT round; the cap only matters for drivers that never drain (the
/// sequential golden model), where it stops the log growing with the
/// run. Oldest entries are kept, newest dropped.
const CONTROL_LOG_CAP: usize = 1 << 16;

/// Record sizes behind [`ObjectRuntime::history_bytes`]: an executed
/// input is an `Event`, an output record an `Event` and its generating
/// key, a snapshot a [`StateQueue::ENTRY_BYTES`] entry plus its state. A
/// payload of up to [`crate::event::INLINE_PAYLOAD_BYTES`] bytes lives
/// inside its `Event`; longer ones are not counted, since the executives
/// only compare growth against a budget of megabytes and finding them
/// would cost a walk over the queues.
const INPUT_RECORD_BYTES: usize = std::mem::size_of::<Event>();
const OUTPUT_RECORD_BYTES: usize = std::mem::size_of::<SentRecord>();

impl ObjectRuntime {
    /// Wrap a simulation object with its per-object policies.
    pub fn new(id: ObjectId, obj: Box<dyn SimObject>, policies: ObjectPolicies) -> Self {
        ObjectRuntime {
            id,
            obj,
            input: InputQueue::new(),
            output: OutputQueue::new(),
            states: StateQueue::new(),
            lvt: VirtualTime::ZERO,
            serial_next: 0,
            events_since_save: 0,
            since_cancel_invoke: 0,
            since_ckpt_invoke: 0,
            ec_save_acc: 0.0,
            ec_coast_acc: 0.0,
            policies,
            lazy_pending: Vec::new(),
            monitor_pending: Vec::new(),
            stats: ObjectStats::default(),
            cost_acc: 0.0,
            control_log: Vec::new(),
            record_control: false,
            sends: Vec::new(),
            cancelled: Vec::new(),
            digest: None,
            recovery: None,
        }
    }

    /// Keep [`trace_digest`](Self::trace_digest) whole across fossil
    /// collection: fold every event fossil collection drops into a
    /// running digest. Off by default; switch it on before the first
    /// fossil pass.
    pub fn set_collect_traces(&mut self, on: bool) {
        self.digest = on.then(TraceDigest::new);
    }

    /// This object's id.
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// Local virtual time: receive time of the last executed event.
    pub fn lvt(&self) -> VirtualTime {
        self.lvt
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ObjectStats {
        &self.stats
    }

    /// Name of the wrapped model object.
    pub fn object_name(&self) -> String {
        self.obj.name()
    }

    /// Cancellation strategy currently in force (for reports).
    pub fn cancellation_mode(&self) -> CancellationMode {
        self.policies.cancellation.mode()
    }

    /// Checkpoint interval currently in force (for reports).
    pub fn checkpoint_interval(&self) -> u32 {
        self.policies.checkpoint.interval()
    }

    /// Drain the modeled CPU seconds charged since the last drain.
    pub fn take_cost(&mut self) -> f64 {
        std::mem::replace(&mut self.cost_acc, 0.0)
    }

    /// Modeled CPU seconds charged and not yet drained (the LP's debug
    /// cross-check that it drains every object it should).
    pub(crate) fn pending_cost(&self) -> f64 {
        self.cost_acc
    }

    /// Switch control-transition recording on or off (off by default).
    /// Recording is purely observational: it charges no modeled cost.
    pub fn set_record_control(&mut self, on: bool) {
        self.record_control = on;
    }

    /// Drain the controller decisions recorded since the last drain.
    pub fn take_control_log(&mut self) -> Vec<ControlTransition> {
        std::mem::take(&mut self.control_log)
    }

    fn record_transition(&mut self, change: ControlChange) {
        if self.control_log.len() < CONTROL_LOG_CAP {
            self.control_log.push(ControlTransition {
                object: self.id,
                lvt: self.lvt,
                change,
            });
        }
    }

    /// Lower bound this object imposes on GVT: its next unprocessed event
    /// and any held-back (unsent) lazy anti-messages. The latter keeps GVT
    /// correct even if an executive samples before flushing idle objects.
    pub fn gvt_contribution(&self) -> VirtualTime {
        let mut t = self.input.next_time();
        for p in &self.lazy_pending {
            t = t.min(p.recv_time);
        }
        t
    }

    /// Receive time of the next unprocessed event (∞ when idle).
    pub fn next_time(&self) -> VirtualTime {
        self.input.next_time()
    }

    /// Retained history sizes `(input, output, states)` — memory
    /// diagnostics and fossil-collection tests.
    pub fn history_sizes(&self) -> (usize, usize, usize) {
        (self.input.len(), self.output.len(), self.states.len())
    }

    /// Estimated bytes of retained history, O(1): each executed input
    /// event, output record and snapshot entry at its record's size,
    /// plus the snapshots' own bytes from the state queue's running
    /// counter. Pending input is not history — no
    /// GVT advance reclaims it.
    pub fn history_bytes(&self) -> usize {
        self.input.processed_len() * INPUT_RECORD_BYTES
            + self.output.len() * OUTPUT_RECORD_BYTES
            + self.states.len() * StateQueue::ENTRY_BYTES
            + self.states.retained_bytes()
    }

    #[inline]
    fn charge(&mut self, c: f64) {
        self.cost_acc += c;
    }

    /// Is this object named in `WARP_TRACE_OBJECT` (comma-separated
    /// object ids)? The variable is read once per process.
    fn traced(&self) -> bool {
        static IDS: OnceLock<Vec<u32>> = OnceLock::new();
        IDS.get_or_init(|| {
            std::env::var("WARP_TRACE_OBJECT")
                .map(|v| v.split(',').filter_map(|t| t.parse().ok()).collect())
                .unwrap_or_default()
        })
        .contains(&self.id.0)
    }

    /// Initialize: run the model's `init`, emit its initial events into
    /// `out`, then snapshot the time-zero state.
    ///
    /// The snapshot is taken *after* `init`: initialization is part of
    /// the state at virtual time zero and is never rolled back (its sends
    /// are recorded with no generating event and are never cancelled), so
    /// a rollback all the way to the initial snapshot must restore the
    /// post-init state — including any RNG draws init performed.
    pub fn init(&mut self, cost: &CostModel, out: &mut Vec<Event>) {
        let mut ctx = CollectCtx {
            me: self.id,
            now: VirtualTime::ZERO,
            sends: Vec::new(),
        };
        self.obj.init(&mut ctx);
        for req in ctx.sends {
            self.transmit(None, req, out);
        }

        let bytes = self.states.save(None, self.obj.state());
        self.stats.states_saved += 1;
        let c = cost.state_save_cost(bytes);
        self.stats.cost_state_saving += c;
        self.charge(c);
    }

    /// Deliver one incoming message (positive or anti). Any anti-messages
    /// this triggers (aggressive rollback) are pushed to `out`.
    pub fn deliver(&mut self, ev: Event, cost: &CostModel, out: &mut Vec<Event>) {
        debug_assert_eq!(ev.dst, self.id, "event routed to the wrong object");
        self.charge(cost.queue_insert);
        trace!(
            self,
            "deliver {:?} {:?} recv={} kind={}",
            ev.sign,
            ev.id,
            ev.recv_time,
            ev.kind
        );
        match self.input.insert(ev) {
            Inserted::Enqueued => {}
            Inserted::OrphanStored => trace!(self, "  -> orphan anti stored"),
            Inserted::Annihilated => {
                self.stats.annihilated += 1;
                self.charge(cost.annihilation);
            }
            Inserted::Straggler(key) => {
                trace!(self, "  -> straggler, rollback to {key:?}");
                self.stats.straggler_rollbacks += 1;
                self.rollback(key, true, cost, out);
            }
            Inserted::AntiStraggler(key) => {
                self.stats.annihilated += 1;
                self.charge(cost.annihilation);
                self.stats.anti_rollbacks += 1;
                self.rollback(key, false, cost, out);
            }
        }
    }

    /// Execute the next unprocessed event, if any. Emits sends (and any
    /// lazy-flush anti-messages) into `out`. Returns `false` when idle.
    pub fn process_next(&mut self, cost: &CostModel, out: &mut Vec<Event>) -> bool {
        let Some(next) = self.input.next_unprocessed() else {
            return false;
        };
        let now = next.recv_time;
        // Held-back messages older than the new LVT can no longer be
        // regenerated: their fate is decided.
        self.flush_pending_before(now, cost, out);

        let idx = self.input.processed_len();
        self.input.mark_processed();
        let key;
        let mut ctx = CollectCtx {
            me: self.id,
            now,
            sends: std::mem::take(&mut self.sends),
        };
        {
            let ev = self.input.processed_at(idx);
            key = ev.key();
            self.lvt = now;
            self.obj.execute(&mut ctx, ev);
        }
        self.stats.executed += 1;
        self.stats.cost_execution += cost.event_exec;
        self.charge(cost.event_exec);

        for req in ctx.sends.drain(..) {
            self.dispose_send(key, req, cost, out);
        }
        self.sends = ctx.sends;

        // Periodic checkpointing: save after every χ-th event.
        self.events_since_save += 1;
        if self.events_since_save >= self.policies.checkpoint.interval() {
            self.save_state(key, cost);
        }

        self.invoke_controllers(cost, out);
        true
    }

    fn save_state(&mut self, key: EventKey, cost: &CostModel) {
        let bytes = self.states.save(Some(key), self.obj.state());
        self.stats.states_saved += 1;
        let c = cost.state_save_cost(bytes);
        self.stats.cost_state_saving += c;
        self.ec_save_acc += c;
        self.charge(c);
        self.events_since_save = 0;
    }

    /// Route one model send through the active cancellation machinery.
    fn dispose_send(
        &mut self,
        gen: EventKey,
        req: SendReq,
        cost: &CostModel,
        out: &mut Vec<Event>,
    ) {
        match self.policies.cancellation.mode() {
            CancellationMode::Lazy => {
                if let Some(i) = self.match_pending(&req, true, cost) {
                    // Lazy hit: the receiver already holds this message.
                    let orig = self.lazy_pending.remove(i);
                    trace!(self, "lazy HIT: keep {:?} recv={}", orig.id, orig.recv_time);
                    self.stats.lazy_hits += 1;
                    self.policies.cancellation.record_comparison(true);
                    self.output.record(Some(gen), orig);
                    return;
                }
            }
            CancellationMode::Aggressive => {
                if self.policies.cancellation.monitoring() {
                    if let Some(i) = self.match_pending(&req, false, cost) {
                        // Passive comparison: a lazy strategy would have hit
                        // here. The message itself must still be (re)sent —
                        // the original was already cancelled.
                        self.monitor_pending.remove(i);
                        self.stats.monitor_hits += 1;
                        self.policies.cancellation.record_comparison(true);
                    }
                }
            }
        }
        self.transmit(Some(gen), req, out);
    }

    /// Find a held-back message with identical content. Charges one
    /// comparison per candidate whose destination and timestamp match.
    fn match_pending(&mut self, req: &SendReq, lazy: bool, cost: &CostModel) -> Option<usize> {
        let list = if lazy {
            &self.lazy_pending
        } else {
            &self.monitor_pending
        };
        for (i, p) in list.iter().enumerate() {
            if p.dst == req.dst && p.recv_time == req.at && p.kind == req.kind {
                let c = cost.lazy_compare_cost(p.payload.len().min(req.payload.len()));
                self.stats.cost_comparison += c;
                self.cost_acc += c;
                if p.payload == req.payload {
                    return Some(i);
                }
            }
        }
        None
    }

    fn transmit(&mut self, gen: Option<EventKey>, req: SendReq, out: &mut Vec<Event>) {
        let ev = Event::new(
            EventId {
                sender: self.id,
                serial: self.serial_next,
            },
            req.dst,
            if let Some(k) = gen {
                k.recv_time
            } else {
                VirtualTime::ZERO
            },
            req.at,
            req.kind,
            req.payload,
        );
        self.serial_next += 1;
        self.stats.sent += 1;
        trace!(
            self,
            "transmit {:?} dst={} recv={} kind={} plen={}",
            ev.id,
            ev.dst,
            ev.recv_time,
            ev.kind,
            ev.payload.len()
        );
        self.output.record(gen, ev.clone());
        out.push(ev);
    }

    /// Decide the fate of held-back messages whose send time has fallen
    /// behind `horizon` (they can no longer be regenerated): lazy entries
    /// become anti-messages (misses), monitor entries are just misses.
    pub fn flush_pending_before(
        &mut self,
        horizon: VirtualTime,
        _cost: &CostModel,
        out: &mut Vec<Event>,
    ) {
        let mut i = 0;
        while i < self.lazy_pending.len() {
            if self.lazy_pending[i].send_time < horizon {
                let orig = self.lazy_pending.remove(i);
                trace!(
                    self,
                    "lazy MISS flush: anti {:?} recv={} (horizon {horizon})",
                    orig.id,
                    orig.recv_time
                );
                self.stats.lazy_misses += 1;
                self.stats.anti_sent += 1;
                self.policies.cancellation.record_comparison(false);
                out.push(orig.to_anti());
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < self.monitor_pending.len() {
            if self.monitor_pending[i].send_time < horizon {
                self.monitor_pending.remove(i);
                self.stats.monitor_misses += 1;
                self.policies.cancellation.record_comparison(false);
            } else {
                i += 1;
            }
        }
    }

    /// The sends lazy cancellation holds back: rolled back, neither
    /// regenerated nor cancelled yet.
    pub(crate) fn held_back(&self) -> impl Iterator<Item = &Event> {
        self.lazy_pending.iter()
    }

    /// Flush every held-back message (object gone idle; nothing can
    /// regenerate them anymore).
    pub fn flush_all_pending(&mut self, cost: &CostModel, out: &mut Vec<Event>) {
        self.flush_pending_before(VirtualTime::INFINITY, cost, out);
    }

    /// Roll back to `key` (exclusive: the event at `key` and everything
    /// after is undone). `positive_straggler` distinguishes the two
    /// triggers for correct rolled-back accounting.
    fn rollback(
        &mut self,
        key: EventKey,
        positive_straggler: bool,
        cost: &CostModel,
        out: &mut Vec<Event>,
    ) {
        let n = self.input.unprocess_from(key);
        // `n` counts executed events moved back to pending. A positive
        // straggler was never executed (it is not in `n`); an annihilated
        // twin was executed but is already removed, so it adds one.
        let rolled = if positive_straggler { n } else { n + 1 };
        self.stats.rolled_back += rolled;
        self.stats.cost_rollback += cost.rollback_fixed;
        self.charge(cost.rollback_fixed);

        // Dispose of erroneous sends per the active strategy.
        let mut cancelled = std::mem::take(&mut self.cancelled);
        self.output.take_from(key, &mut cancelled);
        match self.policies.cancellation.mode() {
            CancellationMode::Aggressive => {
                let monitoring = self.policies.cancellation.monitoring();
                for ev in cancelled.drain(..) {
                    trace!(
                        self,
                        "rollback({key:?}): AGGR anti {:?} recv={}",
                        ev.id,
                        ev.recv_time
                    );
                    self.stats.anti_sent += 1;
                    out.push(ev.to_anti());
                    if monitoring {
                        self.monitor_pending.push(ev);
                    }
                }
            }
            CancellationMode::Lazy => {
                for ev in &cancelled {
                    trace!(
                        self,
                        "rollback({key:?}): LAZY hold {:?} recv={}",
                        ev.id,
                        ev.recv_time
                    );
                }
                self.lazy_pending.append(&mut cancelled);
            }
        }
        self.cancelled = cancelled;

        self.restore_and_coast(key, cost);
    }

    /// The state-restoration tail shared by every rollback flavour:
    /// restore the newest snapshot before `key`, truncate newer
    /// snapshots, and coast forward over the still-valid events between
    /// the snapshot and `key`, suppressing their sends. The input queue
    /// must already be un-processed back to `key`.
    fn restore_and_coast(&mut self, key: EventKey, cost: &CostModel) {
        let (pos, snap) = self
            .states
            .restore_before(key)
            .expect("rollback: no restorable state snapshot (fossil bug?)");
        self.obj.state_mut().assign_from(&**snap);
        let restored_bytes = snap.bytes();
        self.stats.states_restored += 1;
        let c = cost.state_restore_cost(restored_bytes);
        self.stats.cost_rollback += c;
        self.charge(c);
        self.states.truncate_from(key);
        self.coast_from(pos, cost);
    }

    /// Coast forward from the restored snapshot at `pos` over the
    /// processed inputs after it, suppressing their sends.
    fn coast_from(&mut self, pos: StatePos, cost: &CostModel) {
        let start = self.input.replay_start(pos);
        let end = self.input.processed_len();
        for i in start..end {
            let now = self.input.processed_at(i).recv_time;
            let mut ctx = DiscardCtx { me: self.id, now };
            {
                let ev = self.input.processed_at(i);
                self.lvt = now;
                self.obj.execute(&mut ctx, ev);
            }
            self.stats.coasted += 1;
            let cc = cost.coast_event_cost();
            self.stats.cost_coasting += cc;
            self.ec_coast_acc += cc;
            self.charge(cc);
        }
        if end == start {
            self.lvt = match pos {
                None => VirtualTime::ZERO,
                Some(k) => k.recv_time,
            };
        }
        // The live state now sits `end - start` events past its snapshot.
        self.events_since_save = (end - start) as u32;
    }

    fn invoke_controllers(&mut self, cost: &CostModel, out: &mut Vec<Event>) {
        let p = self.policies.cancellation.period();
        if p > 0 {
            self.since_cancel_invoke += 1;
            if self.since_cancel_invoke >= p {
                self.since_cancel_invoke = 0;
                self.charge(cost.control_invoke);
                let before = self.policies.cancellation.mode();
                if let Some(m) = self.policies.cancellation.invoke() {
                    if m != before {
                        if self.record_control {
                            let sampled_o = self
                                .policies
                                .cancellation
                                .sampled_output()
                                .unwrap_or(f64::NAN);
                            self.record_transition(ControlChange::Cancellation {
                                old: before,
                                new: m,
                                sampled_o,
                            });
                        }
                        self.switch_mode(m, out);
                    }
                }
            }
        }
        let p = self.policies.checkpoint.period();
        if p > 0 {
            self.since_ckpt_invoke += 1;
            if self.since_ckpt_invoke >= p {
                self.since_ckpt_invoke = 0;
                self.charge(cost.control_invoke);
                let save = std::mem::replace(&mut self.ec_save_acc, 0.0);
                let coast = std::mem::replace(&mut self.ec_coast_acc, 0.0);
                let before = self.policies.checkpoint.interval();
                if let Some(chi) = self.policies.checkpoint.invoke(save, coast) {
                    if chi != before {
                        self.stats.interval_adjustments += 1;
                    }
                    if self.record_control {
                        // Every invocation, moved or not: the tuner's
                        // internal state advanced either way, and the χ
                        // trajectory only replays from a gapless log.
                        self.record_transition(ControlChange::Checkpoint {
                            old: before,
                            new: chi,
                            sampled_o: save + coast,
                        });
                    }
                }
            }
        }
    }

    /// Change cancellation strategy mid-run, cleaning up the pending sets
    /// so both strategies stay correct across the switch.
    fn switch_mode(&mut self, new_mode: CancellationMode, out: &mut Vec<Event>) {
        self.stats.strategy_switches += 1;
        trace!(
            self,
            "switch mode -> {new_mode:?} (pending {})",
            self.lazy_pending.len()
        );
        match new_mode {
            CancellationMode::Aggressive => {
                // Everything held back must be cancelled now.
                for ev in self.lazy_pending.drain(..) {
                    self.stats.anti_sent += 1;
                    out.push(ev.to_anti());
                }
            }
            CancellationMode::Lazy => {
                // Monitor copies were already cancelled on the wire; they
                // carry no obligations.
                self.monitor_pending.clear();
            }
        }
    }

    /// The committed (processed, not rolled back) events retained in the
    /// input queue — the full history when fossil collection is off.
    /// Diagnostic accessor used by debugging tools and tests.
    pub fn committed_history(&self) -> Vec<Event> {
        self.input.processed_events().to_vec()
    }

    /// The wrapped model's *current* state — the final state when read
    /// by a post-run inspector (see `warp_exec::run_virtual_inspect`);
    /// [`DynState`]'s `get` downcasts it to the model's state type.
    pub fn state(&self) -> &dyn DynState {
        self.obj.state()
    }

    /// Digest of the committed (processed, not rolled back) event history
    /// — the golden-model equivalence tests' comparison against the
    /// sequential engine. Whole at termination when fossil collection is
    /// off, or when traces are collected
    /// ([`set_collect_traces`](Self::set_collect_traces)): then it
    /// continues the fold of what fossil collection dropped over what is
    /// still retained.
    pub fn trace_digest(&self) -> TraceDigest {
        let mut d = self.digest.unwrap_or_default();
        for ev in self.input.processed_events() {
            d.update(ev);
        }
        d
    }

    /// Reclaim history the advancing GVT has made unreachable. Under
    /// recovery ([`arm_recovery`](Self::arm_recovery)) the committed
    /// sends to other LPs still in flight past GVT stay: they cross every
    /// checkpoint horizon the protocol may yet pick. (A send to this LP
    /// is in its receiver's input queue by then.)
    pub fn fossil_collect(&mut self, gvt: VirtualTime) {
        let Some(bound) = self.states.fossil_bound(gvt) else {
            return;
        };
        let a = self.states.fossil_collect_before(bound);
        let c = match &self.recovery {
            Some(remote) => {
                let in_flight = |e: &Event| e.recv_time >= gvt && elsewhere(remote, e.dst);
                self.output.fossil_collect_before(bound, Some(&in_flight))
            }
            None => self.output.fossil_collect_before(bound, None),
        };
        let dropped = self.input.fossil_collect_before(bound);
        let b = dropped.len() as u64;
        if let Some(d) = &mut self.digest {
            for ev in dropped {
                d.update(&ev);
            }
        }
        self.stats.fossils_collected += a + b + c;
    }

    /// Arm the distributed checkpoint protocol. `remote[i]` tells
    /// whether object `i` lives on another LP: from here on fossil
    /// collection keeps the committed sends to those still in flight past
    /// GVT, part of the frontier of the next horizon's image.
    pub fn arm_recovery(&mut self, remote: Arc<[bool]>) {
        self.recovery = Some(remote);
    }

    /// Append this object's image of the horizon `h`, an announced GVT
    /// the protocol chose (layout in [`crate::image`]). Call before the
    /// fossil pass at `h`: the queues must still hold a snapshot below
    /// `h` and everything processed after it. The frontier is the sends
    /// crossing `h` this object keeps track of: its own to other LPs, and
    /// those it received from its own LP (the sender kept no copy) except
    /// the ones in `doomed`, sorted: sends its LP's lazy cancellation
    /// still holds back, which may yet be cancelled.
    pub fn checkpoint(&self, h: VirtualTime, doomed: &[EventId], w: &mut PayloadWriter) {
        let remote = self
            .recovery
            .as_deref()
            .expect("checkpoint before arm_recovery");
        let (pos, state) = self
            .states
            .newest_below(h)
            .expect("checkpoint: no snapshot below the horizon (fossil collection passed it?)");
        let history = self.input.processed_events();
        let start = pos.map_or(0, |p| history.partition_point(|e| e.key() < p));
        let end = history.partition_point(|e| e.recv_time < h);
        debug_assert!(pos.is_none_or(|p| history.get(start).is_some_and(|e| e.key() == p)));
        let digest = self.digest.map_or_else(TraceDigest::new, |mut d| {
            for ev in &history[..start] {
                d.update(ev);
            }
            d
        });
        ObjectImageRef {
            id: self.id,
            serial_next: self.serial_next,
            committed: self.stats.net_executed() - (history.len() - end) as u64,
            digest,
            pos,
            state,
            inputs: &history[start..end],
            frontier: self
                .output
                .crossing(h)
                .filter(|e| elsewhere(remote, e.dst))
                .chain(self.input.events().filter(move |e| {
                    e.send_time < h
                        && e.recv_time >= h
                        && !elsewhere(remote, e.id.sender)
                        && doomed.binary_search(&e.id).is_err()
                })),
        }
        .encode(w);
    }

    /// Build this armed ([`arm_recovery`](Self::arm_recovery)), freshly
    /// built runtime from its image of a horizon, in place of
    /// [`init`](Self::init): the snapshot and its inputs seed the queues
    /// and the state coasts forward through the inputs, its own sends in
    /// the frontier seed the output queue, and the digest, committed
    /// count and send serial continue where the image left them. Returns
    /// the frontier's events, for the caller to deliver again.
    pub fn restore(&mut self, image: ObjectImage, cost: &CostModel) -> Vec<Event> {
        debug_assert_eq!(image.id, self.id, "image restored into the wrong object");
        debug_assert!(self.states.is_empty(), "restore into an initialised object");
        let remote = self.recovery.clone().expect("restore before arm_recovery");
        self.serial_next = image.serial_next;
        self.stats.executed = image.committed;
        if let Some(d) = &mut self.digest {
            *d = image.digest;
        }
        self.obj.state_mut().assign_from(&*image.state);
        self.states.save(image.pos, &*image.state);
        self.input.reseed_history(image.inputs);
        let sent = image.frontier.iter().filter(|e| elsewhere(&remote, e.dst));
        self.output.reseed(sent.cloned().collect());
        self.coast_from(image.pos, cost);
        trace!(self, "restored: lvt={}", self.lvt);
        image.frontier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectState, RecordingContext};
    use crate::policy::{FixedCancellation, FixedCheckpoint};
    use crate::wire::PayloadReader;

    /// A test object: accumulates received values; on each event with
    /// kind 1 forwards `sum` to a fixed peer 10 ticks later.
    #[derive(Clone, Debug, PartialEq)]
    struct AccState {
        sum: u64,
    }
    impl ObjectState for AccState {
        fn encode(&self, w: &mut PayloadWriter) {
            w.u64(self.sum);
        }
        fn decode(r: &mut PayloadReader<'_>) -> Result<Self, crate::KernelError> {
            Ok(AccState { sum: r.u64()? })
        }
    }

    struct Acc {
        peer: ObjectId,
        state: AccState,
    }

    impl SimObject for Acc {
        fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
            let mut r = PayloadReader::new(&ev.payload);
            let v = r.u64().unwrap_or(0);
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

    fn rt(mode: CancellationMode, chi: u32) -> ObjectRuntime {
        ObjectRuntime::new(
            ObjectId(0),
            Box::new(Acc {
                peer: ObjectId(1),
                state: AccState { sum: 0 },
            }),
            ObjectPolicies::new(
                Box::new(FixedCancellation(mode)),
                Box::new(FixedCheckpoint::new(chi)),
            ),
        )
    }

    fn payload(v: u64) -> Payload {
        let mut w = PayloadWriter::new();
        w.u64(v);
        w.finish()
    }

    fn incoming(sender: u32, serial: u64, rt_: u64, v: u64) -> Event {
        Event::new(
            EventId {
                sender: ObjectId(sender),
                serial,
            },
            ObjectId(0),
            VirtualTime::ZERO,
            VirtualTime::new(rt_),
            1,
            payload(v),
        )
    }

    #[test]
    fn forward_execution_sends_and_checkpoints() {
        let cost = CostModel::uniform_unit();
        let mut r = rt(CancellationMode::Aggressive, 1);
        let mut out = Vec::new();
        r.init(&cost, &mut out);
        assert!(out.is_empty());
        r.deliver(incoming(9, 0, 10, 5), &cost, &mut out);
        assert!(r.process_next(&cost, &mut out));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].recv_time, VirtualTime::new(20));
        assert_eq!(r.lvt(), VirtualTime::new(10));
        assert_eq!(r.stats().executed, 1);
        // χ=1 ⇒ state saved after the event (plus the initial snapshot).
        assert_eq!(r.stats().states_saved, 2);
        assert!(!r.process_next(&cost, &mut out), "queue exhausted");
    }

    #[test]
    fn straggler_rolls_back_and_cancels_aggressively() {
        let cost = CostModel::uniform_unit();
        let mut r = rt(CancellationMode::Aggressive, 1);
        let mut out = Vec::new();
        r.init(&cost, &mut out);
        r.deliver(incoming(9, 0, 10, 5), &cost, &mut out);
        r.deliver(incoming(9, 1, 30, 7), &cost, &mut out);
        while r.process_next(&cost, &mut out) {}
        out.clear();

        // Straggler at t=20 forces both executed events... no: only t=30
        // is after it. The send from t=30 must be cancelled immediately.
        r.deliver(incoming(8, 0, 20, 100), &cost, &mut out);
        assert_eq!(r.stats().straggler_rollbacks, 1);
        assert_eq!(r.stats().rolled_back, 1);
        let antis: Vec<_> = out.iter().filter(|e| e.is_anti()).collect();
        assert_eq!(antis.len(), 1);
        assert_eq!(antis[0].recv_time, VirtualTime::new(40));
        out.clear();

        // Re-execution: straggler then the re-done event; sums now differ.
        while r.process_next(&cost, &mut out) {}
        let sends: Vec<_> = out.iter().filter(|e| !e.is_anti()).collect();
        assert_eq!(sends.len(), 2);
        // 5 + 100 = 105 at t=20, then +7 = 112 at t=30.
        let v_at_40 = sends
            .iter()
            .find(|e| e.recv_time == VirtualTime::new(40))
            .unwrap();
        let mut rd = PayloadReader::new(&v_at_40.payload);
        assert_eq!(rd.u64().unwrap(), 112);
    }

    #[test]
    fn lazy_hit_suppresses_resend() {
        let cost = CostModel::uniform_unit();
        let mut r = rt(CancellationMode::Lazy, 1);
        let mut out = Vec::new();
        r.init(&cost, &mut out);
        // Event at t=30 sends sum=7. A straggler at t=20 with value 0
        // does not change the t=30 output (kind 0 ⇒ no send, sum += 0).
        r.deliver(incoming(9, 1, 30, 7), &cost, &mut out);
        while r.process_next(&cost, &mut out) {}
        out.clear();

        let mut straggler = incoming(8, 0, 20, 0);
        straggler.kind = 0; // no send, and adds 0 to the sum
        straggler.payload = payload(0);
        straggler.content_tag = Event::tag_for(straggler.kind, &straggler.payload);
        r.deliver(straggler, &cost, &mut out);
        assert!(out.is_empty(), "lazy: no anti-message on rollback");
        while r.process_next(&cost, &mut out) {}
        // Regenerated message matched the held-back one: nothing on the
        // wire at all, and a lazy hit recorded.
        assert!(
            out.is_empty(),
            "hit: original message stands, nothing sent, got {out:?}"
        );
        assert_eq!(r.stats().lazy_hits, 1);
        assert_eq!(r.stats().lazy_misses, 0);
        assert_eq!(r.stats().anti_sent, 0);
    }

    #[test]
    fn lazy_miss_cancels_late() {
        let cost = CostModel::uniform_unit();
        let mut r = rt(CancellationMode::Lazy, 1);
        let mut out = Vec::new();
        r.init(&cost, &mut out);
        r.deliver(incoming(9, 1, 30, 7), &cost, &mut out);
        while r.process_next(&cost, &mut out) {}
        out.clear();

        // Straggler *changes* the sum, so the regenerated message differs:
        // the old one must be cancelled (miss) and the new one sent.
        r.deliver(incoming(8, 0, 20, 100), &cost, &mut out);
        assert!(out.is_empty());
        while r.process_next(&cost, &mut out) {}
        // The object is idle; the executive decides the fate of leftovers.
        r.flush_all_pending(&cost, &mut out);
        let antis = out.iter().filter(|e| e.is_anti()).count();
        let pos = out.iter().filter(|e| !e.is_anti()).count();
        assert_eq!(antis, 1, "the stale t=40 message is cancelled");
        assert_eq!(pos, 2, "both re-executed events send fresh messages");
        assert_eq!(r.stats().lazy_misses, 1);
        assert_eq!(r.stats().lazy_hits, 0);
    }

    #[test]
    fn lazy_pending_flushes_when_object_goes_idle() {
        let cost = CostModel::uniform_unit();
        let mut r = rt(CancellationMode::Lazy, 1);
        let mut out = Vec::new();
        r.init(&cost, &mut out);
        r.deliver(incoming(9, 1, 30, 7), &cost, &mut out);
        while r.process_next(&cost, &mut out) {}
        out.clear();
        // Anti-message annihilates the event; its send is left pending and
        // nothing remains to regenerate it.
        r.deliver(incoming(9, 1, 30, 7).to_anti(), &cost, &mut out);
        assert_eq!(r.stats().anti_rollbacks, 1);
        assert!(out.is_empty());
        assert!(
            r.gvt_contribution() <= VirtualTime::new(40),
            "pending anti bounds GVT"
        );
        r.flush_all_pending(&cost, &mut out);
        assert_eq!(out.iter().filter(|e| e.is_anti()).count(), 1);
        assert_eq!(r.gvt_contribution(), VirtualTime::INFINITY);
    }

    #[test]
    fn coast_forward_restores_exact_state() {
        let cost = CostModel::uniform_unit();
        // χ=4: the state at t=10/t=30 is *not* saved, forcing a coast.
        let mut r = rt(CancellationMode::Aggressive, 4);
        let mut out = Vec::new();
        r.init(&cost, &mut out);
        for (s, t, v) in [(0u64, 10u64, 5u64), (1, 30, 7), (2, 50, 11)] {
            r.deliver(incoming(9, s, t, v), &cost, &mut out);
        }
        while r.process_next(&cost, &mut out) {}
        out.clear();
        // Straggler at t=40: rollback to initial state, coast through
        // t=10 and t=30, then execute t=40 and redo t=50.
        r.deliver(incoming(8, 0, 40, 1000), &cost, &mut out);
        assert_eq!(r.stats().coasted, 2);
        while r.process_next(&cost, &mut out) {}
        let last = out
            .iter()
            .rfind(|e| !e.is_anti() && e.recv_time == VirtualTime::new(60))
            .unwrap();
        let mut rd = PayloadReader::new(&last.payload);
        // 5 + 7 + 1000 + 11: coast preserved the earlier additions.
        assert_eq!(rd.u64().unwrap(), 1023);
    }

    #[test]
    fn fossil_collection_trims_histories_and_preserves_recovery() {
        let cost = CostModel::uniform_unit();
        let mut r = rt(CancellationMode::Aggressive, 2);
        let mut out = Vec::new();
        r.init(&cost, &mut out);
        for s in 0..10u64 {
            r.deliver(incoming(9, s, 10 * (s + 1), 1), &cost, &mut out);
        }
        while r.process_next(&cost, &mut out) {}
        let before = r.history_sizes();
        r.fossil_collect(VirtualTime::new(60));
        let after = r.history_sizes();
        assert!(after.0 < before.0 && after.1 < before.1 && after.2 < before.2);
        assert!(r.stats().fossils_collected > 0);
        out.clear();
        // A straggler just above GVT must still be recoverable.
        r.deliver(incoming(8, 0, 61, 50), &cost, &mut out);
        while r.process_next(&cost, &mut out) {}
        assert!(r.stats().straggler_rollbacks == 1);
    }

    /// The recovery map of `rt`'s object 0: everyone else — its peer,
    /// object 1, and the test senders 8 and 9 — lives on another LP.
    fn remote_peer() -> Arc<[bool]> {
        (0..10).map(|i| i != 0).collect()
    }

    /// Object 0's image of `h`, decoded.
    fn image_of(r: &ObjectRuntime, h: VirtualTime) -> ObjectImage {
        let mut w = PayloadWriter::new();
        r.checkpoint(h, &[], &mut w);
        let bytes = w.finish();
        let mut rd = PayloadReader::new(&bytes);
        let img = ObjectImage::decode(&mut rd, ObjectId(0), h, r.state()).unwrap();
        assert_eq!(rd.remaining(), 0);
        img
    }

    #[test]
    fn an_image_carries_a_restore_past_fossil_collection() {
        let cost = CostModel::uniform_unit();
        let vt = VirtualTime::new;
        let mut r = rt(CancellationMode::Aggressive, 2);
        r.set_collect_traces(true);
        let mut out = Vec::new();
        r.init(&cost, &mut out);
        r.arm_recovery(remote_peer());
        for s in 0..10u64 {
            r.deliver(incoming(9, s, 10 * (s + 1), 1), &cost, &mut out);
        }
        while r.process_next(&cost, &mut out) {}
        out.clear();
        let mut want = crate::trace::TraceDigest::new();
        for s in 0..5u64 {
            want.update(&incoming(9, s, 10 * (s + 1), 1));
        }

        // The image of 60, taken before its fossil pass: the snapshot
        // after t=40 (χ = 2), the inputs t=40 and t=50 it coasts through,
        // and the send from t=50 that lands on 60.
        let img = image_of(&r, vt(60));
        assert_eq!(img.pos.map(|k| k.recv_time), Some(vt(40)));
        let times: Vec<u64> = img.inputs.iter().map(|e| e.recv_time.ticks()).collect();
        assert_eq!(times, vec![40, 50]);
        assert_eq!(img.frontier.len(), 1);
        assert_eq!(img.frontier[0].recv_time, vt(60));
        assert_eq!(img.committed, 5);
        r.fossil_collect(vt(60));
        r.fossil_collect(vt(95));
        assert!(r.history_sizes().0 < 10);

        // A fresh object restored from it: committed t=10..=50, sum 5,
        // the frontier handed back, the digest whole.
        let mut fresh = rt(CancellationMode::Aggressive, 2);
        fresh.set_collect_traces(true);
        fresh.arm_recovery(remote_peer());
        let frontier = fresh.restore(img, &cost);
        assert_eq!(frontier.len(), 1);
        assert_eq!(frontier[0].recv_time, vt(60));
        assert_eq!(PayloadReader::new(&frontier[0].payload).u64().unwrap(), 5);
        assert_eq!(fresh.lvt(), vt(50));
        assert_eq!(fresh.stats().net_executed(), 5);
        assert_eq!(fresh.trace_digest(), want, "the image carries the digest");
        fresh.deliver(incoming(8, 0, 65, 100), &cost, &mut out);
        while fresh.process_next(&cost, &mut out) {}
        let send = out.iter().find(|e| e.recv_time == vt(75)).unwrap();
        assert_eq!(PayloadReader::new(&send.payload).u64().unwrap(), 105);
        // It never reuses a serial the original used.
        assert!(send.id.serial >= r.serial_next);
    }

    #[test]
    fn an_image_of_zero_is_the_post_init_state() {
        let cost = CostModel::uniform_unit();
        let mut r = rt(CancellationMode::Aggressive, 1);
        let mut out = Vec::new();
        r.init(&cost, &mut out);
        r.arm_recovery(remote_peer());
        for (s, t, v) in [(0u64, 10u64, 5u64), (1, 30, 7)] {
            r.deliver(incoming(9, s, t, v), &cost, &mut out);
        }
        while r.process_next(&cost, &mut out) {}
        let img = image_of(&r, VirtualTime::ZERO);
        assert_eq!((img.pos, img.inputs.len(), img.committed), (None, 0, 0));
        let mut fresh = rt(CancellationMode::Aggressive, 1);
        fresh.arm_recovery(remote_peer());
        assert!(fresh.restore(img, &cost).is_empty(), "init sent nothing");
        assert_eq!(fresh.lvt(), VirtualTime::ZERO);
        assert!(fresh.committed_history().is_empty());
    }

    #[test]
    fn collected_traces_survive_fossil_collection() {
        let cost = CostModel::uniform_unit();
        let mut kept = rt(CancellationMode::Aggressive, 3);
        let mut collected = rt(CancellationMode::Aggressive, 3);
        collected.set_collect_traces(true);
        let mut out = Vec::new();
        for r in [&mut kept, &mut collected] {
            r.init(&cost, &mut out);
            for s in 0..12u64 {
                r.deliver(incoming(9, s, 10 * (s + 1), s), &cost, &mut out);
                r.process_next(&cost, &mut out);
            }
        }
        collected.fossil_collect(VirtualTime::new(70));
        collected.fossil_collect(VirtualTime::new(200));
        assert!(collected.history_sizes().0 < kept.history_sizes().0);
        assert_eq!(collected.trace_digest(), kept.trace_digest());
    }

    /// Scripted tuner: χ follows a fixed schedule, one step per invoke.
    struct ScriptedTuner {
        schedule: Vec<u32>,
        calls: usize,
        chi: u32,
    }
    impl crate::policy::CheckpointTuner for ScriptedTuner {
        fn interval(&self) -> u32 {
            self.chi
        }
        fn invoke(&mut self, _save: f64, _coast: f64) -> Option<u32> {
            if self.calls < self.schedule.len() {
                self.chi = self.schedule[self.calls];
            }
            self.calls += 1;
            Some(self.chi)
        }
        fn period(&self) -> u64 {
            2
        }
        fn name(&self) -> &'static str {
            "scripted"
        }
    }

    /// Scripted selector: flips mode on every invocation.
    struct FlipSelector {
        mode: CancellationMode,
    }
    impl crate::policy::CancellationSelector for FlipSelector {
        fn mode(&self) -> CancellationMode {
            self.mode
        }
        fn invoke(&mut self) -> Option<CancellationMode> {
            self.mode = match self.mode {
                CancellationMode::Aggressive => CancellationMode::Lazy,
                CancellationMode::Lazy => CancellationMode::Aggressive,
            };
            Some(self.mode)
        }
        fn period(&self) -> u64 {
            3
        }
        fn sampled_output(&self) -> Option<f64> {
            Some(0.25)
        }
        fn name(&self) -> &'static str {
            "flip"
        }
    }

    fn scripted_rt(record: bool) -> ObjectRuntime {
        let mut r = ObjectRuntime::new(
            ObjectId(0),
            Box::new(Acc {
                peer: ObjectId(1),
                state: AccState { sum: 0 },
            }),
            ObjectPolicies::new(
                Box::new(FlipSelector {
                    mode: CancellationMode::Aggressive,
                }),
                Box::new(ScriptedTuner {
                    schedule: vec![2, 2, 5],
                    calls: 0,
                    chi: 1,
                }),
            ),
        );
        r.set_record_control(record);
        r
    }

    #[test]
    fn control_log_captures_every_ckpt_invoke_and_only_mode_flips() {
        let cost = CostModel::uniform_unit();
        let mut r = scripted_rt(true);
        let mut out = Vec::new();
        r.init(&cost, &mut out);
        for s in 0..6u64 {
            r.deliver(incoming(9, s, 10 * (s + 1), 1), &cost, &mut out);
        }
        while r.process_next(&cost, &mut out) {}
        let log = r.take_control_log();
        // 6 events: ckpt tuner (period 2) invoked at events 2/4/6 — all
        // three recorded, including the 2→2 hold; selector (period 3)
        // invoked at events 3/6, flipping both times.
        let ckpts: Vec<(u32, u32)> = log
            .iter()
            .filter_map(|t| match t.change {
                ControlChange::Checkpoint { old, new, .. } => Some((old, new)),
                _ => None,
            })
            .collect();
        assert_eq!(ckpts, vec![(1, 2), (2, 2), (2, 5)]);
        let flips: Vec<(CancellationMode, CancellationMode, f64)> = log
            .iter()
            .filter_map(|t| match t.change {
                ControlChange::Cancellation {
                    old,
                    new,
                    sampled_o,
                } => Some((old, new, sampled_o)),
                _ => None,
            })
            .collect();
        assert_eq!(flips.len(), 2);
        assert_eq!(
            flips[0].0,
            CancellationMode::Aggressive,
            "first flip leaves the initial mode"
        );
        assert_eq!(flips[0].1, CancellationMode::Lazy);
        assert_eq!(flips[0].2, 0.25, "sampled output rides along");
        // Drained: a second take is empty.
        assert!(r.take_control_log().is_empty());
    }

    #[test]
    fn recording_is_off_by_default_and_charges_nothing() {
        let cost = CostModel::uniform_unit();
        let mut silent = scripted_rt(false);
        let mut loud = scripted_rt(true);
        let mut out = Vec::new();
        for r in [&mut silent, &mut loud] {
            r.init(&cost, &mut out);
            for s in 0..6u64 {
                r.deliver(incoming(9, s, 10 * (s + 1), 1), &cost, &mut out);
            }
            while r.process_next(&cost, &mut out) {}
        }
        assert!(silent.take_control_log().is_empty());
        assert!(!loud.take_control_log().is_empty());
        // Observation never perturbs the simulation: identical charges.
        assert_eq!(silent.take_cost(), loud.take_cost());
        assert_eq!(silent.stats(), loud.stats());
    }

    #[test]
    fn recording_context_is_usable_for_models() {
        // Sanity-check the test double exported for model unit tests.
        let mut acc = Acc {
            peer: ObjectId(3),
            state: AccState { sum: 0 },
        };
        let mut ctx = RecordingContext::new(ObjectId(0), VirtualTime::new(5));
        let ev = incoming(9, 0, 5, 2);
        acc.execute(&mut ctx, &ev);
        assert_eq!(acc.state.sum, 2);
        assert_eq!(ctx.sent.len(), 1);
    }
}
