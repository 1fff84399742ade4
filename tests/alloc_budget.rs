//! The allocation budget of the kernel's event path
//! (`docs/hot-path.md`): none. Executing an event, saving its state,
//! sending a message, rolling back and carrying a lone event to another
//! LP all reuse storage that reached its working size in a warm-up —
//! payloads of up to 30 bytes live inside their events, a physical
//! message holds its lone event in place, snapshots are overwritten in
//! place, cancelled sends pass through a reused buffer. The count is
//! taken by a counting global allocator on the test's own thread, so it
//! repeats exactly and does not depend on timing.
//!
//! One `#[test]` only: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use warped_online::core::queues::StateQueue;
use warped_online::core::wire::PayloadWriter;
use warped_online::core::{
    ErasedState, Event, EventId, EventKey, LpId, LpRuntime, ObjectId, Partition, VirtualTime,
};
use warped_online::models::phold::K_JOB;
use warped_online::models::{PholdConfig, SmmpConfig};
use warped_online::net::{AggregationConfig, Aggregator, Frame, FrameDecoder, PhysMsg};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Events between fossil collections, as an executive would pace them.
const ROUND: usize = 256;

/// Execute `events` events on `lp`, collecting fossils every [`ROUND`].
fn drive(lp: &mut LpRuntime, events: usize) {
    let mut remote = Vec::new();
    for i in 0..events {
        assert!(lp.process_one(&mut remote), "PHOLD ran dry");
        if i % ROUND == ROUND - 1 {
            lp.fossil_collect(lp.gvt_contribution());
        }
    }
    assert!(
        remote.is_empty(),
        "locality 1.0 on one LP sends nothing out"
    );
}

/// Allocations this thread has made so far.
fn allocated() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = allocated();
    f();
    allocated() - before
}

/// A round with one straggler for object 0: half a round of events, a
/// straggler from outside the model half way between where object 0
/// stood at the last fossil pass and where it stands now, the other half,
/// and the fossil pass.
fn round_with_straggler(lp: &mut LpRuntime, serial: u64) {
    let from = lp.objects()[0].lvt().ticks();
    let mut remote = Vec::new();
    for _ in 0..ROUND / 2 {
        assert!(lp.process_one(&mut remote), "PHOLD ran dry");
    }
    let to = lp.objects()[0].lvt().ticks();
    assert!(to > from + 2, "object 0 did not advance");
    let straggler = job(serial, from + (to - from) / 2);
    lp.deliver([straggler], &mut remote);
    for _ in 0..ROUND / 2 {
        assert!(lp.process_one(&mut remote), "PHOLD ran dry");
    }
    lp.fossil_collect(lp.gvt_contribution());
    assert!(remote.is_empty());
}

/// Events an LP of [`Pair`] executes per turn.
const TURN: usize = 16;

/// Two LPs that trade PHOLD jobs, driven in alternating turns on this
/// thread the way an executive drives them: every remote send goes
/// through the sender's [`Aggregator`] into the peer's inbox, and the
/// peer `deliver`s each physical message at its next turn. GVT is exact
/// (both LPs, both aggregators, the inboxes) and collects fossils every
/// [`ROUND`] turns. The turn order lets one LP run ahead of the other,
/// so the pair rolls back, and cancels what it sent.
///
/// `message_allocs` counts what the message path allocates: offers,
/// flushes, inbox posts and deliveries with the rollbacks and
/// cancellations they cause. Executions and fossil passes are left out:
/// under a GVT that advances by uneven steps a pass can drop snapshot
/// spares the next round needs (the spare pool is per state queue).
struct Pair {
    lps: [LpRuntime; 2],
    aggs: [Aggregator; 2],
    inbox: [Vec<PhysMsg>; 2],
    partition: std::sync::Arc<Partition>,
    remote: Vec<Event>,
    due: Vec<PhysMsg>,
    turns: u64,
    message_allocs: u64,
}

impl Pair {
    fn new(cfg: &PholdConfig) -> Pair {
        let spec = cfg.spec();
        assert!(
            matches!(spec.aggregation, AggregationConfig::Unaggregated),
            "the benchmark's workloads ship every event on its own"
        );
        let mut pair = Pair {
            lps: [LpId(0), LpId(1)].map(|id| spec.build_lp(id)),
            aggs: [LpId(0), LpId(1)].map(|id| Aggregator::new(id, spec.aggregation.clone())),
            inbox: [Vec::new(), Vec::new()],
            partition: spec.partition.clone(),
            remote: Vec::new(),
            due: Vec::new(),
            turns: 0,
            message_allocs: 0,
        };
        for i in 0..2 {
            pair.lps[i].init(&mut pair.remote);
            pair.ship(i);
        }
        pair
    }

    /// Offer LP `i`'s remote sends and post what falls due.
    fn ship(&mut self, i: usize) {
        let before = allocated();
        let now = self.turns as f64 * 1e-6;
        for ev in self.remote.drain(..) {
            let dst = self.partition.lp_of(ev.dst);
            self.aggs[i].offer(dst, ev, now, &mut self.due);
        }
        self.aggs[i].poll(now, &mut self.due);
        for msg in self.due.drain(..) {
            self.inbox[msg.dst.index()].push(msg);
        }
        self.message_allocs += allocated() - before;
    }

    /// LP `i`'s turn: its inbox, then up to [`TURN`] events, each
    /// followed by what it sent.
    fn turn(&mut self, i: usize) {
        let mut inbox = std::mem::take(&mut self.inbox[i]);
        for msg in inbox.drain(..) {
            let before = allocated();
            self.aggs[i].note_received(&msg, self.lps[i].cost_model());
            self.lps[i].deliver(msg.events, &mut self.remote);
            self.message_allocs += allocated() - before;
            self.ship(i);
        }
        self.inbox[i] = inbox;
        for _ in 0..TURN {
            assert!(self.lps[i].process_one(&mut self.remote), "PHOLD ran dry");
            self.ship(i);
        }
    }

    fn gvt(&self) -> VirtualTime {
        let in_flight = self.inbox.iter().flatten().map(PhysMsg::min_recv_time);
        let buffered = self.aggs.iter().map(Aggregator::buffered_min_time);
        self.lps
            .iter()
            .map(LpRuntime::gvt_contribution)
            .chain(buffered)
            .chain(in_flight)
            .fold(VirtualTime::INFINITY, VirtualTime::min)
    }

    fn run(&mut self, turns: u64) {
        for _ in 0..turns {
            self.turn(0);
            self.turn(1);
            self.turns += 1;
            if self.turns.is_multiple_of(ROUND as u64) {
                let gvt = self.gvt();
                for lp in &mut self.lps {
                    lp.fossil_collect(gvt);
                }
            }
        }
    }
}

/// `cycles` one-event `Frame::Data` round trips of `msg`: encoded into
/// the reused `wire`, decoded back by `decoder`.
fn frame_round_trips(
    mut msg: PhysMsg,
    wire: &mut Vec<u8>,
    decoder: &mut FrameDecoder,
    cycles: u64,
) -> PhysMsg {
    for seq in 0..cycles {
        wire.clear();
        Frame::Data { seq, epoch: 1, msg }.encode_into(wire);
        decoder.push(wire);
        match decoder.next() {
            Ok(Some(Frame::Data { seq: s, msg: m, .. })) if s == seq => msg = m,
            other => panic!("a Data frame did not survive its round trip: {other:?}"),
        }
    }
    msg
}

/// FAW: `rounds` of `n` events to each of two destinations, shipped by
/// the poll at the window's end. Returns the physical messages sent.
fn faw_rounds(agg: &mut Aggregator, out: &mut Vec<PhysMsg>, n: u64, rounds: u64) -> u64 {
    let before = agg.stats().phys_sent;
    for r in 0..rounds {
        let t = r as f64 * 2e-3;
        for s in 0..n {
            for dst in [LpId(1), LpId(2)] {
                agg.offer(dst, job(s, 10 + s), t, out);
            }
        }
        assert!(out.is_empty(), "the window is still open");
        agg.poll(t + 1e-3, out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|m| m.events.len() == n as usize));
        out.clear();
    }
    agg.stats().phys_sent - before
}

/// A PHOLD job for object 0 from outside the model, due at tick `at`.
/// TTL 0: it executes and sends nothing.
fn job(serial: u64, at: u64) -> Event {
    let mut w = PayloadWriter::new();
    w.u32(0);
    Event::new(
        EventId {
            sender: ObjectId(u32::MAX),
            serial,
        },
        ObjectId(0),
        VirtualTime::ZERO,
        VirtualTime::from_ticks(at),
        K_JOB,
        w.finish(),
    )
}

/// `cycles` saves and restores of an SMMP cache state (≈8 KB of line
/// tags in a `Vec`) as the kernel makes them: the save copies the live
/// state into a snapshot the queue discarded, the restore copies the
/// snapshot back, and the truncation discards it again.
fn smmp_cache_saves_and_restores(q: &mut StateQueue, live: &mut ErasedState, cycles: u64) {
    let key = |t: u64| EventKey {
        recv_time: VirtualTime::new(t),
        sender: ObjectId(0),
        content_tag: 0,
        serial: t,
    };
    for t in 1..=cycles {
        q.save(Some(key(t)), &**live);
        let (_, snapshot) = q.restore_before(key(t + 1)).expect("just saved");
        live.assign_from(&**snapshot);
        q.truncate_from(key(t));
    }
}

#[test]
fn an_executed_event_rollback_or_remote_message_allocates_nothing() {
    // Two objects on one LP, every hop local, a run far longer than the
    // test: the steady state of `phold-dense` in miniature.
    let cfg = PholdConfig {
        n_objects: 2,
        n_lps: 1,
        population_per_object: 256,
        ttl: u32::MAX - 1,
        mean_delay: 500.0,
        locality: 1.0,
        seed: 7,
    };
    let mut lp = cfg.spec().build_lp(LpId(0));
    lp.init(&mut Vec::new());

    // Executed events. The default policies checkpoint every event
    // (χ = 1) and cancel aggressively; each event sends one 4-byte
    // payload, which its output record copies, and saves a snapshot.
    // Any allocation is overhead: a payload or snapshot off the heap, a
    // per-call scratch buffer, a diagnostic formatted for nobody (debug
    // builds compile the object trace in; with `WARP_TRACE_OBJECT` unset
    // it must stay silent and free), pending-set regrowth.
    const WARM_UP: usize = 64 * ROUND;
    const MEASURED: usize = 16 * ROUND;
    drive(&mut lp, WARM_UP);
    let allocs = allocations(|| drive(&mut lp, MEASURED));
    assert_eq!(lp.stats().executed, (WARM_UP + MEASURED) as u64);
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {MEASURED} executed events"
    );

    // Rollbacks: a straggler per round for object 0. Each undoes about a
    // quarter round of its events and cancels their sends, whose
    // anti-messages roll back object 1 in turn; the restored snapshots
    // are copied back in place, the cancelled sends pass through a
    // reused buffer, the discarded snapshots are saved over again.
    const WARM_UP_ROUNDS: u64 = 64;
    const MEASURED_ROUNDS: u64 = 16;
    for serial in 0..WARM_UP_ROUNDS {
        round_with_straggler(&mut lp, serial);
    }
    let before = lp.stats();
    let allocs = allocations(|| {
        for serial in WARM_UP_ROUNDS..WARM_UP_ROUNDS + MEASURED_ROUNDS {
            round_with_straggler(&mut lp, serial);
        }
    });
    let after = lp.stats();
    let rollbacks = after.straggler_rollbacks + after.anti_rollbacks
        - before.straggler_rollbacks
        - before.anti_rollbacks;
    assert!(
        after.straggler_rollbacks - before.straggler_rollbacks == MEASURED_ROUNDS
            && after.rolled_back - before.rolled_back >= 4 * MEASURED_ROUNDS,
        "the stragglers did not roll object 0 back: {before:?} -> {after:?}"
    );
    assert_eq!(allocs, 0, "{allocs} allocations over {rollbacks} rollbacks");

    // A state that owns heap storage: SMMP's cache. Its `clone_from`
    // reuses the tag vector; the derived one would allocate per save and
    // per restore.
    let smmp = SmmpConfig::paper(10, 7);
    let cache = smmp.cache_id(0);
    let lp = smmp.spec().build_lp(smmp.partition().lp_of(cache));
    let object = lp.objects().iter().find(|o| o.id() == cache);
    let mut live = ErasedState::copy_of(object.expect("the cache's LP holds it").state());
    assert!(live.bytes() > 4096, "an SMMP cache state is kilobytes");
    let mut q = StateQueue::new();
    q.save(None, &*live);
    smmp_cache_saves_and_restores(&mut q, &mut live, 4);
    const CYCLES: u64 = 64;
    let allocs = allocations(|| smmp_cache_saves_and_restores(&mut q, &mut live, CYCLES));
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {CYCLES} SMMP cache saves and restores"
    );

    // Remote messages. Half of PHOLD's hops cross to the other LP, each
    // its own physical message: the lone event rides in place from the
    // sender's aggregator to the peer's `deliver`, stragglers and
    // anti-messages included.
    let cfg = PholdConfig {
        n_objects: 4,
        n_lps: 2,
        population_per_object: 32,
        ttl: u32::MAX - 1,
        mean_delay: 500.0,
        locality: 0.5,
        seed: 7,
    };
    let mut pair = Pair::new(&cfg);
    const WARM_UP_TURNS: u64 = 64 * ROUND as u64;
    const MEASURED_TURNS: u64 = 16 * ROUND as u64;
    pair.run(WARM_UP_TURNS);
    let before = pair.aggs.each_ref().map(|a| a.stats().clone());
    let rolled_back = pair.lps.each_ref().map(|lp| lp.stats().rolled_back);
    pair.message_allocs = 0;
    let all = allocations(|| pair.run(MEASURED_TURNS));
    let messages: u64 = (0..2)
        .map(|i| pair.aggs[i].stats().phys_received - before[i].phys_received)
        .sum();
    let undone: u64 = (0..2)
        .map(|i| pair.lps[i].stats().rolled_back - rolled_back[i])
        .sum();
    assert!(
        messages > MEASURED_TURNS && undone > 0,
        "the LPs did not trade jobs and roll back: {messages} messages, {undone} rolled back"
    );
    assert_eq!(
        pair.message_allocs, 0,
        "{} allocations over {messages} remote messages ({undone} events rolled back; \
         {all} in the whole run)",
        pair.message_allocs
    );

    // A lone event over the wire: encoded into a reused buffer, decoded
    // in place by the link's decoder.
    let msg = PhysMsg {
        src: LpId(0),
        dst: LpId(1),
        events: [job(0, 10)].into_iter().collect(),
    };
    let mut wire = Vec::new();
    let mut decoder = FrameDecoder::new();
    let msg = frame_round_trips(msg, &mut wire, &mut decoder, 4);
    const TRIPS: u64 = 64;
    let mut back = None;
    let allocs =
        allocations(|| back = Some(frame_round_trips(msg, &mut wire, &mut decoder, TRIPS)));
    assert_eq!(back.map(|m| m.events.to_vec()), Some(vec![job(0, 10)]));
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {TRIPS} one-event frame round trips"
    );

    // Aggregated messages keep one block each, sized to their events;
    // the bucket keeps its own, and a poll allocates nothing else.
    let mut agg = Aggregator::new(LpId(0), AggregationConfig::Faw { window: 1e-3 });
    let mut out = Vec::new();
    faw_rounds(&mut agg, &mut out, 8, 4);
    let mut sent = 0;
    let allocs = allocations(|| sent = faw_rounds(&mut agg, &mut out, 8, 16));
    assert_eq!(sent, 32);
    assert_eq!(
        allocs, sent,
        "{allocs} allocations over {sent} physical messages of 8 events"
    );
}
