//! The allocation budget of the kernel's event path
//! (`docs/hot-path.md`): none. Executing an event, saving its state,
//! sending a message and rolling back all reuse storage that reached its
//! working size in a warm-up — payloads of up to 30 bytes live inside
//! their events, snapshots are overwritten in place, cancelled sends pass
//! through a reused buffer. The count is taken by a counting global
//! allocator on the test's own thread, so it repeats exactly and does not
//! depend on timing.
//!
//! One `#[test]` only: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use warped_online::core::queues::StateQueue;
use warped_online::core::wire::PayloadWriter;
use warped_online::core::{
    ErasedState, Event, EventId, EventKey, LpId, LpRuntime, ObjectId, VirtualTime,
};
use warped_online::models::phold::K_JOB;
use warped_online::models::{PholdConfig, SmmpConfig};

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

/// Allocations this thread makes while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A round with one straggler for object 0: half a round of events, a
/// straggler from outside the model half way between where object 0
/// stood at the last fossil pass and where it stands now, the other half,
/// and the fossil pass. `batch` is the delivery's (preallocated) vector.
fn round_with_straggler(lp: &mut LpRuntime, serial: u64, mut batch: Vec<Event>) {
    let from = lp.objects()[0].lvt().ticks();
    let mut remote = Vec::new();
    for _ in 0..ROUND / 2 {
        assert!(lp.process_one(&mut remote), "PHOLD ran dry");
    }
    let to = lp.objects()[0].lvt().ticks();
    assert!(to > from + 2, "object 0 did not advance");
    // TTL 0: the straggler executes and sends nothing.
    let mut w = PayloadWriter::new();
    w.u32(0);
    batch.push(Event::new(
        EventId {
            sender: ObjectId(u32::MAX),
            serial,
        },
        ObjectId(0),
        VirtualTime::ZERO,
        VirtualTime::from_ticks(from + (to - from) / 2),
        K_JOB,
        w.finish(),
    ));
    lp.deliver(batch, &mut remote);
    for _ in 0..ROUND / 2 {
        assert!(lp.process_one(&mut remote), "PHOLD ran dry");
    }
    lp.fossil_collect(lp.gvt_contribution());
    assert!(remote.is_empty());
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
fn an_executed_event_or_rollback_allocates_nothing() {
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
    let mut batches: Vec<Vec<Event>> = (0..WARM_UP_ROUNDS + MEASURED_ROUNDS)
        .map(|_| Vec::with_capacity(1))
        .collect();
    for serial in 0..WARM_UP_ROUNDS {
        round_with_straggler(&mut lp, serial, batches.pop().expect("a batch per round"));
    }
    let before = lp.stats();
    let allocs = allocations(|| {
        for serial in WARM_UP_ROUNDS..WARM_UP_ROUNDS + MEASURED_ROUNDS {
            round_with_straggler(&mut lp, serial, batches.pop().expect("a batch per round"));
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
}
