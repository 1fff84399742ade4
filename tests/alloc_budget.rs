//! The per-event allocation budget of the kernel (`docs/hot-path.md`).
//!
//! Executing one event may allocate what the model and the history
//! queues need — the payload of the event it sends, the output queue's
//! copy of that event, the state snapshot at χ = 1 — and nothing else:
//! no scratch `Vec` per call, no diagnostic string, no pending-set
//! regrowth. The count is taken by a
//! counting global allocator on the test's own thread, after a warm-up
//! that lets every reused buffer reach its working capacity, so it
//! repeats exactly and does not depend on timing.
//!
//! One `#[test]` only: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use warped_online::core::{LpId, LpRuntime};
use warped_online::models::PholdConfig;

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

#[test]
fn an_executed_event_allocates_payload_output_copy_and_snapshot_only() {
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

    const WARM_UP: usize = 64 * ROUND;
    const MEASURED: usize = 16 * ROUND;
    drive(&mut lp, WARM_UP);
    let before = ALLOCS.with(Cell::get);
    drive(&mut lp, MEASURED);
    let allocs = ALLOCS.with(Cell::get) - before;

    // The default policies checkpoint every event (χ = 1) and cancel
    // aggressively, so each event costs exactly: the model's payload
    // `Vec`, the output queue's clone of the sent event, the boxed
    // snapshot. A fourth would be kernel overhead — a per-call scratch
    // buffer, or a diagnostic formatted for nobody (debug builds compile
    // the object trace in; with `WARP_TRACE_OBJECT` unset it must stay
    // silent and free). The pending heap is one `Vec` that reached its
    // working capacity in the warm-up.
    assert_eq!(lp.stats().executed, (WARM_UP + MEASURED) as u64);
    let ceiling = (3 * MEASURED) as u64;
    assert!(
        allocs <= ceiling,
        "{allocs} allocations over {MEASURED} events: the budget is 3 per event ({ceiling})"
    );
}
