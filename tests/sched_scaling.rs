//! Scaling guard for the LP scheduler (`docs/hot-path.md` §5): the cost
//! of one `LpRuntime::process_one` must not grow with the number of
//! objects the LP hosts beyond what the larger working set costs in
//! cache misses.
//!
//! The loop is the one `kernel_micro`'s `per_event/process_one_*obj`
//! rows time: one LP, all-local PHOLD, 16 jobs pending per object,
//! default policies, a fossil pass every 256 events. From 8 to 4096
//! objects per LP the schedule index reads ≈12× (cache footprint), the
//! linear scan it replaced ≈240× — the 40× threshold is far from both.
//!
//! Timing, so `#[ignore]`d and release-only (a debug build cross-checks
//! every choice against a linear scan, which is the very cost this
//! guards against):
//!
//! ```text
//! cargo test --release --test sched_scaling -- --ignored
//! ```

use std::time::Instant;
use warped_online::core::{LpId, LpRuntime};
use warped_online::models::PholdConfig;

/// Events per fossil pass, as an executive would pace them.
const ROUND: usize = 256;

fn phold_lp(n_objects: usize) -> LpRuntime {
    let spec = PholdConfig {
        n_objects,
        n_lps: 1,
        population_per_object: 16,
        ttl: u32::MAX - 1,
        mean_delay: 500.0,
        locality: 1.0,
        seed: 7,
    }
    .spec();
    let mut lp = spec.build_lp(LpId(0));
    lp.init(&mut Vec::new());
    lp
}

fn drive(lp: &mut LpRuntime, events: usize) {
    let mut remote = Vec::new();
    for i in 0..events {
        assert!(lp.process_one(&mut remote), "PHOLD ran dry");
        if i % ROUND == ROUND - 1 {
            lp.fossil_collect(lp.gvt_contribution());
        }
    }
}

/// Steady-state nanoseconds per `process_one` with `n_objects` on the
/// LP: the best of several batches, so a descheduled batch does not
/// count.
fn ns_per_event(n_objects: usize) -> f64 {
    const BATCH: usize = 16 * ROUND;
    let mut lp = phold_lp(n_objects);
    // Every object has executed a few events and every reused buffer has
    // reached its working capacity.
    drive(&mut lp, 4 * n_objects.max(BATCH));
    (0..8)
        .map(|_| {
            let start = Instant::now();
            drive(&mut lp, BATCH);
            start.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "timing: cargo test --release --test sched_scaling -- --ignored"]
fn process_one_does_not_scale_with_objects_per_lp() {
    if cfg!(debug_assertions) {
        panic!("run with --release: a debug build checks every choice by linear scan");
    }
    let few = ns_per_event(8);
    let many = ns_per_event(4096);
    println!(
        "process_one: {few:.0} ns at 8 objects/LP, {many:.0} ns at 4096 ({:.1}x)",
        many / few
    );
    assert!(
        many <= 40.0 * few,
        "process_one costs {many:.0} ns at 4096 objects/LP against {few:.0} ns at 8 \
         ({:.0}x, limit 40x): something on the per-event path walks the objects again",
        many / few
    );
}
