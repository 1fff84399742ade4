//! The host calibration: a fixed piece of work timed between reps.
//!
//! The hosts this benchmark runs on are shared: their CPU clock steps
//! between speed states and their last-level cache and memory are used by
//! other tenants, on a time scale of seconds to minutes — longer than a
//! rep, shorter than a run. Every rep is therefore bracketed by two
//! calibrations, and every host time is reported scaled to a host on
//! which a calibration pass takes [`NOMINAL_S`].
//!
//! A calibration runs in a process of its own, not in the rep's: its
//! 16 MiB table would otherwise count in the rep's peak resident set, and
//! freeing it would raise the allocator's mmap threshold under the run
//! being measured.

use std::time::Instant;

/// Rounds of a pass's compute half.
const ROUNDS: u64 = 3_000_000;
/// Loads of a pass's memory half.
const LOADS: u32 = 60_000;
/// Entries of the table the loads walk: 16 MiB, well beyond a core's own
/// caches, so each load is answered by the cache the host's tenants share.
const TABLE: usize = 1 << 22;
/// Passes of one calibration; the fastest counts. A fresh process starts
/// on a cold core: measured, the first pass takes 1.4 times the third.
const PASSES: usize = 4;
/// What a pass takes on the host all times are scaled to.
pub const NOMINAL_S: f64 = 0.010;

/// One pass, in seconds: about half compute and half memory latency — a
/// dependent xorshift chain, then a chain of dependent loads scattered
/// over the table.
fn pass(table: &[u32]) -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut sum: u64 = 0;
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(x);
    }
    let mut at = 0usize;
    for _ in 0..LOADS {
        at = table[at] as usize;
    }
    std::hint::black_box((sum, at));
    start.elapsed().as_secs_f64()
}

/// Next index of the walk: a full-period LCG over the table's indices
/// (multiplier ≡ 1 mod 4, odd increment, power-of-two modulus), so that
/// following it from any entry visits all of them, in an order no
/// prefetcher guesses.
fn next(at: usize) -> usize {
    (at * 1_664_525 + 1_013_904_223) & (TABLE - 1)
}

/// The seconds the fastest of [`PASSES`] passes took.
pub fn calibration_s() -> f64 {
    let table: Vec<u32> = (0..TABLE).map(|at| next(at) as u32).collect();
    (0..PASSES)
        .map(|_| pass(&table))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_visits_every_entry() {
        let mut seen = vec![false; TABLE];
        let mut at = 0usize;
        for _ in 0..TABLE {
            assert!(!seen[at]);
            seen[at] = true;
            at = next(at);
        }
        assert_eq!(at, 0, "one cycle through all entries");
    }

    #[test]
    fn a_calibration_takes_time() {
        let s = calibration_s();
        assert!(s > 0.0 && s.is_finite());
    }
}
