//! Which CPUs a thread may run on, and pinning the calling thread to
//! one of them: `sched_getaffinity(2)` and `sched_setaffinity(2)`.
//!
//! The threaded executive gives each LP thread a CPU of its own
//! (`docs/hot-path.md` §9): left to the scheduler, two LP threads can
//! share one core for tens of milliseconds, each running only while
//! the other is parked. std links the C library already, so the
//! declarations below are all it takes. Both calls are Linux's; a mask
//! of 128 bytes covers 1024 CPUs.

use std::ffi::{c_int, c_ulong};
use std::mem::size_of;

/// C's `cpu_set_t`: 1024 bits in native `unsigned long` words.
type CpuMask = [c_ulong; 128 / size_of::<c_ulong>()];

/// Bits in one word of a [`CpuMask`].
const WORD_BITS: usize = c_ulong::BITS as usize;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
}

/// The calling thread's affinity mask, or `None` if the call failed.
fn get_mask() -> Option<CpuMask> {
    let mut mask = CpuMask::default();
    // SAFETY: `mask` is an exclusively borrowed array of exactly
    // `size_of::<CpuMask>()` bytes, which the kernel writes at most. Pid
    // 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// The CPUs the calling thread may run on, in ascending order. Empty if
/// the set could not be read.
pub fn allowed() -> Vec<u32> {
    let Some(mask) = get_mask() else {
        return Vec::new();
    };
    (0..mask.len() * WORD_BITS)
        .filter(|&cpu| mask[cpu / WORD_BITS] >> (cpu % WORD_BITS) & 1 == 1)
        .map(|cpu| cpu as u32)
        .collect()
}

/// Pin the calling thread to `cpu` alone. True only if the call
/// succeeded and the thread's mask, read back, is exactly `{cpu}`; on
/// false the thread is not known to be pinned and runs wherever its
/// mask lets it.
pub fn pin_current(cpu: u32) -> bool {
    let cpu = cpu as usize;
    let mut mask = CpuMask::default();
    let Some(word) = mask.get_mut(cpu / WORD_BITS) else {
        return false;
    };
    *word = 1 << (cpu % WORD_BITS);
    // SAFETY: `mask` is an array of exactly `size_of::<CpuMask>()`
    // bytes, which the kernel only reads. Pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, size_of::<CpuMask>(), mask.as_ptr()) };
    rc == 0 && get_mask() == Some(mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_pins_to_an_allowed_cpu_and_reads_it_back() {
        let set = allowed();
        assert!(!set.is_empty(), "no CPU to run on");
        assert!(set.windows(2).all(|w| w[0] < w[1]), "{set:?}");
        let last = *set.last().unwrap();
        // On a thread of its own, so the test thread keeps its mask.
        let pinned = std::thread::spawn(move || (pin_current(last), allowed()))
            .join()
            .unwrap();
        assert_eq!(pinned, (true, vec![last]));
        assert_eq!(allowed(), set, "the spawning thread was pinned too");
    }

    #[test]
    fn a_cpu_beyond_the_mask_is_refused() {
        assert!(!pin_current(4096));
    }
}
