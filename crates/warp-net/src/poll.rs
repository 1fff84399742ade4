//! One sleep over several file descriptors: `ppoll(2)`, and the
//! `eventfd(2)` a lane doorbell rings.
//!
//! A parked LP waits for whichever comes first: a packet on its lanes
//! (the lane doorbell, [`crate::spsc`]) or bytes on one of the peer
//! links its worker pumps ([`crate::tcp`]). Both are file descriptors,
//! so one `ppoll` covers them, with a nanosecond timeout (the LP loop
//! parks for 200 µs; `poll(2)` counts milliseconds). std links the C
//! library already, so the declarations below are all it takes. Both
//! calls are Linux's.

use std::ffi::{c_int, c_long, c_short, c_uint, c_ulong, c_void};
use std::fs::File;
use std::io;
use std::os::fd::{FromRawFd, RawFd};
use std::time::{Duration, Instant};

/// One descriptor to watch for input: C's `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `POLLIN`: data to read (or an end of stream).
const POLLIN: c_short = 0x001;

impl PollFd {
    /// Watch `fd` for input.
    pub fn readable(fd: RawFd) -> Self {
        PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        }
    }

    /// Whether the last `ppoll` found the descriptor readable, hung up
    /// or in error — anything a read would not block on.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// C's `struct timespec` (`time_t` is a `long` on the C libraries this
/// builds against).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
}

/// `EFD_NONBLOCK | EFD_CLOEXEC`: Linux's `O_NONBLOCK | O_CLOEXEC`.
const EFD_NONBLOCK_CLOEXEC: c_int = 0o4000 | 0o2_000_000;

/// A new non-blocking `eventfd(2)`: a kernel counter that a `write` of a
/// native-endian `u64` adds to and an 8-byte `read` takes and zeroes,
/// readable while it is not zero. A lane doorbell rings one. A socket
/// pair or a pipe in its place cost the threaded `qnet-storm` up to a
/// third of its rate (`docs/hot-path.md` §6): their writes wake the
/// reader with the kernel's synchronous-wake hint, which can queue it
/// behind the still-busy writer; an eventfd's do not.
pub(crate) fn event_fd() -> io::Result<File> {
    // SAFETY: `eventfd` takes no pointers, and the kernel checks the
    // flags.
    let fd = unsafe { eventfd(0, EFD_NONBLOCK_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is the descriptor `eventfd` just opened; nothing else
    // owns or closes it.
    Ok(unsafe { File::from_raw_fd(fd) })
}

/// One `ppoll` over `fds` for at most `timeout` (`None`: no limit).
/// The number of ready descriptors, 0 on a timeout.
fn ppoll_once(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ts = timeout.map(|t| Timespec {
        tv_sec: t.as_secs().try_into().unwrap_or(c_long::MAX),
        tv_nsec: t.subsec_nanos().into(),
    });
    let tp = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is an exclusively borrowed array of `fds.len()`
    // `PollFd`s, laid out as C's `struct pollfd` (`repr(C)`, C's field
    // types); the kernel writes only their `revents`. `tp` is null or
    // points at `ts`, which outlives the call. A null signal mask leaves
    // the thread's mask alone.
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, tp, std::ptr::null()) };
    usize::try_from(n).map_err(|_| io::Error::last_os_error())
}

/// Sleep until one of `fds` is readable (true) or `timeout` has passed
/// (false). A wait a signal interrupts resumes with what is left of the
/// timeout. Any other failure (none is expected: the descriptors are
/// the caller's and open) sleeps out the timeout, so a park degrades to
/// a timed one rather than spinning.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> bool {
    wait_with(fds, timeout, ppoll_once)
}

/// [`wait`] over any `ppoll`-shaped call: the retry loop, apart from the
/// system call.
fn wait_with(
    fds: &mut [PollFd],
    timeout: Duration,
    mut sys: impl FnMut(&mut [PollFd], Option<Duration>) -> io::Result<usize>,
) -> bool {
    let deadline = Instant::now().checked_add(timeout);
    loop {
        let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
        match sys(fds, left) {
            Ok(n) => return n > 0,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                std::thread::sleep(left.unwrap_or(timeout));
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn a_readable_socket_ends_the_wait_at_once() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        let (_peer, silent) = UnixStream::pair().unwrap();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.write_all(b"x").unwrap();
            tx
        });
        let mut fds = [
            PollFd::readable(silent.as_raw_fd()),
            PollFd::readable(rx.as_raw_fd()),
        ];
        let t0 = Instant::now();
        assert!(wait(&mut fds, Duration::from_secs(5)));
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        assert!(!fds[0].ready() && fds[1].ready());
        drop(writer.join().unwrap());
    }

    #[test]
    fn a_silent_socket_times_out() {
        let (_tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::readable(rx.as_raw_fd())];
        let t0 = Instant::now();
        assert!(!wait(&mut fds, Duration::from_millis(30)));
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert!(!fds[0].ready());
    }

    #[test]
    fn an_interrupted_wait_resumes_with_what_is_left() {
        // A signal handler's interruption, as `ppoll` reports it: twice,
        // then the real call.
        let (_tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::readable(rx.as_raw_fd())];
        let mut asked = Vec::new();
        let t0 = Instant::now();
        let ready = wait_with(&mut fds, Duration::from_millis(40), |fds, left| {
            asked.push(left.expect("a finite timeout"));
            if asked.len() <= 2 {
                std::thread::sleep(Duration::from_millis(10));
                return Err(io::Error::from(io::ErrorKind::Interrupted));
            }
            ppoll_once(fds, left)
        });
        assert!(!ready);
        assert_eq!(asked.len(), 3, "an interruption was not retried");
        // Each retry asks for what is left, not the whole timeout again.
        assert!(asked[2] <= Duration::from_millis(20), "{asked:?}");
        assert!(t0.elapsed() >= Duration::from_millis(40));
    }
}
